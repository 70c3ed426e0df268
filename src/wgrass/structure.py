"""
Structure constants of divisive weighted Grassmann orbifolds.

Everything here runs relative to a weight vector in the divisibility-
descending presentation (b_i | b_{i-1}) with integer exponent data
(W, a), and expands products of the distinguished basis classes.

Equivariant route.  The product of basis classes i and j is assembled
from puzzle data: for every symbol q above both, each puzzle P with the
conjugated boundary (i, j; q) contributes its coefficient polynomials

    a_s(P),   s = 0..|P|,

read off from the factorization prod_s (bwt(p_s) + (b(p_s)/b_0) B) in a
formal variable B, where for an equivariant piece with reversed-
alphabet pair (u, v), u < v:

    b(p_s)   = w_u - w_v             (an integer),
    bwt(p_s) = y_u - y_v - (b(p_s)/b_0) Y_0.

The formal B stands for the degree-one basis class.  One Pieri step
multiplies basis_t by it:

    B * basis_t = (Y_0 - (b_0 / b_t) Y_t) basis_t
                  + sum over up-covers u of t of (b_0 / b_t) basis_u.

The powers c(q, s) = B^s * basis_q are taken one step at a time,
c(q, 0) = basis_q and c(q, s) = B * c(q, s - 1).  Unrolled, the
recurrence is the chain sum

    c(q, s)[l] = sum over descending cover chains l -> ... -> q of
                 b_0^r / (b_{l_1} ... b_{l_r}) *
                 sum over compositions (j_0..j_r) of s - r of
                 prod_t (Y_0 - (b_0 / b_{l_t}) Y_{l_t})^{j_t},

zero when s < r = dim(l) - dim(q).  Contracting a_s(P) against c(q, s)
yields the equivariant table; it must agree with the localization
oracle entrywise.

The contraction is linear, so only sum_P a_s(P) over the puzzles of
(i, j; q) is needed, and no puzzle is built: one transfer-matrix sweep
over all pairs of a table (``puzzles.symbol_sums``) gives, for every
(i, j) and every q at once,

    sum_P prod_s (b_0 (y_u - y_v) - b(p_s) Y_0 + b(p_s) B),

an integer polynomial in (y, B) equal to b_0^|P| times the product
above, |P| = dim(i) + dim(j) - dim(q).  In divisive presentation every
b_t divides b_0, which the context checks, so c(q, s) is integral
too.  Each q is scaled to the common denominator b_0^T,
T = dim(i) + dim(j) - min dim(q), the contraction runs in integers,
and each entry is divided by b_0^T once.  ``a_coefficients`` reads the
a_s(P) of one puzzle off the same packed frontier factors: their
product over its pieces, split by powers of B, over b_0^|P|.

The contraction runs on packed integer term maps
(``polynomial.Packing``), packed for one degree bound in the whole
context: the frontier sums come packed in (y_1..y_n, B), and the
frontier packing's ``split_last`` reads the power s of B off its field
and repacks the rest in y_1..y_n alone.  The Pieri memo holds packed
maps too, so every product is one ``_mul_packed`` into the entry it
feeds, and each entry becomes a ``Poly`` once, when it is divided.

Ordinary route.  The ordinary constants are the equivariant ones at
y = 0, computed by the same contraction.  There the frontier factors
become b(p) B and the Pieri step loses its diagonal, so c(q, s)[l] is
the chain sum above without compositions, nonzero only at
dim(l) = dim(q) + s.  Every entry left is a constant at a
dimension-matching l:

    sum over q and chains l -> ... -> q of
    (sum_P prod_s b(p_s)) / (b_{l_1} ... b_{l_d}),

where the term q = l counts the puzzles without equivariant pieces.
The level keeps a Pieri memo of its own; each entry is divided by
b_0^T once and checked to be a nonnegative integer.  A pair without a
dimension-matching l has no entry, so the ordinary level sweeps only
the pairs that have one.

Positivity.  Equivariant constants rewritten in the forms

    g_q = y_q - y_{q+1} - ((w_q - w_{q+1}) / b_0) Y_0,  q = 1..n-1,

together with Y_0, must use only the g's, with nonnegative coefficients.
In the column-0 coordinates z_s = y_s - (w_s / b_0) Y_0 the forms are
g_q = z_q - z_{q+1}, so the rewrite needs no inverse matrix.  With
u_q = y_q - y_{q+1} (q < n) and u_n = y_n, n - 1 shears
y_s -> u_s + y_{s+1}, s = 1..n-1 in turn, take p to a polynomial in
the u's; each is a binomial split of one packed exponent field
(``Packing.shear``), with no multiplication.  Then one
substitution finishes it:

    u_q -> g_q + c_q Y_0,   c_q = (w_q - w_{q+1}) / b_0,
    u_n -> (Y_0 - sum_{q < n} min(q, k) u_q) / k,

the second because Y_0 = y_1 + ... + y_k = sum_q min(q, k) u_q.  Only
the u_q with c_q != 0 move; the others are g_q already.  It runs on
packed integer maps (``Packing.substitute``).  Every image coefficient
is an integer over k b_0, so the images are built from integers alone,
scaled by their least common denominator, which is divided out once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from itertools import combinations

from . import plucker, puzzles, symbols
from .errors import CapacityError, InternalInconsistencyError, ParameterError
from .polynomial import _cleared, _mul_packed, packing


class WeightedContext:
    """Shared caches for one (b, k, n) in divisive presentation."""

    def __init__(self, b, k: int, n: int):
        vec = plucker.presented_weight_vector(b, k, n)
        self.b = vec
        self.k = k
        self.n = n
        self.lattice = symbols.lattice(k, n)
        self.wa = plucker.solve_wa(vec, k, n)
        ratios = [divmod(vec[0], bt) for bt in vec]
        if any(rem for _, rem in ratios):
            raise InternalInconsistencyError(
                "every b_t must divide b_0 in divisive presentation"
            )
        self._ratios = [ratio for ratio, _ in ratios]  # b_0 / b_t
        # every packed map of the context reaches at most this degree:
        # a frontier sum, a B-power s read off it, a Pieri power of that
        # s and the product of the two; the frontier adds B to y_1..y_n
        top = puzzles.max_equivariant_pieces(n)
        self.packing = packing(n, top)
        self._frontier = packing(n + 1, top)
        self._pieces: dict = {}

    # -- piece data ----------------------------------------------------

    def piece_value(self, u: int, v: int) -> int:
        """b(p) = w_u - w_v for a reversed-alphabet pair (u, v), u < v.

        Checked once per pair against a representative symbol pair
        (lam_e, lam_f) with Y_e - Y_f = y_u - y_v.
        """
        value = self._pieces.get((u, v))
        if value is None:
            lat = self.lattice
            w = self.wa.W
            value = w[u - 1] - w[v - 1]
            f_sym = next(sym for sym in lat.symbols if v in sym and u not in sym)
            e_sym = symbols.exchange(f_sym, v, u)
            if self.b[lat.index[e_sym]] - self.b[lat.index[f_sym]] != value:
                raise InternalInconsistencyError(
                    "piece value depends on the representative pair"
                )
            self._pieces[(u, v)] = value
        return value

    def a_coefficients(self, puz) -> list:
        """Coefficients a_0..a_|P| of the piece-factor expansion.

        The product of the puzzle's packed ``equivariant_factors`` is
        b_0^|P| prod_s (bwt(p_s) + (b(p_s)/b_0) B); a_s is its part at B^s
        over b_0^|P|.
        """
        pairs = puz.conjugated_pairs()
        product = {0: 1}  # 0 packs 1
        for pair in pairs:
            product = _mul_packed(product, self.equivariant_factors[pair])
        by_power = self._frontier.split_last(product)
        d = self.b[0] ** len(pairs)
        return [
            self.packing.poly(by_power.get(s, {}), d) for s in range(len(pairs) + 1)
        ]

    @cached_property
    def equivariant_factors(self) -> dict:
        """(u, v) -> b_0 (y_u - y_v) + b(p) (B - Y_0) over (y_1..y_n, B).

        That is b_0 times bwt(p) + (b(p)/b_0) B, with integer
        coefficients; one packed factor per pair u < v.
        """
        fr, b0 = self._frontier, self.b[0]
        unit = fr.units  # unit[n] is B
        y0 = fr.linear(self.lattice.symbols[0])
        shift = _mul_packed(y0, {0: -1}, {unit[self.n]: 1})  # B - Y_0
        return {
            (u, v): _mul_packed(
                shift, {0: self.piece_value(u, v)}, {unit[u - 1]: b0, unit[v - 1]: -b0}
            )
            for u, v in combinations(range(1, self.n + 1), 2)
        }

    @cached_property
    def ordinary_factors(self) -> dict:
        """(u, v) -> b(p) B over (y_1..y_n, B), one packed factor per pair."""
        big_b = {self._frontier.units[self.n]: 1}
        return {
            (u, v): _mul_packed(big_b, {0: self.piece_value(u, v)})
            for u, v in combinations(range(1, self.n + 1), 2)
        }

    # -- levels: (frontier factors, Pieri diagonals, Pieri memo) ---------

    @cached_property
    def _equivariant(self) -> tuple:
        """Factors, packed Pieri diagonals Y_0 - (b_0 / b_t) Y_t and memo."""
        pk, syms = self.packing, self.lattice.symbols
        diagonals = [
            _mul_packed(pk.linear(sym), {0: -ratio}, pk.linear(syms[0]))
            for ratio, sym in zip(self._ratios, syms)
        ]
        return self.equivariant_factors, diagonals, {}

    @cached_property
    def _ordinary(self) -> tuple:
        """The equivariant level at y = 0: factors b(p) B, no diagonal."""
        return self.ordinary_factors, [{}] * (self.lattice.m + 1), {}

    # -- Pieri powers ----------------------------------------------------

    def _pieri_packed(self, q: int, s: int, level: tuple) -> dict:
        """``pieri_power(q, s)`` of a level as packed maps, memoised there."""
        _, diagonals, memo = level
        cached = memo.get((q, s))
        if cached is not None:
            return cached
        lat = self.lattice
        lat.check_index(q)
        if s > self.packing.top:
            raise CapacityError(
                f"Pieri powers are held up to s = {self.packing.top}, got {s}"
            )
        out = memo.setdefault((q, 0), {q: {0: 1}})  # 0 packs 1
        for r in range(1, s + 1):
            if (q, r) in memo:
                out = memo[(q, r)]
                continue
            # one Pieri step: B * basis_t
            acc: dict = {}
            for t, c in out.items():
                _mul_packed(c, diagonals[t], acc.setdefault(t, {}))
                for u in lat.arrows[t]:
                    _mul_packed(c, {0: 1}, acc.setdefault(u, {}), self._ratios[t])
            out = {l: p for l, p in sorted(acc.items()) if p}
            memo[(q, r)] = out
        return out

    def pieri_power(self, q: int, s: int) -> dict:
        """Map l -> coefficient of basis_l in (degree-one class)^s * basis_q."""
        if type(s) is not int or s < 0:  # no bool reaches the memo
            raise ParameterError("power must be a nonnegative integer")
        return {
            l: self.packing.poly(p)
            for l, p in self._pieri_packed(q, s, self._equivariant).items()
        }

    # -- tables -----------------------------------------------------------

    def _sums(self, pairs, level: tuple) -> dict:
        """(i, j) -> {q: frontier sum} of a level, one sweep for all pairs."""
        return puzzles.symbol_sums(self.k, self.n, pairs, level[0], self.n + 1)

    def _contract(self, i: int, j: int, level: tuple, sums) -> tuple:
        """(l -> packed b_0^top * constant, b_0^top) of basis_i * basis_j.

        ``sums`` are the frontier sums of (i, j) in the level, or None to
        sweep them for this pair alone.
        """
        lat = self.lattice
        if sums is None:
            sums = self._sums([(i, j)], level)[(i, j)]
        reached = [q for q, total in sums.items() if total]
        if not reached:
            return {}, 1
        # the sum of (i, j; q) carries b_0^(d_i + d_j - d_q); scale every
        # q to b_0^top and divide once at the end
        top = lat.d[i] + lat.d[j] - min(lat.d[q] for q in reached)
        out: dict = {}
        for q in reached:
            # B is the last variable: a_s in y_1..y_n per power s of B
            by_power = self._frontier.split_last(sums[q])
            scale = self.b[0] ** (lat.d[q] + top - lat.d[i] - lat.d[j])
            for s, a_s in by_power.items():
                for l, piece in self._pieri_packed(q, s, level).items():
                    _mul_packed(a_s, piece, out.setdefault(l, {}), scale)
        return {l: p for l, p in sorted(out.items()) if p}, self.b[0] ** top

    def equivariant_constants(self, i: int, j: int, sums=None) -> dict:
        """Map l -> equivariant structure constant polynomial.

        ``sums`` are the pair's frontier sums from ``equivariant_cells``;
        without them the pair is swept alone.
        """
        self.lattice.check_index(i, j)
        out, denominator = self._contract(i, j, self._equivariant, sums)
        return {l: self.packing.poly(p, denominator) for l, p in out.items()}

    def equivariant_cells(self, pairs) -> dict:
        """(i, j) -> ``equivariant_constants(i, j)`` for every pair, by one
        sweep."""
        pairs = list(pairs)
        return self._cells(pairs, pairs, self._equivariant, self.equivariant_constants)

    def equivariant_table(self) -> dict:
        return self._table(self.equivariant_cells)

    def _matches(self, i: int, j: int) -> bool:
        """True iff some l above i and j has d_l = d_i + d_j.

        The symbols above both form the interval from their join to the
        top, of dimension k(n - k).  The join has dimension <= d_i + d_j
        (its diagram is the union of the two), and a graded interval
        takes every dimension in between, so that is d_i + d_j <= k(n - k).
        """
        d = self.lattice.d
        return d[i] + d[j] <= self.k * (self.n - self.k)

    def ordinary_constants(self, i: int, j: int, sums=None) -> dict:
        """Map l (dimension-matching only) -> integer structure constant.

        ``sums`` as for ``equivariant_constants``, from ``ordinary_cells``.
        """
        self.lattice.check_index(i, j)
        # no dimension-matching l: skip the frontier sums, most of the cost
        if not self._matches(i, j):
            return {}
        out, denominator = self._contract(i, j, self._ordinary, sums)
        constants = {}
        for l, p in out.items():
            # at y = 0 each entry is the constant term alone, packed as 0
            total, rem = divmod(p[0], denominator)
            if rem or total < 0:
                raise InternalInconsistencyError(
                    "ordinary constant must be a nonnegative integer"
                )
            constants[l] = total
        return constants

    def ordinary_cells(self, pairs) -> dict:
        """(i, j) -> ``ordinary_constants(i, j)`` for every pair; one sweep
        over the pairs with a dimension-matching l."""
        pairs = list(pairs)
        for i, j in pairs:
            self.lattice.check_index(i, j)
        swept = [(i, j) for i, j in pairs if self._matches(i, j)]
        return self._cells(pairs, swept, self._ordinary, self.ordinary_constants)

    def ordinary_table(self) -> dict:
        return self._table(self.ordinary_cells)

    def _cells(self, pairs, swept, level: tuple, constants) -> dict:
        """(i, j) -> constants(i, j, sums) for every pair, the sums of the
        ``swept`` pairs from one sweep of the level; each pair's sums are
        dropped once contracted."""
        sums = self._sums(swept, level)
        return {(i, j): constants(i, j, sums.pop((i, j), None)) for i, j in pairs}

    def _table(self, cells) -> dict:
        """The full symmetric table of a level's ``cells``, one sweep."""
        m1 = self.lattice.m + 1
        upper = cells([(i, j) for i in range(m1) for j in range(i, m1)])
        return symbols.symmetric_table(m1, lambda i, j: upper[(i, j)])

    # -- positivity -------------------------------------------------------

    @cached_property
    def _sheared_images(self) -> tuple:
        """(images, kept, D): D times the images of the module docstring
        over (g_1..g_{n-1}, Y_0), of u_n and of the u_q with c_q != 0, as
        (0-based variable, integer terms); the kept u's are g's already.

        Every coefficient is an integer over k b_0:

            u_q -> (k b_0 g_q + k (w_q - w_{q+1}) Y_0) / (k b_0),
            u_n -> (b_0 Y_0 - sum_q min(q, k) (b_0 g_q + (w_q - w_{q+1}) Y_0))
                   / (k b_0),

        so the least common denominator is D = k b_0 / g, g the gcd of
        k b_0 and every numerator, and D times an image is its numerators
        over g.
        """
        n, k, b0, w = self.n, self.k, self.b[0], self.wa.W
        units = [tuple(int(u == v) for u in range(n)) for v in range(n)]
        y0 = units[n - 1]  # the last target variable is Y_0
        moved = {}
        last = {y0: b0}
        for q in range(1, n):
            c = w[q - 1] - w[q]
            if c:
                moved[q - 1] = {units[q - 1]: k * b0, y0: k * c}
            last[units[q - 1]] = -min(q, k) * b0
            last[y0] -= min(q, k) * c
        moved[n - 1] = last
        g = gcd(k * b0, *(c for image in moved.values() for c in image.values()))
        images = [
            (v, {e: c // g for e, c in image.items() if c}) for v, image in moved.items()
        ]
        return images, [v for v in range(n) if v not in moved], k * b0 // g

    def change_basis_positivity(self, p):
        """The ``Poly`` p rewritten as a polynomial in (g_1..g_{n-1}, Y_0)."""
        n = self.n
        if p.nvars != n:
            raise ParameterError(f"expected a polynomial in {n} variables")
        if not p.terms:
            return p
        lifted, lift = _cleared(p.terms)
        pk = packing(n, p.degree())
        terms = pk.of(lifted)
        for s in range(1, n):
            terms = pk.shear(terms, s)
        images, kept, scale = self._sheared_images
        sheared = {pk.unpack(key): c for key, c in terms.items()}
        deg = max(sum(e[v] for v, _ in images) for e in sheared)
        packed = [(v, pk.of(image)) for v, image in images]
        out = pk.substitute(sheared, packed, kept, scale, deg)
        return pk.poly(out, lift * scale**deg)


def context(b, k: int, n: int) -> WeightedContext:
    """The cached WeightedContext of b, for any sequence b.

    b is shape-checked in front of the cache, so that a list is accepted
    and no boolean or float entry can hit the cache of an equal integer
    vector.
    """
    return _cached_context(plucker.check_weight_vector_shape(b, k, n), k, n)


# contexts kept per process, so that a long-lived process checking
# many vectors stays bounded; a (2, 6) context holds about 75 KB once
# its full table has filled the Pieri memo
CONTEXT_CACHE_SIZE = 16


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def _cached_context(b: tuple, k: int, n: int) -> WeightedContext:
    return WeightedContext(b, k, n)


context.cache_info = _cached_context.cache_info
context.cache_clear = _cached_context.cache_clear


def verify_integrality(table) -> tuple:
    """(ok, counterexample) over a table of polynomial or integer cells."""
    for key in sorted(table):
        cell = table[key]
        for l in sorted(cell):
            value = cell[l]
            if isinstance(value, int):
                continue
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    return False, (key, l, str(value))
                continue
            if not value.is_integral():
                return False, (key, l, value.render())
    return True, None


def verify_positivity(table, b, k: int, n: int) -> tuple:
    """(ok, counterexample): rewritten cells must avoid Y_0 and stay >= 0."""
    ctx = context(b, k, n)
    for key in sorted(table):
        cell = table[key]
        for l in sorted(cell):
            value = cell[l]
            if isinstance(value, int):
                if value < 0:
                    return False, (key, l, str(value))
                continue
            rewritten = ctx.change_basis_positivity(value)
            for expo, coeff in rewritten.terms.items():
                if expo[n - 1] != 0:
                    return False, (key, l, "depends on Y_0")
                if coeff < 0:
                    return False, (key, l, f"negative coefficient {coeff}")
    return True, None


def localize_table(b, k: int, n: int) -> dict:
    """Oracle table over all (i, j); the comparison target for the pipeline."""
    from . import gkm  # the pipeline itself never needs the oracle

    return symbols.symmetric_table(
        symbols.lattice(k, n).m + 1,
        lambda i, j: gkm.localize_product(b, k, n, i, j),
    )
