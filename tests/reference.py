"""Reference routes of the packed kernels, the data they are run on, and
helpers only the tests call (``evaluate``, ``constant_value``,
``symbol_of_word``, ``restrictions_as_json``, ``conjugated_constants``).
The positivity rewrite's reference is ``rewrite_in_linear_basis``: the
substitution by the inverse of the form matrix
(``linear_basis_images``), where the library shears.  Weight-vector
validity has its reference in ``reference_validate``: the walk over
every Plucker relation that the (W, a) candidate replaced.

Each is the tuple or ``Poly`` form of a hot loop that the library now
runs on packed integer term maps, or the route it ran before:
substitution by Horner's rule on exponent tuples, the b = 1 basis by
congruence interpolation on ``Poly``s (with the variable identification
it needs), the frontier sums by one forward pass per (nw, ne) pair
(``reference_frontier_sums``), and the pipeline contraction of frontier
sums with Pieri powers in ``Poly`` arithmetic.  They share with the
routes they check only ``Poly`` arithmetic, the puzzle catalogue and,
for the contraction, the frontier sums.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from wgrass import gkm, linalg, plucker, puzzles, symbols
from wgrass.errors import InternalInconsistencyError, ParameterError
from wgrass.polynomial import (
    Poly,
    _accumulate,
    _build,
    _cleared,
    _coerce,
    _mul_terms,
    _packer,
    linear_form,
)


# sizes on which every packed route is compared with its reference
SIZES = ((2, 4), (2, 5), (3, 5), (2, 6), (3, 6))


def vectors(k: int, n: int) -> list:
    """The unit vector and three seeded divisive vectors of (k, n).

    A seeded vector is a * (t + 1) on the symbols containing 1 and a
    elsewhere, for (a, t) drawn from the seed; seeds 2, 5 and 7 draw
    (1, 1), (2, 3) and (2, 2).
    """
    syms = symbols.enumerate_symbols(k, n)
    out = [(1,) * len(syms)]
    for seed in (2, 5, 7):
        rng = random.Random(seed)
        a, t = rng.randint(1, 2), rng.randint(1, 5)
        out.append(tuple(a * (t + 1) if 1 in s else a for s in syms))
    assert len(set(out)) == 4
    return out


def evaluate(p: Poly, point) -> Fraction:
    """The exact value of p at ``point``, one rational per variable."""
    vals = [_coerce(v) for v in point]
    if len(vals) != p.nvars:
        raise ParameterError("point has wrong length")
    total = Fraction(0)
    for expo, c in p.terms.items():
        v = c
        for x, e in zip(vals, expo):
            if e:
                v *= x**e
        total += v
    return total


def constant_value(p: Poly):
    """The value (int or Fraction) of a degree-<=0 polynomial."""
    if p.is_zero():
        return 0
    if p.degree() > 0:
        raise ParameterError("not a constant polynomial")
    return next(iter(p.terms.values()))


def symbol_of_word(w: str) -> tuple:
    """The symbol with entries at the ones of a 0/1 word."""
    if set(w) - {"0", "1"}:
        raise ParameterError(f"not a 0/1 word: {w!r}")
    return tuple(i + 1 for i, ch in enumerate(w) if ch == "1")


def linear_basis_images(forms: list) -> dict:
    """The substitution y_s -> (expression in g_1..g_n) inverting ``forms``.

    p.substitute(images) rewrites p in the coordinates g_1..g_n given
    by the n independent linear forms; callers that rewrite many
    polynomials in one basis build the images once.  Raises when the
    forms are not a basis of the linear span of the variables.
    """
    n = len(forms)
    mat = []
    for f in forms:
        if f.nvars != n or (not f.is_zero() and f.degree() != 1):
            raise ParameterError("basis entries must be linear forms")
        row = [0] * n
        for expo, c in f.terms.items():
            row[expo.index(1)] = c
        mat.append(row)
    inv = linalg.invert(mat)
    if inv is None:
        raise ParameterError("forms are not linearly independent")
    # y_s = sum_t inv[s][t] * g_t
    return {
        s + 1: Poly(n, {
            tuple(1 if u == t else 0 for u in range(n)): inv[s][t]
            for t in range(n)
            if inv[s][t]
        })
        for s in range(n)
    }


def rewrite_in_linear_basis(p: Poly, forms: list) -> Poly:
    """Rewrite p in the coordinates given by n independent linear forms.

    The result is a polynomial in len(forms) fresh variables g_1..g_n
    with p == result(g_i -> forms[i]).  Raises when the forms are not a
    basis of the linear span of the original variables.
    """
    if len(forms) != p.nvars:
        raise ParameterError("need exactly nvars linear forms")
    return p.substitute(linear_basis_images(forms))


# -- substitution on exponent tuples ------------------------------------------


def _horner(items: list, images: list, pos: int, kept: list, n: int) -> dict:
    """Expand the (expo, c) ``items`` under the substitution ``images``.

    ``images`` lists (variable, image terms) pairs; variables in
    ``kept`` map to themselves in the n target variables.
    """
    if pos == len(images):  # items differ only in their kept exponents
        out = {}
        for expo, c in items:
            mono = [0] * n
            for v in kept:
                mono[v] = expo[v]
            out[tuple(mono)] = c
        return out
    v, image = images[pos]
    groups: dict = {}
    for item in items:
        groups.setdefault(item[0][v], []).append(item)
    acc: dict = {}
    for e in range(max(groups), -1, -1):
        if acc:
            acc = _mul_terms(acc, image)
        group = groups.get(e)
        if group:
            _accumulate(acc, _horner(group, images, pos + 1, kept, n).items())
    return acc


def substitute(p: Poly, images: dict) -> Poly:
    """``p.substitute(images)`` by Horner's rule on exponent tuples."""
    if not images:
        return p
    target_n = next(iter(images.values())).nvars
    mapped = [(v, images[v + 1]) for v in range(p.nvars) if v + 1 in images]
    kept = [v for v in range(p.nvars) if v + 1 not in images]
    if not p.terms:
        return Poly.zero(target_n)
    cleared = [(v, _cleared(img.terms)) for v, img in mapped]
    scale = lcm(1, *(d for _, (_, d) in cleared))
    bases = [
        (v, {e: c * (scale // d) for e, c in t.items()}) for v, (t, d) in cleared
    ]
    lifted, lift = _cleared(p.terms)
    weights = {e: sum(e[v] for v, _ in mapped) for e in lifted}
    deg = max(weights.values())
    terms = [(e, c * scale ** (deg - weights[e])) for e, c in lifted.items()]
    return _build(
        target_n, _horner(terms, bases, 0, kept, target_n), lift * scale**deg
    )


# -- the b = 1 interpolation on Polys -----------------------------------------


def permute_variables(p: Poly, images: dict) -> Poly:
    """Relabel the variables of p by the 1-based index map ``images``.

    Unmapped variables keep their index.  The map need not be
    injective: {s: t} identifies y_s with y_t, i.e. it is the
    substitution y_s -> y_t, done by merging exponents without any
    multiplication.
    """
    terms = {}
    for expo, c in p.terms.items():
        new = [0] * p.nvars
        for i, e in enumerate(expo, start=1):
            new[images.get(i, i) - 1] += e
        terms[tuple(new)] = terms.get(tuple(new), 0) + c
    return Poly(p.nvars, terms)


def interpolate_value(constraints, degree: int, n: int) -> Poly:
    """The homogeneous degree-d solution of the (s, s', value) congruences."""
    subs = [{s: sp} for s, sp, _ in constraints]
    alpha = constraints[0][2]
    prod_e = Poly.one(n)
    for t in range(1, len(constraints)):
        s_prev, sp_prev, _ = constraints[t - 1]
        prod_e = prod_e * (Poly.variable(n, sp_prev) - Poly.variable(n, s_prev))
        value = constraints[t][2]
        rem = permute_variables(value - alpha, subs[t])
        if rem.is_zero():
            continue
        g = rem.divide_exact(permute_variables(prod_e, subs[t]))
        if g is None:
            raise InternalInconsistencyError("congruence system is not solvable")
        alpha = alpha + prod_e * g
    for (s, sp, value), sub in zip(constraints, subs):
        if not permute_variables(alpha - value, sub).is_zero():
            raise InternalInconsistencyError("interpolated value fails a congruence")
    if not (alpha.is_zero() or
            (alpha.is_homogeneous() and alpha.degree() == degree)):
        raise InternalInconsistencyError("interpolated value has wrong degree")
    return alpha


@lru_cache(maxsize=None)
def unit_restrictions(k: int, n: int) -> tuple:
    """The b = 1 restriction matrix, interpolated on Polys."""
    lat = symbols.lattice(k, n)
    m1 = lat.m + 1
    graph = gkm.build_graph((1,) * m1, k, n)
    matrix = []
    for i in range(m1):
        row: list = []
        for j in range(m1):
            if not lat.leq_idx(i, j):
                row.append(Poly.zero(n))
                continue
            if j == i:
                diag = Poly.one(n)
                for l in lat.R[i]:
                    diag = diag * graph.labels[(l, i)]
                row.append(diag)
                continue
            constraints = []
            for s, sp in symbols.reversal_pairs(lat.symbols[j]):
                l = lat.index[symbols.exchange(lat.symbols[j], s, sp)]
                constraints.append((s, sp, row[l]))
            row.append(interpolate_value(constraints, lat.d[i], n))
        matrix.append(tuple(row))
    return tuple(matrix)


def weighted_restrictions(b, k: int, n: int) -> tuple:
    """Column t of the b = 1 matrix under y_s -> y_s - (w_s / b_t) Y_t."""
    lat = symbols.lattice(k, n)
    vec = plucker.presented_weight_vector(b, k, n)
    w = plucker.solve_wa(vec, k, n).W
    base = unit_restrictions(k, n)
    columns = []
    for t, bt in enumerate(vec):
        yt = linear_form(n, lat.symbols[t])
        images = {
            s + 1: Poly.variable(n, s + 1) - Fraction(w[s], bt) * yt
            for s in range(n)
        }
        columns.append([substitute(row[t], images) for row in base])
    return tuple(tuple(col[i] for col in columns) for i in range(len(vec)))


# -- the frontier sums by one forward pass per pair -------------------------


def reference_frontier_sums(nw: str, ne: str, factors: dict) -> dict:
    """``puzzles.frontier_sums`` by one forward pass for this pair alone.

    Map south word -> sum over the tilings with the nw and ne words of
    the product of factors[(u, v)] over their equivariant pieces.

    ``factors`` maps every conjugated pair u < v to a packed integer
    term map, all packed alike for degrees up to
    ``max_equivariant_pieces(n)``; a tiling without equivariant pieces
    adds 1, the packed monomial 0.  The sums are packed the same way,
    without zero terms.  Every south word some tiling reaches is a key,
    also when its sum cancels to zero.
    """
    n = len(nw)
    for w in (nw, ne):
        puzzles._check_word(w, n)
    catalogue = puzzles._catalogue(n)
    packed = {pair: list(f.items()) for pair, f in factors.items()}
    start = 0
    for ids, word in zip(catalogue.boundary, (nw, ne)):
        for edge, letter in zip(ids, word):
            start |= int(letter) + 1 << 2 * edge
    states = {start: {0: 1}}
    for cover, keep, moves in catalogue.steps:
        reached: dict = {}
        fresh = set()  # keys whose weight dict belongs to this step

        def add(key, weight):
            known = reached.get(key)
            if known is None:
                reached[key] = weight
                return
            if key not in fresh:
                known = reached[key] = dict(known)
                fresh.add(key)
            get = known.get
            for e, c in weight.items():
                known[e] = get(e, 0) + c

        for state, weight in states.items():
            if state & cover:
                add(state & keep, weight)
                continue
            for forbidden, added, pair in moves:
                if state & forbidden:
                    continue
                if pair is not None:
                    product: dict = {}
                    get = product.get
                    for e1, c1 in weight.items():
                        for e2, c2 in packed[pair]:
                            e = e1 + e2
                            product[e] = get(e, 0) + c1 * c2
                    add((state | added) & keep, product)
                else:
                    add((state | added) & keep, weight)
        states = reached
    # only the south edges are left in the final states
    return {
        "".join("01"[(state >> 2 * e & 3) - 1] for e in catalogue.boundary[2]):
        {e: c for e, c in weight.items() if c}
        for state, weight in states.items()
    }


# -- the pipeline contraction on Polys ----------------------------------------


def equivariant_constants(ctx, i: int, j: int) -> dict:
    """``ctx.equivariant_constants(i, j)`` contracted in Poly arithmetic."""
    lat, n = ctx.lattice, ctx.n
    _, unpack = _packer(n + 1, puzzles.max_equivariant_pieces(n))
    sums = {
        q: Poly(n + 1, {unpack(key): c for key, c in total.items()})
        for q, total in puzzles.symbol_sums(
            ctx.k, n, [(i, j)], ctx.equivariant_factors, n + 1
        )[(i, j)].items()
    }
    reached = [q for q, total in sums.items() if total]
    if not reached:
        return {}
    top = lat.d[i] + lat.d[j] - min(lat.d[q] for q in reached)
    out: dict = {}
    for q in reached:
        by_power: dict = {}
        for e, c in sums[q].terms.items():
            by_power.setdefault(e[n], {})[e[:n]] = c
        scale = ctx.b[0] ** (lat.d[q] + top - lat.d[i] - lat.d[j])
        for s, terms in by_power.items():
            a_s = Poly(n, terms) * scale
            for l, piece in ctx.pieri_power(q, s).items():
                out[l] = out[l] + a_s * piece if l in out else a_s * piece
    denominator = ctx.b[0] ** top
    return {
        l: _build(n, p.terms, denominator)
        for l, p in sorted(out.items()) if not p.is_zero()
    }


def conjugated_constants(k: int, n: int) -> dict:
    """Conjugated table (i, j, l) -> polynomial; the downstream orientation.

    The pairs with i <= j in one sweep, past the ``conjugated_product``
    cache; the product commutes, so (j, i) mirrors (i, j).
    """
    m1 = symbols.count(k, n)
    cells = puzzles._conjugated(
        k, n, [(i, j) for i in range(m1) for j in range(i, m1)]
    )
    table = {}
    for (i, j), cell in cells.items():
        for l, poly in cell.items():
            table[(i, j, l)] = table[(j, i, l)] = poly
    return dict(sorted(table.items()))


def reference_validate(b, k: int, n: int) -> bool:
    """``plucker.validate_weight_vector`` by walking every relation: True
    iff each has constant pair-sum."""
    vec = plucker.check_weight_vector_shape(b, k, n)
    for rel in plucker.generate_relations(k, n):
        if len({vec[r] + vec[s] for r, s in rel.pairs}) > 1:
            return False
    return True


def restrictions_as_json(b, k: int, n: int) -> dict:
    """Restriction matrix as nested {basis index: {vertex: polynomial string}}."""
    matrix = gkm.weighted_restrictions(b, k, n)
    return {
        str(i): {
            str(j): entry.render()
            for j, entry in enumerate(row)
            if not entry.is_zero()
        }
        for i, row in enumerate(matrix)
    }
