"""
Plucker relations, weight vectors, and Plucker permutations.

The cone Pl(k, n) of decomposable k-vectors in C^(m+1), m+1 = C(n, k),
is cut out by the quadratic exchange relations

    sum_j (-1)^j z_{r_j} z_{s_j} = 0,

one for every head (i_1 < ... < i_{k-1}) and tail (l_0 < ... < l_k),
where symbol r_j sorts (i_1, ..., i_{k-1}, l_j) (with the sorting sign
folded into the coefficient) and s_j is the tail with l_j removed.
The same construction serves every k, 2k > n included.

A weight vector b (positive integers, one per coordinate) is *valid*
when every relation has constant pair-sum b_{r_j} + b_{s_j}; exactly
then the scaling action t.z = (t^{b_i} z_i) preserves Pl(k, n).

Validity is the (W, a) form: b is valid iff b_lam = a + sum_{u in lam}
W_u for some W in Q^n and a in Q.  Such a vector has pair-sum 2a plus
the W-sum over head and tail in every relation.  Conversely, for
2 <= k <= n - 2, S of size k - 2 and a, b, c, d distinct outside S,
the head S + a and tail S + bcd give a three-term relation, so

    b_{Sac} + b_{Sbd} = b_{Sad} + b_{Sbc} = b_{Sab} + b_{Scd}.

With c = u and d = v the first equality reads b_{Sau} - b_{Sav} =
b_{Sbu} - b_{Sbv}: the difference D(u, v) = b_{Tu} - b_{Tv} does not
change when one entry of the (k - 1)-set T (avoiding u, v) is
exchanged.  Such exchanges join every T, so D(u, v) depends on u and v
alone, and D(u, v) + D(v, w) = D(u, w) on a T avoiding all three.
With W_u = W_1 + D(u, 1) a single exchange changes b_lam and
sum_{u in lam} W_u alike, so a = b_lam - sum_{u in lam} W_u is the
same for every lam.  At k = 1 and k = n - 1 there are no relations,
and every positive vector has the form: W_u = b_u - a at k = 1, and
W_u = c - b_{[n] - u} with a = sum_u b_{[n] - u} - k c at k = n - 1.
For an integer b the differences W_u - W_v are integers, and moving
W_1 by 1 moves a by k, so a rational (W, a) exists iff an integer one
with a in [1, k] does.
``_wa_candidate`` reads that one candidate off b in O(C(n, k) k), and
b is valid iff the candidate reproduces it; no relation is built.

``weight_vector`` is the one check every layer calls: it returns a
``WeightVector``, a tuple that records (k, n) and is handed back
unchanged, so a vector passed down through several layers is checked
once.  ``validate_weight_vector`` is the bare predicate it runs, and
``presented_weight_vector`` adds the divisibility-descending order that
the integral model and the structure constants need.  The relations
serve only ``is_plucker_point`` and the permutation test.

A permutation sigma of the coordinates is a *Plucker permutation* when
signs t in {+1, -1}^(m+1) exist with t.sigma(z) in Pl(k, n) for every
Plucker point z.  Membership is decided by one exact integer test, on
data built once per (k, n) on first use (``_permutation_context``):
a signed pulled-back relation sum_t eps_t c_t z_{sigma r_t} z_{sigma s_t}
vanishes on Pl(k, n) iff it lies in the span of the generating
relations (``_PermutationContext.in_span``).

For each pulled-back relation the admissible sign patterns eps are
those passing the span test.  They depend only on the term tuple
((c_t, sigma r_t, sigma s_t), ...), so the context memoises them.  A
backtracking search picks one pattern per relation, keeping the
constraints t_r t_s = eps_t consistent in a parity union-find with an
undo log; the first consistent choice is a proof, and the signs are
read off the union-find.

Full scope reuses the witnesses of the S_n-induced permutations, which
preserve the pair structure and so are a subset of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm
from typing import NamedTuple

from . import linalg, symbols
from .errors import (
    CapacityError,
    InternalInconsistencyError,
    InvalidWeightVectorError,
    NotDivisiveError,
    ParameterError,
)

FULL_SCOPE_LIMIT = 10  # full permutation search allowed while m+1 <= 10
SN_SCOPE_LIMIT = 8  # sn scope walks all n! column permutations while n <= 8
FACTOR_LIMIT = 10**6  # trial divisors tried by prime_factors


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


class PluckerRelation(NamedTuple):
    """A quadratic relation sum_t coefs[t] * z_{pairs[t][0]} z_{pairs[t][1]}."""

    pairs: tuple
    coefs: tuple

    def evaluate(self, z):
        total = 0
        for (r, s), c in zip(self.pairs, self.coefs):
            total += c * z[r] * z[s]
        return total

    def render(self) -> str:
        pieces = []
        for (r, s), c in zip(self.pairs, self.coefs):
            sign = "+" if c > 0 else "-"
            pieces.append(f"{sign}z{r}*z{s}")
        return " ".join(pieces)


def _sort_sign(seq) -> tuple:
    """Sorted tuple and the sign of the sorting permutation (0 on repeats)."""
    items = list(seq)
    if len(set(items)) != len(items):
        return tuple(sorted(items)), 0
    inversions = sum(
        1
        for a in range(len(items))
        for b in range(a + 1, len(items))
        if items[a] > items[b]
    )
    return tuple(sorted(items)), (-1) ** inversions


def _canonical_relation(term_map: dict):
    """Normalize a pair->coefficient map into a PluckerRelation or None."""
    items = [(pair, c) for pair, c in sorted(term_map.items()) if c]
    if len(items) < 2:
        return None
    g = gcd(*(c for _, c in items))
    lead = items[0][1]
    flip = -1 if lead < 0 else 1
    pairs = tuple(pair for pair, _ in items)
    coefs = tuple(flip * c // g for _, c in items)
    return PluckerRelation(pairs, coefs)


@lru_cache(maxsize=None)
def generate_relations(k: int, n: int) -> tuple:
    """Deduplicated, sign-normalized generating relations for Pl(k, n)."""
    index = symbols.lattice(k, n).index
    rels = set()
    for head in combinations(range(1, n + 1), k - 1):
        head_set = set(head)
        for tail in combinations(range(1, n + 1), k + 1):
            term_map: dict = {}
            for j, l in enumerate(tail):
                if l in head_set:
                    continue
                sym_r, sign_r = _sort_sign(head + (l,))
                sym_s = tuple(x for x in tail if x != l)
                r, s = index[sym_r], index[sym_s]
                pair = (r, s) if r <= s else (s, r)
                term_map[pair] = term_map.get(pair, 0) + (-1) ** j * sign_r
            rel = _canonical_relation(term_map)
            if rel is not None:
                rels.add(rel)
    return tuple(sorted(rels, key=lambda rel: rel.pairs))


def is_plucker_point(z, k: int, n: int) -> bool:
    """Membership test: all relations vanish (z must be nonzero)."""
    vec = [Fraction(v) for v in z]
    m1 = symbols.count(k, n)
    if len(vec) != m1:
        raise ParameterError(f"coordinate vector must have length {m1}")
    if not any(vec):
        raise ParameterError("the zero vector is excluded from Pl(k, n)")
    return all(rel.evaluate(vec) == 0 for rel in generate_relations(k, n))


# ---------------------------------------------------------------------------
# Weight vectors and (W, a) solutions
# ---------------------------------------------------------------------------


class WeightVector(tuple):
    """A weight vector that passed ``weight_vector`` at ``kn = (k, n)``.

    Only ``weight_vector`` builds one, and it hands one back unchanged,
    so a vector is checked once however many layers it passes through.
    """

    def __new__(cls, values, k: int, n: int):
        self = super().__new__(cls, values)
        self.kn = (k, n)
        return self

    def __getnewargs__(self):
        return (tuple(self), *self.kn)


def check_weight_vector_shape(b, k: int, n: int) -> tuple:
    """b as a tuple of C(n, k) integers >= 1 (booleans excluded).

    A WeightVector of the same (k, n) is handed back unchanged.
    """
    if isinstance(b, WeightVector) and b.kn == (k, n):
        return b
    vec = tuple(b)
    m1 = symbols.count(k, n)
    if len(vec) != m1:
        raise ParameterError(f"weight vector must have length {m1}")
    for x in vec:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ParameterError("weights must be integers >= 1")
    return vec


def validate_weight_vector(b, k: int, n: int) -> bool:
    """True iff every relation has constant pair-sum, that is, iff the
    (W, a) candidate reproduces b (module docstring)."""
    vec = check_weight_vector_shape(b, k, n)
    sol = _wa_candidate(vec, k, n)
    return weights_from_wa(sol.W, sol.a, k, n) == vec


def weight_vector(b, k: int, n: int) -> WeightVector:
    """b checked for shape and constant pair-sums, as a WeightVector.

    The one validation entry point: a bad shape raises ParameterError,
    a failed pair-sum test InvalidWeightVectorError.
    """
    if isinstance(b, WeightVector) and b.kn == (k, n):
        return b
    vec = list(b)
    if not validate_weight_vector(vec, k, n):
        raise InvalidWeightVectorError("not a valid weight vector")
    return WeightVector(vec, k, n)


class WASolution(NamedTuple):
    """Integer exponent data (W, a) reproducing b_i = a + sum_{u in lam_i} w_u."""

    W: tuple
    a: int

    def weight_of(self, sym) -> int:
        return self.a + sum(self.W[u - 1] for u in sym)


def _wa_candidate(vec, k: int, n: int) -> WASolution:
    """The one integer (W, a) with a in [1, k] that can reproduce vec.

    Fixes w_1 via the reference symbol (2, ..., k+1): the congruence
    a = b_ref + sum_j (b_{r_j} - b_{s_j})  (mod k) picks a, then the
    pairwise differences w_1 - w_j follow from single-entry exchanges.
    It reproduces vec exactly when vec is valid.
    """
    index = {sym: i for i, sym in enumerate(symbols.enumerate_symbols(k, n))}

    def difference(j: int) -> int:
        # w_1 - w_j via a symbol containing 1 but not j.
        others = [x for x in range(2, n + 1) if x != j]
        sym_r = tuple(sorted([1] + others[: k - 1]))
        sym_s = symbols.exchange(sym_r, 1, j)
        return vec[index[sym_r]] - vec[index[sym_s]]

    diffs = {j: difference(j) for j in range(2, n + 1)}
    ref = tuple(range(2, k + 2))
    val = vec[index[ref]] + sum(diffs[j] for j in range(2, k + 2))
    a = (val - 1) % k + 1
    w1 = (val - a) // k
    W = [w1] + [w1 - diffs[j] for j in range(2, n + 1)]
    return WASolution(tuple(W), a)


def solve_wa(b, k: int, n: int) -> WASolution:
    """Integer (W, a) with a in [1, k] reproducing the weight vector."""
    return _wa_candidate(weight_vector(b, k, n), k, n)


def weights_from_wa(W, a: int, k: int, n: int) -> tuple:
    """The weight vector induced by exponent data (W, a)."""
    return tuple(a + sum(W[u - 1] for u in sym)
                 for sym in symbols.enumerate_symbols(k, n))


def is_primitive(b) -> bool:
    return gcd(*b) == 1


def primitive_part(b) -> tuple:
    g = gcd(*b)
    return tuple(x // g for x in b)


def prime_factors(x: int) -> set:
    """The primes dividing x >= 1, by trial division up to FACTOR_LIMIT.

    A cofactor left with no divisor up to D = FACTOR_LIMIT is prime when
    it is at most D^2; a larger one raises CapacityError.
    """
    out = set()
    d = 2
    while d * d <= x:
        if d > FACTOR_LIMIT:
            raise CapacityError(
                f"cannot factor {x}: no divisor up to {FACTOR_LIMIT}"
            )
        while x % d == 0:
            out.add(d)
            x //= d
        d += 1
    if x > 1:
        out.add(x)
    return out


def normalize(b, k: int, n: int) -> tuple:
    """Primitive form, then divide out primes dividing all but one entry.

    The second step only triggers for k = 1 (projective space); a valid
    vector with relations can never have all but one entry divisible by
    a prime.
    """
    vec = list(primitive_part(b))
    changed = True
    while changed:
        changed = False
        primes = set()
        for x in vec:
            primes |= prime_factors(x)
        for p in sorted(primes):
            divisible = [i for i, x in enumerate(vec) if x % p == 0]
            if len(divisible) == len(vec) - 1:
                for i in divisible:
                    vec[i] //= p
                changed = True
                break
    return tuple(vec)


# ---------------------------------------------------------------------------
# Plucker permutations
# ---------------------------------------------------------------------------


class SignedPermutation(NamedTuple):
    """A Plucker permutation with a sign witness: z -> (signs_i z_{perm(i)})."""

    perm: tuple
    signs: tuple


class _PermutationContext:
    """Exact data shared by every Plucker-permutation test at one (k, n).

    ``patterns`` memoises the admissible sign patterns on the pulled-back
    term tuple.  ``pivot_rows`` maps each pivot column of the reduced row
    echelon form of the relations to its row, as a sparse dict scaled to
    integers by the common denominator ``scale``.
    """

    def __init__(self, k: int, n: int):
        self.rels = generate_relations(k, n)
        self.m1 = symbols.count(k, n)
        all_pairs = sorted({pair for rel in self.rels for pair in rel.pairs})
        self.pair_pos = {pair: t for t, pair in enumerate(all_pairs)}
        rows = []
        for rel in self.rels:
            row = [0] * len(all_pairs)
            for pair, c in zip(rel.pairs, rel.coefs):
                row[self.pair_pos[pair]] = c
            rows.append(row)
        span_rref, span_pivots = linalg.rref(rows)
        scale = 1
        for row in span_rref[: len(span_pivots)]:
            for x in row:
                scale = lcm(scale, x.denominator)
        self.scale = scale
        self.pivot_rows = {
            c: {col: int(x * scale) for col, x in enumerate(row) if x}
            for row, c in zip(span_rref, span_pivots)
        }
        self.patterns: dict = {}

    def in_span(self, vec: dict) -> bool:
        """Whether vec ({column: int}) lies in the span of the relations.

        In reduced row echelon form v is in the row span iff
        v == sum over pivot columns c of v[c] * row_c, so only the rows
        whose pivot v touches take part.
        """
        scale = self.scale
        residue = {col: scale * x for col, x in vec.items()}
        for c, x in vec.items():
            row = self.pivot_rows.get(c)
            if row is not None and x:
                for col, y in row.items():
                    residue[col] = residue.get(col, 0) - x * y
        return not any(residue.values())


@lru_cache(maxsize=None)
def _permutation_context(k: int, n: int) -> _PermutationContext:
    """Shared exact data for the permutation predicate, built on first use."""
    return _PermutationContext(k, n)


def _sign_patterns(ctx: _PermutationContext, terms: tuple) -> list:
    """Sign patterns eps with sum_t eps_t c_t e_(r_t, s_t) in the span.

    terms is the pulled-back relation ((c_t, r_t, s_t), ...); patterns are
    kept in product((1, -1), repeat=T) order.
    """
    admissible = ctx.patterns.get(terms)
    if admissible is None:
        cols = [ctx.pair_pos[(r, s)] for _, r, s in terms]
        admissible = [
            eps for eps in product((1, -1), repeat=len(terms))
            if ctx.in_span({col: e * c
                            for col, e, (c, _, _) in zip(cols, eps, terms)})
        ]
        ctx.patterns[terms] = admissible
    return admissible


class _ParityForest:
    """Union-find of sign constraints t_r t_s = e, with an undo log.

    ``parity[x]`` is 1 when t_x = -t_parent(x).  Union by size without
    path compression keeps trees shallow and every join undoable.
    """

    def __init__(self, m1: int):
        self.parent = list(range(m1))
        self.parity = [0] * m1
        self.size = [1] * m1
        self.log: list = []

    def _root(self, x: int) -> tuple:
        parent, parity = self.parent, self.parity
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    def join(self, r: int, s: int, e: int) -> bool:
        """Add t_r t_s = e; False when it contradicts the constraints so far."""
        want = 1 if e < 0 else 0
        ra, pa = self._root(r)
        rb, pb = self._root(s)
        if ra == rb:
            return pa ^ pb == want
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ want
        self.size[ra] += self.size[rb]
        self.log.append(rb)
        return True

    def undo(self, mark: int) -> None:
        """Forget every join made since the log had length mark."""
        while len(self.log) > mark:
            rb = self.log.pop()
            self.size[self.parent[rb]] -= self.size[rb]
            self.parent[rb] = rb
            self.parity[rb] = 0

    def signs(self) -> tuple:
        """Signs solving the constraints, +1 at each class's smallest member."""
        first: dict = {}
        out = []
        for x in range(len(self.parent)):
            root, p = self._root(x)
            out.append(1 if first.setdefault(root, p) == p else -1)
        return tuple(out)


def is_plucker_permutation(sigma, k: int, n: int):
    """Sign witness making sigma a Plucker permutation, or None.

    Every pulled-back relation keeps the sign patterns that put it in
    the span of the generating relations; a search then picks one
    pattern per relation with consistent constraints t_r t_s = eps_t.
    """
    ctx = _permutation_context(k, n)
    rels, m1, pair_pos = ctx.rels, ctx.m1, ctx.pair_pos
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(m1)):
        raise ParameterError(f"not a permutation of 0..{m1 - 1}")
    for r, s in pair_pos:
        ir, is_ = sigma[r], sigma[s]
        if ((ir, is_) if ir <= is_ else (is_, ir)) not in pair_pos:
            return None
    options = []
    for rel in rels:
        terms = []
        for (r, s), c in zip(rel.pairs, rel.coefs):
            ir, is_ = sigma[r], sigma[s]
            terms.append((c, ir, is_) if ir <= is_ else (c, is_, ir))
        opts = _sign_patterns(ctx, tuple(terms))
        if not opts:
            return None
        options.append(opts)

    forest = _ParityForest(m1)

    def search(idx: int) -> bool:
        if idx == len(rels):
            return True
        mark = len(forest.log)
        pairs = rels[idx].pairs
        for eps in options[idx]:
            if (all(forest.join(r, s, e) for (r, s), e in zip(pairs, eps))
                    and search(idx + 1)):
                return True
            forest.undo(mark)
        return False

    if not search(0):
        return None
    return SignedPermutation(sigma, forest.signs())


def _sn_induced_permutation(phi, k: int, n: int) -> tuple:
    """The coordinate permutation induced by phi in S_n (phi as 1-based map)."""
    lat = symbols.lattice(k, n)
    index = lat.index
    return tuple(
        index[tuple(sorted(phi[u - 1] for u in sym))] for sym in lat.symbols
    )


def _full_scope_candidates(k: int, n: int):
    """Backtracking enumeration of pair-structure-preserving permutations."""
    ctx = _permutation_context(k, n)
    m1, pairs = ctx.m1, ctx.pair_pos

    sigma = [-1] * m1
    used = [False] * m1

    def consistent(i: int) -> bool:
        for j in range(i):
            a, b = (j, i) if j <= i else (i, j)
            ia, ib = sigma[a], sigma[b]
            img = (ia, ib) if ia <= ib else (ib, ia)
            if ((a, b) in pairs) != (img in pairs):
                return False
        return True

    def rec(i: int):
        if i == m1:
            yield tuple(sigma)
            return
        for v in range(m1):
            if used[v]:
                continue
            sigma[i] = v
            used[v] = True
            if consistent(i):
                yield from rec(i + 1)
            used[v] = False
        sigma[i] = -1

    yield from rec(0)


@lru_cache(maxsize=None)
def _enumerate_cached(k: int, n: int, scope: str) -> tuple:
    m1 = symbols.count(k, n)
    if scope == "identity":
        return (SignedPermutation(tuple(range(m1)), (1,) * m1),)
    if scope == "sn":
        if n > SN_SCOPE_LIMIT:
            raise CapacityError(f"sn scope needs n <= {SN_SCOPE_LIMIT}, got {n}")
        found = {}
        for phi in permutations(range(1, n + 1)):
            sigma = _sn_induced_permutation(phi, k, n)
            if sigma in found:
                continue
            witness = is_plucker_permutation(sigma, k, n)
            if witness is None:
                raise InternalInconsistencyError(
                    "induced permutation failed the Plucker predicate"
                )
            found[sigma] = witness
        return tuple(found[s] for s in sorted(found))
    if scope == "full":
        if m1 > FULL_SCOPE_LIMIT:
            raise CapacityError(
                f"full scope needs m+1 <= {FULL_SCOPE_LIMIT}, got {m1}"
            )
        # Induced permutations preserve the pair structure, so sn is a
        # subset of full; a witness depends only on sigma.
        known = {w.perm: w for w in _enumerate_cached(k, n, "sn")}
        out = []
        for sigma in _full_scope_candidates(k, n):
            witness = known.get(sigma)
            if witness is None:
                witness = is_plucker_permutation(sigma, k, n)
            if witness is not None:
                out.append(witness)
        return tuple(sorted(out, key=lambda w: w.perm))
    raise ParameterError(f"unknown scope {scope!r}")


def enumerate_plucker_permutations(k: int, n: int, scope: str = "full") -> list:
    """All Plucker permutations in the requested scope, with witnesses.

    scope "full" exhausts every coordinate permutation (capacity-capped),
    "sn" only those induced by column permutations in S_n, and
    "identity" the identity alone.
    """
    symbols.check_kn(k, n)
    return list(_enumerate_cached(k, n, scope))


def scope_ladder(k: int, n: int, scope: str = "auto"):
    """Permutations in the search order identity, sn, full, made lazily.

    An unknown scope raises on the call, before any search begins."""
    if scope not in ("auto", "identity", "sn", "full"):
        raise ParameterError(f"unknown scope {scope!r}")
    ladder = [scope]
    if scope == "auto":
        ladder = ["identity", "sn"]
        if symbols.count(k, n) <= FULL_SCOPE_LIMIT:
            ladder.append("full")
    return _first_occurrences(k, n, ladder)


def _first_occurrences(k: int, n: int, ladder: list):
    seen = set()
    for sc in ladder:
        for w in enumerate_plucker_permutations(k, n, sc):
            if w.perm not in seen:
                seen.add(w.perm)
                yield w


def apply_permutation(sigma, b, k: int, n: int) -> tuple:
    """(sigma b)_i = b_{sigma(i)}; sigma must be a Plucker permutation."""
    if isinstance(sigma, SignedPermutation):
        perm = sigma.perm
    else:
        witness = is_plucker_permutation(tuple(sigma), k, n)
        if witness is None:
            raise ParameterError("not a Plucker permutation")
        perm = witness.perm
    vec = check_weight_vector_shape(b, k, n)
    return tuple(vec[perm[i]] for i in range(len(vec)))


def is_descending_divisible(b) -> bool:
    return all(b[i - 1] % b[i] == 0 for i in range(1, len(b)))


def presented_weight_vector(b, k: int, n: int) -> WeightVector:
    """``weight_vector(b, k, n)``, required to be divisibility-descending.

    The integral model and the structure constants run on the divisive
    presentation (b_i | b_{i-1}); anything else raises NotDivisiveError.
    """
    vec = weight_vector(b, k, n)
    if not is_descending_divisible(vec):
        raise NotDivisiveError(
            "needs the divisive presentation b_i | b_{i-1}; "
            "reorder by a divisive witness"
        )
    return vec


def is_divisive(b, k: int, n: int, scope: str = "auto"):
    """A Plucker permutation sigma with b_{sigma(i)} | b_{sigma(i-1)}, or None."""
    vec = weight_vector(b, k, n)
    ladder = scope_ladder(k, n, scope)
    if not is_descending_divisible(sorted(vec, reverse=True)):
        return None
    for witness in ladder:
        if is_descending_divisible(apply_permutation(witness, vec, k, n)):
            return witness
    return None


def divisive_presentation(b, k: int, n: int, scope: str = "auto"):
    """(sigma, sigma b) with sigma b divisibility-descending, or None."""
    witness = is_divisive(b, k, n, scope)
    if witness is None:
        return None
    return witness, apply_permutation(witness, b, k, n)


def equivalence(b, c, k: int, n: int, scope: str = "auto"):
    """(sigma, r) with c = r * sigma(b) over the enumerated scope, or None.

    A None answer at restricted scope means "not found in scope", not a
    disproof.
    """
    vb = weight_vector(b, k, n)
    vc = weight_vector(c, k, n)
    pb = primitive_part(vb)
    pc = primitive_part(vc)
    r = Fraction(gcd(*vc), gcd(*vb))
    for witness in scope_ladder(k, n, scope):
        if apply_permutation(witness, pb, k, n) == pc:
            return witness, r
    return None
