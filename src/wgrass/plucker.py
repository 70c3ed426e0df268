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
serve only the permutation test.

A permutation sigma of the coordinates is a *Plucker permutation* when
signs t in {+1, -1}^(m+1) exist with t.sigma(z) in Pl(k, n) for every
Plucker point z.

The scopes have a closed form.  With its signs, a Plucker permutation
sigma is a linear map preserving Pl(k, n), so an automorphism of
Gr(k, n).  By Chow's theorem (W.-L. Chow, Ann. of Math. 50, 1949) it is
induced by some g in GL_n, after the duality V -> V^perp (V_lam ->
V_{[n] - lam}) when n = 2k.  It maps coordinate points e_lam to
coordinate points, so g maps coordinate k-spaces, hence coordinate
lines (their intersections, as k < n), to coordinate ones: g is
monomial.  So sigma is induced by a column permutation phi in S_n,
composed with the complement map lam -> [n] - lam if the duality was
used.  Scope ``sn`` is the induced set, and ``full`` adds, when
n = 2k, ``sn`` composed with the complement map.  The tests check this
against the exhaustive search (``tests/reference.py``) on the sizes it
affords.  A search certifies only the witness it returns.

Divisivity and equivalence need no walk.  With b_lam = a + sum_{u in
lam} W_u, the induced sigma_phi presents lam -> b_{phi(lam)}, of data
W o phi.  A divisibility chain is non-increasing, so W o phi is too: a
lam holding u but not u + 1 comes before lam - u + (u + 1).  Swapping
columns of equal W leaves the presented vector fixed, so the W-sorted
candidate decides; the lex-least witness, which a walk meets first,
keeps each tie class ascending: swapping tied u < v with phi(u) > phi(v)
lowers sigma_phi at the lex-first symbol holding exactly one of them,
which holds u.  At n = 2k the complement map reverses lex order (lam_i
-> lam_(m - i)) and commutes with sigma_phi, so i -> m - sigma_phi(i)
has data -W o phi plus a constant: it needs W o phi non-decreasing and
is least when phi reverses each tie class.  Equivalence sorts c, not
1..n, against b, on primitive parts, and certifies as divisivity does.

Membership is decided by lookup, with no linear algebra: a sign
pattern eps is admissible for the pulled-back relation
sum_t c_t z_{sigma r_t} z_{sigma s_t} iff sum_t eps_t c_t z_{sigma r_t}
z_{sigma s_t}, normalized as the generating relations are, is one of
them (``_sign_patterns``).  The test is sufficient: with one
admissible pattern per relation and consistent signs t, every
generating relation vanishes at t.sigma(z), so t.sigma(z) lies in
Pl(k, n).  It is also necessary for every Plucker permutation, which
lies in the closed-form scopes.  There, with the sorting signs of phi,
the exchange relation of head I and tail L pulls back to +-(phi I,
phi L), and with the signs of the Hodge star the complement map takes
it to +-([n] - L, [n] - I): one admissible pattern per relation, all
consistent.  So a permutation is accepted iff it is a Plucker
permutation, whatever the caller passes.

The admissible patterns depend only on the term tuple
((c_t, sigma r_t, sigma s_t), ...), so they are memoised on it in a
bounded cache.  A backtracking search, run from an explicit stack,
picks one pattern per relation, keeping the constraints t_r t_s = eps_t
consistent in a parity union-find with an undo log; the first
consistent choice is a proof, and the signs are read off the
union-find.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from . import symbols
from .errors import (
    CapacityError,
    InternalInconsistencyError,
    InvalidWeightVectorError,
    NotDivisiveError,
    ParameterError,
)

SN_SCOPE_LIMIT = 8  # sn scope walks all n! column permutations while n <= 8
SCOPES = ("auto", "identity", "sn", "full")  # searches: the ladder, or one rung
CERTIFY_LIMIT = 252  # largest C(n, k) whose relations are built; n <= 10 fits
FACTOR_LIMIT = 10**6  # trial divisors tried by prime_factors


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


class PluckerRelation(NamedTuple):
    """A quadratic relation sum_t coefs[t] * z_{pairs[t][0]} z_{pairs[t][1]}."""

    pairs: tuple
    coefs: tuple


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


@lru_cache(maxsize=8, typed=True)
def generate_relations(k: int, n: int) -> tuple:
    """Deduplicated, sign-normalized generating relations for Pl(k, n)."""
    if symbols.count(k, n) > CERTIFY_LIMIT:
        raise CapacityError(f"relations need C(n, k) <= {CERTIFY_LIMIT}, "
                            f"got {symbols.count(k, n)}")
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
    m1 = symbols.count(k, n)  # first, so that True never matches a kn of 1
    if isinstance(b, WeightVector) and b.kn == (k, n):
        return b
    vec = tuple(b)
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
    symbols.check_kn(k, n)  # first, so that True never matches a kn of 1
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
    """Primitive form of a valid b, then divide out primes dividing all
    but one entry.

    The second step only triggers where there are no relations, at k = 1
    and k = n - 1 (projective space): normalize((2, 2, 1), 2, 3) is
    (1, 1, 1).  A valid vector with relations can never have all but one
    entry divisible by a prime.
    """
    vec = list(primitive_part(weight_vector(b, k, n)))
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


class _PermutationContext(NamedTuple):
    """The generating relations at one (k, n), as a tuple and as a set,
    and the pairs (r, s) of their terms."""

    rels: tuple
    members: frozenset
    pairs: frozenset


@lru_cache(maxsize=8, typed=True)
def _permutation_context(k: int, n: int) -> _PermutationContext:
    """Shared data for the permutation predicate, built on first use."""
    rels = generate_relations(k, n)
    pairs = frozenset(pair for rel in rels for pair in rel.pairs)
    return _PermutationContext(rels, frozenset(rels), pairs)


@lru_cache(maxsize=2**15, typed=True)
def _sign_patterns(k: int, n: int, terms: tuple) -> tuple:
    """Sign patterns eps making sum_t eps_t c_t z_(r_t) z_(s_t) a
    generating relation up to scale.

    terms is the pulled-back relation ((c_t, r_t, s_t), ...); patterns are
    kept in product((1, -1), repeat=T) order.
    """
    members = _permutation_context(k, n).members
    admissible = []
    for eps in product((1, -1), repeat=len(terms)):
        signed = {(r, s): e * c for e, (c, r, s) in zip(eps, terms)}
        if _canonical_relation(signed) in members:
            admissible.append(eps)
    return tuple(admissible)


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

    Every pulled-back relation keeps the sign patterns that make it a
    generating relation; a search then picks one pattern per relation
    with consistent constraints t_r t_s = eps_t.
    """
    rels, _, pairs = _permutation_context(k, n)
    m1 = symbols.count(k, n)
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(m1)):
        raise ParameterError(f"not a permutation of 0..{m1 - 1}")
    for r, s in pairs:
        ir, is_ = sigma[r], sigma[s]
        if ((ir, is_) if ir <= is_ else (is_, ir)) not in pairs:
            return None
    options = []
    for rel in rels:
        terms = []
        for (r, s), c in zip(rel.pairs, rel.coefs):
            ir, is_ = sigma[r], sigma[s]
            terms.append((c, ir, is_) if ir <= is_ else (c, is_, ir))
        opts = _sign_patterns(k, n, tuple(terms))
        if not opts:
            return None
        options.append(opts)

    forest = _ParityForest(m1)
    stack = [(0, 0)]  # (next pattern, undo mark) per relation entered
    while 0 < len(stack) <= len(rels):
        nxt, mark = stack.pop()
        idx = len(stack)
        forest.undo(mark)
        if nxt < len(options[idx]):
            stack.append((nxt + 1, mark))
            eps = options[idx][nxt]
            if all(forest.join(r, s, e)
                   for (r, s), e in zip(rels[idx].pairs, eps)):
                stack.append((0, len(forest.log)))
    if not stack:
        return None
    return SignedPermutation(sigma, forest.signs())


def certify(sigma, k: int, n: int) -> SignedPermutation:
    """The sign witness of sigma, a permutation of a closed-form scope;
    a failure contradicts the module docstring's argument."""
    witness = is_plucker_permutation(sigma, k, n)
    if witness is None:
        raise InternalInconsistencyError(
            "induced permutation failed the Plucker predicate"
        )
    return witness


def _sn_induced_permutation(phi, k: int, n: int) -> tuple:
    """The coordinate permutation induced by phi in S_n (phi as 1-based map)."""
    lat = symbols.lattice(k, n)
    index = lat.index
    return tuple(
        index[tuple(sorted(phi[u - 1] for u in sym))] for sym in lat.symbols
    )


@lru_cache(maxsize=8, typed=True)
def _enumerate_cached(k: int, n: int, scope: str) -> tuple:
    """The scope's permutations, uncertified and sorted (module docstring).

    ``sn`` composes induced transpositions: S_m is the union of the cosets
    tau S_(m-1), tau in {id, (1 m), ..., (m-1 m)}."""
    m1 = symbols.count(k, n)
    if scope == "identity":
        return (tuple(range(m1)),)
    if scope == "sn":
        if n > SN_SCOPE_LIMIT:
            raise CapacityError(f"sn scope needs n <= {SN_SCOPE_LIMIT}, got {n}")
        group = [tuple(range(m1))]
        for m in range(2, n + 1):
            taus = []
            for j in range(1, m):
                phi = list(range(1, n + 1))
                phi[j - 1], phi[m - 1] = m, j
                taus.append(_sn_induced_permutation(phi, k, n))
            group += [tuple(tau[x] for x in h) for tau in taus for h in group]
        return tuple(sorted(set(group)))
    if scope == "full":
        sn = _enumerate_cached(k, n, "sn")
        if n != 2 * k:
            return sn
        lat = symbols.lattice(k, n)
        complement = [
            lat.index[tuple(u for u in range(1, n + 1) if u not in sym)]
            for sym in lat.symbols
        ]
        dual = {tuple(sigma[c] for c in complement) for sigma in sn}
        return tuple(sorted(dual.union(sn)))
    raise ParameterError(f"unknown scope {scope!r}")


def enumerate_plucker_permutations(k: int, n: int, scope: str = "full") -> list:
    """All Plucker permutations in the requested scope, with witnesses.

    scope "sn" lists those induced by column permutations in S_n,
    "full" every Plucker permutation (``sn``, plus its composites with
    the complement map when n = 2k), and "identity" the identity alone.
    Every one listed is certified, so (k, n) must fit CERTIFY_LIMIT.
    """
    symbols.check_kn(k, n)
    generate_relations(k, n)  # raises CapacityError before any listing
    return [certify(sigma, k, n) for sigma in _enumerate_cached(k, n, scope)]


def scope_ladder(k: int, n: int, scope: str = "auto"):
    """Plain permutation tuples in the search order identity, sn, full,
    each scope made when the search reaches it and none certified.

    An unknown scope raises on the call, before any search begins."""
    if scope not in SCOPES:
        raise ParameterError(f"unknown scope {scope!r}")
    ladder = ["identity", "sn", "full"] if scope == "auto" else [scope]
    return _first_occurrences(k, n, ladder)


def _first_occurrences(k: int, n: int, ladder: list):
    seen = set()
    for sc in ladder:
        for sigma in _enumerate_cached(k, n, sc):
            if sigma not in seen:
                seen.add(sigma)
                yield sigma


def _permuted(vec, sigma) -> tuple:
    """(sigma vec)_i = vec_{sigma(i)}, sigma taken as given."""
    return tuple(vec[j] for j in sigma)


def apply_permutation(sigma, b, k: int, n: int) -> tuple:
    """(sigma b)_i = b_{sigma(i)}; sigma must be a Plucker permutation."""
    if isinstance(sigma, SignedPermutation):
        perm = sigma.perm
    else:
        witness = is_plucker_permutation(tuple(sigma), k, n)
        if witness is None:
            raise ParameterError("not a Plucker permutation")
        perm = witness.perm
    return _permuted(check_weight_vector_shape(b, k, n), perm)


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


def _w_order(vec, k: int, n: int) -> list:
    """The columns 1..n by W non-increasing, ties by ascending column."""
    W = _wa_candidate(vec, k, n).W
    return sorted(range(1, n + 1), key=lambda u: -W[u - 1])


def _first_witness(k: int, n: int, scope: str, src: list, dst, hit):
    """The scope ladder's first sigma with hit(sigma), certified, or None;
    the candidates take phi(dst[i]) = src[i], or src[n - 1 - i]."""
    if scope not in SCOPES:
        raise ParameterError(f"unknown scope {scope!r}")
    m1 = symbols.count(k, n)
    found = [tuple(range(m1))]
    if scope != "identity":
        found = [_sn_induced_permutation(
            [v for _, v in sorted(zip(dst, src))], k, n)]
    if n == 2 * k and scope in ("auto", "full"):
        sigma = _sn_induced_permutation(
            [v for _, v in sorted(zip(dst, src[::-1]))], k, n)
        found.append(tuple(m1 - 1 - i for i in sigma))
    found = [sigma for sigma in found if hit(sigma)]
    if scope == "full":
        found.sort()
    return certify(found[0], k, n) if found else None


def is_divisive(b, k: int, n: int, scope: str = "auto"):
    """A Plucker permutation sigma with b_{sigma(i)} | b_{sigma(i-1)}, or None."""
    vec = weight_vector(b, k, n)
    return _first_witness(
        k, n, scope, _w_order(vec, k, n), range(1, n + 1),
        lambda sigma: is_descending_divisible(_permuted(vec, sigma)),
    )


def divisive_presentation(b, k: int, n: int, scope: str = "auto"):
    """(sigma, sigma b) with sigma b divisibility-descending, or None."""
    witness = is_divisive(b, k, n, scope)
    if witness is None:
        return None
    return witness, apply_permutation(witness, b, k, n)


def equivalence(b, c, k: int, n: int, scope: str = "auto"):
    """(sigma, r) with c = r * sigma(b) in the scope, or None.

    A None answer at restricted scope means "not found in scope", not a
    disproof.
    """
    from fractions import Fraction  # here, so other commands never load it

    vb = weight_vector(b, k, n)
    vc = weight_vector(c, k, n)
    pb = primitive_part(vb)
    pc = primitive_part(vc)
    r = Fraction(gcd(*vc), gcd(*vb))
    witness = _first_witness(
        k, n, scope, _w_order(pb, k, n), _w_order(pc, k, n),
        lambda sigma: _permuted(pb, sigma) == pc,
    )
    return None if witness is None else (witness, r)
