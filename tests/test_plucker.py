"""Plucker relations, weight vectors, permutations."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest

import reference
from wgrass import cli, linalg, plucker, symbols
from wgrass.errors import CapacityError, InvalidWeightVectorError, ParameterError


def rank(mat):
    return len(linalg.rref(mat)[1])


def _fraction_det(mat):
    # plain Gaussian elimination over Fraction
    rows = [[Fraction(x) for x in row] for row in mat]
    n = len(rows)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def sample_plucker_point(k, n, seed):
    """Minor vector of a random integer k x n matrix, all minors nonzero."""
    syms = symbols.lattice(k, n).symbols
    rng = random.Random(seed)
    while True:
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        minors = []
        for sym in syms:
            sub = [[row[c - 1] for c in sym] for row in mat]
            minors.append(int(_fraction_det(sub)))
        if all(minors):
            return tuple(minors)


def test_relation_2_4_exact():
    rels = plucker.generate_relations(2, 4)
    assert len(rels) == 1
    assert reference.render_relation(rels[0]) == "+z0*z5 -z1*z4 +z2*z3"


def test_relation_count_2_5():
    assert len(plucker.generate_relations(2, 5)) == 5


def test_relation_span_matches_quadric_kernel():
    # independent oracle: the span of the relations must equal the space of
    # quadratic forms vanishing on sampled points of Pl(k, n); (3, 5) has
    # 2k > n, where the relations come from the same construction
    for (k, n) in [(2, 4), (2, 5), (3, 5)]:
        syms = symbols.enumerate_symbols(k, n)
        m1 = len(syms)
        pairs = [(r, s) for r in range(m1) for s in range(r, m1)]
        pos = {p: t for t, p in enumerate(pairs)}
        rows = []
        for seed in range(len(pairs) + 5):
            z = sample_plucker_point(k, n, 1000 + seed)
            rows.append([z[r] * z[s] for r, s in pairs])
        kernel_dim = len(pairs) - rank(rows)
        rels = plucker.generate_relations(k, n)
        rel_rows = []
        for rel in rels:
            row = [Fraction(0)] * len(pairs)
            for pair, c in zip(rel.pairs, rel.coefs):
                row[pos[pair]] = Fraction(c)
            rel_rows.append(row)
        assert rank(rel_rows) == len(rels) == kernel_dim


RELATION_DIGESTS = {
    (3, 5): "825f36d21be4a8c3c3b1ffb9095c39fe8be10e9fb85bc00bdb7bf959bae53799",
    (4, 6): "126c5cf868d86fdd3943e7cdb5070655f97e815f358c7e53478d32bf45f4596b",
    (4, 7): "a93062dc5aea7e18d73b93d3592e2be897be1d9b8f10eef974066e6e0c35756e",
    (5, 7): "424b154ac65a604a3cbbc4948f7691dd617f4f0758ea27a1f0002418e8decc9d",
    (5, 8): "1d71ef04625fac767dd88b40c7a32869e6fadb9037a33a758cecc34a8e94b39c",
}


def test_relations_pinned_for_2k_above_n():
    # the relations and their order, pinned where 2k > n
    for (k, n), want in RELATION_DIGESTS.items():
        rels = plucker.generate_relations(k, n)
        text = repr([(rel.pairs, rel.coefs) for rel in rels])
        assert hashlib.sha256(text.encode()).hexdigest() == want, (k, n)


def test_relations_projective_space_empty():
    assert plucker.generate_relations(1, 4) == ()
    assert plucker.generate_relations(3, 4) == ()


def test_membership_examples():
    e0 = [1] + [0] * 5
    assert reference.is_plucker_point(e0, 2, 4)
    assert not reference.is_plucker_point([1] * 6, 2, 4)
    # with z1 = 0 the single relation evaluates to 1 - 0 + 1 = 2
    assert not reference.is_plucker_point([1, 0, 1, 1, 1, 1], 2, 4)
    with pytest.raises(ParameterError):
        reference.is_plucker_point([0] * 6, 2, 4)


def test_sampled_points_are_members():
    for (k, n) in [(2, 4), (2, 5), (3, 5)]:
        for seed in range(5):
            z = sample_plucker_point(k, n, seed)
            assert reference.is_plucker_point(z, k, n)
            assert all(z)


def test_sample_points_pinned():
    # the integer minors are the same points the screen always sampled:
    # same seeds, same draws, same retries (digest taken before the
    # determinant went fraction-free)
    digest = hashlib.sha256()
    for k, n in [(2, 4), (2, 5), (3, 5)]:
        for seed in range(17, 67):
            z = sample_plucker_point(k, n, seed)
            assert all(type(x) is int for x in z)
            digest.update(repr(z).encode())
    assert digest.hexdigest() == (
        "be999fc46fcddb012c8a373cb24d0ee21136d1099da6d87907b5f79bd2153828"
    )


def test_validate_weight_vector():
    assert plucker.validate_weight_vector([5, 1, 4, 3, 6, 2], 2, 4)
    assert plucker.validate_weight_vector([1] * 10, 2, 5)
    assert not plucker.validate_weight_vector([1, 1, 1, 1, 1, 2], 2, 4)
    with pytest.raises(ParameterError):
        plucker.validate_weight_vector([1, 2], 2, 4)
    with pytest.raises(ParameterError):
        plucker.validate_weight_vector([1, 1, 1, 1, 1, 0], 2, 4)


def test_symbolic_scaling_invariance():
    # for valid b, each relation evaluated on (t^{b_i} z_i) collects into a
    # single power of t, for every sampled point; an invalid vector fails
    def orbit_stays(b, k, n, seeds):
        rels = plucker.generate_relations(k, n)
        for seed in range(seeds):
            z = sample_plucker_point(k, n, 4000 + seed)
            for rel in rels:
                by_power = {}
                for (r, s), c in zip(rel.pairs, rel.coefs):
                    p = b[r] + b[s]
                    by_power[p] = by_power.get(p, Fraction(0)) + c * z[r] * z[s]
                if any(v for v in by_power.values()):
                    return False
        return True

    assert orbit_stays((5, 1, 4, 3, 6, 2), 2, 4, seeds=50)
    assert orbit_stays((2, 2, 2, 1, 1, 1), 2, 4, seeds=50)
    assert not orbit_stays((1, 1, 1, 1, 1, 2), 2, 4, seeds=3)


def test_solve_wa_worked_instance():
    sol = plucker.solve_wa([5, 1, 4, 3, 6, 2], 2, 4)
    assert sol.W == (1, 3, -1, 2) and sol.a == 1


def test_solve_wa_constant_vector():
    sol = plucker.solve_wa([1] * 6, 2, 4)
    assert sol.W == (0, 0, 0, 0) and sol.a == 1


def test_solve_wa_integer_despite_fractional_naive_route():
    # the a = 1 route would give half-integer W here; a = 2 is integral
    sol = plucker.solve_wa([5, 1, 4, 4, 7, 3], 2, 4)
    assert sol.a == 2 and sol.W == (0, 3, -1, 2)
    assert plucker.weights_from_wa(sol.W, sol.a, 2, 4) == (5, 1, 4, 4, 7, 3)


def test_solve_wa_rejects_invalid():
    with pytest.raises(InvalidWeightVectorError):
        plucker.solve_wa([1, 1, 1, 1, 1, 2], 2, 4)


def test_solve_wa_projective_space():
    # no relations for k = 1: every positive vector is valid
    b = (3, 2, 5)
    assert plucker.validate_weight_vector(b, 1, 3)
    sol = plucker.solve_wa(b, 1, 3)
    assert sol.a == 1 and sol.W == (2, 1, 4)
    assert plucker.weights_from_wa(sol.W, sol.a, 1, 3) == b


def test_wa_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(40):
        k, n = rng.choice([(2, 4), (2, 5), (3, 5)])
        W = tuple(rng.randint(0, 6) for _ in range(n))
        a = rng.randint(1, k)
        b = plucker.weights_from_wa(W, a, k, n)
        sol = plucker.solve_wa(b, k, n)
        assert plucker.weights_from_wa(sol.W, sol.a, k, n) == b


# every size with relations up to (4, 8), and (1, 4), (3, 4) without
VALIDITY_SIZES = ((1, 4), (3, 4), (2, 4), (2, 5), (3, 5), (2, 6), (3, 6),
                  (4, 6), (2, 7), (3, 7), (4, 8))


def _seeded_wa_vectors(k, n, rng, count):
    """(b, a, W rational) for b = a + sum_{u in lam} W_u, every entry >= 1.

    Every other draw shifts all of W by c/k, which keeps b integral; a
    is the smallest value that keeps b positive plus 0..3, so it is <= 0
    whenever every W-sum is above 1.
    """
    syms = symbols.enumerate_symbols(k, n)
    out = []
    for t in range(count):
        shift = Fraction(rng.randrange(1, k + 1), k) if t % 2 else 0
        W = [rng.randint(-3, 6) + shift for _ in range(n)]
        sums = [sum(W[u - 1] for u in sym) for sym in syms]
        a = 1 - min(sums) + rng.randint(0, 3)
        out.append(([int(a + x) for x in sums], a, shift.denominator > 1))
    return out


def test_validity_matches_the_relation_walk():
    # on (W, a) vectors and on each with one entry moved by +-1
    rng = random.Random(23)
    nonpositive_a = rational_w = 0
    for k, n in VALIDITY_SIZES:
        for b, a, rational in _seeded_wa_vectors(k, n, rng, 12):
            nonpositive_a += a <= 0
            rational_w += rational
            assert plucker.validate_weight_vector(b, k, n)
            assert reference.reference_validate(b, k, n)
            i = rng.randrange(len(b))
            for step in (1, -1):
                moved = b[:i] + [b[i] + step] + b[i + 1:]
                if moved[i] < 1:
                    continue
                got = plucker.validate_weight_vector(moved, k, n)
                assert got == reference.reference_validate(moved, k, n)
                # with relations, no single entry can move alone
                assert got == (k == 1 or k == n - 1), (k, n, moved)
    assert nonpositive_a > 20 and rational_w > 20


def test_every_positive_vector_is_valid_without_relations():
    rng = random.Random(29)
    for n in range(2, 8):
        for k in {1, n - 1}:
            for _ in range(30):
                b = [rng.randint(1, 40) for _ in range(symbols.count(k, n))]
                assert plucker.validate_weight_vector(b, k, n)
                assert reference.reference_validate(b, k, n)
                sol = plucker.solve_wa(b, k, n)
                assert 1 <= sol.a <= k
                assert plucker.weights_from_wa(sol.W, sol.a, k, n) == tuple(b)


def _rank_mod_p(rows, p=1_000_000_007):
    """Rank over Z/p of sparse integer rows ({column: value})."""
    pivots = {}  # column -> its row, 1 there and 0 at every other pivot
    for row in rows:
        vec = {c: x % p for c, x in row.items() if x % p}
        for c in [c for c in vec if c in pivots]:
            x = vec[c]
            for col, y in pivots[c].items():
                vec[col] = (vec.get(col, 0) - x * y) % p
        vec = {c: x for c, x in vec.items() if x}
        if not vec:
            continue
        c0 = min(vec)
        inv = pow(vec[c0], -1, p)
        vec = {c: x * inv % p for c, x in vec.items()}
        for other in pivots.values():
            x = other.get(c0)
            if x:
                for col, y in vec.items():
                    other[col] = (other.get(col, 0) - x * y) % p
                for col in [col for col, v in other.items() if not v]:
                    del other[col]
        pivots[c0] = vec
    return len(pivots)


def test_pair_sum_constraints_have_nullity_n():
    # b_{r_0} + b_{s_0} = b_{r_t} + b_{s_t} for every relation and t.  Rank
    # mod p is at most the rank over Q, and the (W, a) vectors fill n
    # dimensions of the solutions, so rank C(n, k) - n mod p proves that
    # over Q the solutions are exactly the (W, a) vectors
    for n in range(4, 9):
        for k in range(2, n - 1):
            rows = []
            for rel in plucker.generate_relations(k, n):
                (r0, s0), *rest = rel.pairs
                for r, s in rest:
                    row = {}
                    for col, x in ((r0, 1), (s0, 1), (r, -1), (s, -1)):
                        row[col] = row.get(col, 0) + x
                    rows.append(row)
            assert _rank_mod_p(rows) == symbols.count(k, n) - n, (k, n)


def test_permutation_counts_2_4():
    full = plucker.enumerate_plucker_permutations(2, 4, "full")
    sn = plucker.enumerate_plucker_permutations(2, 4, "sn")
    assert len(full) == 48
    assert len(sn) == 24
    perms_full = {w.perm for w in full}
    assert {w.perm for w in sn} <= perms_full
    assert tuple(range(6)) in perms_full


def test_witness_signs_act_on_samples():
    for w in plucker.enumerate_plucker_permutations(2, 4, "full"):
        for seed in range(3):
            z = sample_plucker_point(2, 4, 300 + seed)
            image = [w.signs[i] * z[w.perm[i]] for i in range(6)]
            assert reference.is_plucker_point(image, 2, 4)


def test_group_closure_2_4():
    perms = {w.perm for w in plucker.enumerate_plucker_permutations(2, 4, "full")}
    rng = random.Random(17)
    pool = sorted(perms)
    for _ in range(100):
        a = rng.choice(pool)
        b = rng.choice(pool)
        composed = tuple(a[b[i]] for i in range(6))
        inverse = tuple(sorted(range(6), key=lambda i: a[i]))
        assert composed in perms
        assert inverse in perms


def test_full_scope_2_5_is_the_induced_group():
    # the relation pairing at (2, 5) is the disjointness (Kneser) graph on
    # 2-subsets of [5], whose automorphism group is exactly the column
    # group S_5; full scope therefore finds nothing beyond the induced set
    full = plucker.enumerate_plucker_permutations(2, 5, "full")
    sn = plucker.enumerate_plucker_permutations(2, 5, "sn")
    assert len(full) == len(sn) == 120
    assert {w.perm for w in full} == {w.perm for w in sn}


def test_witnesses_pinned():
    # every witness (perm and signs) in enumeration order, then the
    # presentation of a divisive vector that needs a non-identity induced
    # permutation at (2,6); digest taken before the integer rewrite
    digest = hashlib.sha256()
    for k, n, scope in ((2, 4, "full"), (2, 4, "sn"), (2, 5, "full"), (3, 5, "sn")):
        for w in plucker.enumerate_plucker_permutations(k, n, scope):
            digest.update(repr((w.perm, w.signs)).encode())
    b = plucker.weights_from_wa((0, 0, 0, 0, 0, 3), 1, 2, 6)
    w = plucker.is_divisive(b, 2, 6)
    digest.update(repr((w.perm, w.signs)).encode())
    assert digest.hexdigest() == (
        "f5dd1180263bb3609a3c8d754985d0b9ba11777479066e159ed5e89f633198d0"
    )


def _induced(k, n):
    return sorted({plucker._sn_induced_permutation(phi, k, n)
                   for phi in permutations(range(1, n + 1))})


def _pulled_back(sigma, k, n):
    """The term tuple of each relation pulled back by sigma."""
    return [tuple((c, *sorted((sigma[r], sigma[s])))
                  for (r, s), c in zip(rel.pairs, rel.coefs))
            for rel in plucker.generate_relations(k, n)]


def test_predicate_answers_pinned():
    # answers (rejections included) on seeded shuffles, induced
    # permutations and induced ones with two entries swapped, then every
    # induced permutation at (2,6); digest taken on the two-stage
    # predicate (sampled sign screen, then the span confirmation)
    rng = random.Random(41)
    digest = hashlib.sha256()
    for k, n in [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6)]:
        induced = _induced(k, n)
        for _ in range(60):
            shuffled = list(induced[0])
            rng.shuffle(shuffled)
            swapped = list(rng.choice(induced))
            i, j = rng.sample(range(len(swapped)), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            for sigma in (shuffled, rng.choice(induced), swapped):
                w = plucker.is_plucker_permutation(sigma, k, n)
                digest.update(repr((k, n, tuple(sigma),
                                    None if w is None else w.signs)).encode())
    for w in plucker.enumerate_plucker_permutations(2, 6, "sn"):
        digest.update(repr((w.perm, w.signs)).encode())
    assert digest.hexdigest() == (
        "e31a437fdcd2ff1f3cec40fae1d90726c042bf5142675c883f137a8b0d0ea87d"
    )


def test_sign_screen_matches_fraction_evaluation():
    # the memoised lookup against dense Fraction reduction, on the
    # pulled-back relations of induced permutations and on term tuples
    # mixed from several relations; admissible patterns vanish on samples
    rng = random.Random(23)
    for k, n in [(2, 5), (3, 5)]:
        ctx = plucker._permutation_context(k, n)
        pairs = sorted(ctx.pairs)
        points = [sample_plucker_point(k, n, 500 + seed)
                  for seed in range(5)]
        induced = _induced(k, n)
        tuples = []
        for sigma in [rng.choice(induced) for _ in range(8)]:
            tuples += _pulled_back(sigma, k, n)
        for _ in range(40):
            tuples.append(tuple((rng.choice((1, -1)), *pair)
                                for pair in rng.sample(pairs, 3)))
        hits = 0
        outcomes = set()
        for terms in tuples + tuples[: 4 * len(ctx.rels)]:
            expected = reference.reference_sign_patterns(k, n, terms)
            before = plucker._sign_patterns.cache_info().hits
            got = plucker._sign_patterns(k, n, terms)
            hits += plucker._sign_patterns.cache_info().hits - before
            assert got == expected
            for eps, z in product(got, points):
                assert not sum(e * c * z[r] * z[s]
                               for e, (c, r, s) in zip(eps, terms))
            outcomes.add(bool(got))
        assert hits >= 4 * len(ctx.rels)
        assert outcomes == {True, False}


# sizes the exhaustive reference search affords
FULL_SIZES = ([(1, n) for n in range(2, 9)] + [(n - 1, n) for n in range(3, 9)]
              + [(2, 4), (2, 5), (3, 5)])


@pytest.mark.parametrize("k, n", FULL_SIZES)
def test_closed_form_scopes_match_the_search(k, n):
    # Chow's closed form (sn, plus its complement composite at n = 2k)
    # against the exhaustive pair-structure search, witnesses included
    found = reference.reference_full_scope(k, n)
    assert plucker.enumerate_plucker_permutations(k, n, "full") == found
    sn = plucker.enumerate_plucker_permutations(k, n, "sn")
    if n == 2 * k and k > 1:
        assert len(sn) == len(found) // 2
        assert set(sn) < set(found)
    else:
        assert sn == found


def test_lookup_matches_the_span_reference(monkeypatch):
    # pattern lists and witnesses equal those of the span test, on every
    # full permutation at FULL_SIZES and on the complement composites at
    # (3, 6); the answers are equal on seeded non-Plucker permutations
    cases = [(k, n, sigma) for k, n in FULL_SIZES
             for sigma in plucker._enumerate_cached(k, n, "full")]
    composites = sorted(set(plucker._enumerate_cached(3, 6, "full"))
                        - set(plucker._enumerate_cached(3, 6, "sn")))
    assert len(composites) == 720
    cases += [(3, 6, sigma) for sigma in composites]
    rng = random.Random(37)
    rejected = []
    for k, n in [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (2, 7), (3, 7)]:
        pool = plucker._enumerate_cached(k, n, "full")
        full = set(pool)
        for _ in range(30):
            shuffled = list(range(symbols.count(k, n)))
            rng.shuffle(shuffled)
            swapped = list(rng.choice(pool))
            i, j = rng.sample(range(len(swapped)), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            rejected += [(k, n, tuple(sigma)) for sigma in (shuffled, swapped)
                         if tuple(sigma) not in full]
    assert len(rejected) > 300
    span_patterns = reference.reference_sign_patterns
    terms = {(k, n, t) for k, n, sigma in cases
             for t in _pulled_back(sigma, k, n)}
    for k, n, t in sorted(terms):
        assert plucker._sign_patterns(k, n, t) == span_patterns(k, n, t)
    lookup = [plucker.is_plucker_permutation(sigma, k, n)
              for k, n, sigma in cases + rejected]
    monkeypatch.setattr(plucker, "_sign_patterns", span_patterns)
    span = [plucker.is_plucker_permutation(sigma, k, n)
            for k, n, sigma in cases + rejected]
    assert lookup == span
    assert None not in lookup[: len(cases)]
    assert set(lookup[len(cases):]) == {None}


def test_permutation_caches_are_bounded():
    # a process that certifies at more sizes than the bound keeps at
    # most the bound in each cache of the predicate
    caches = (plucker.generate_relations, plucker._permutation_context,
              plucker._sign_patterns)
    for cache in caches:
        cache.cache_clear()
    sizes = ([(2, n) for n in range(4, 8)] + [(3, n) for n in range(5, 8)]
             + [(4, 6), (4, 7), (5, 7)])
    assert len(sizes) > plucker._permutation_context.cache_info().maxsize
    for k, n in sizes:
        phi = (2, 1) + tuple(range(3, n + 1))
        sigma = plucker._sn_induced_permutation(phi, k, n)
        assert plucker.certify(sigma, k, n).perm == sigma
    assert plucker._permutation_context.cache_info().misses == len(sizes)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_full_scope_at_1_9_raises_the_sn_capacity_error():
    # C(9, 1) = 9 passes the full-scope guard; the sn guard then refuses
    with pytest.raises(CapacityError, match=r"^sn scope needs n <= 8, got 9$"):
        plucker.enumerate_plucker_permutations(1, 9, "full")


def test_certificate_depth_is_not_bounded_by_the_recursion_limit():
    # (3, 7) has 210 relations; the search holds them on its own stack
    k, n = 3, 7
    assert len(plucker.generate_relations(k, n)) == 210
    plucker._permutation_context(k, n)
    sigma = plucker._sn_induced_permutation((2, 1, 3, 4, 5, 6, 7), k, n)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        witness = plucker.is_plucker_permutation(sigma, k, n)
    finally:
        sys.setrecursionlimit(limit)
    assert witness is not None and witness.perm == sigma


def test_searches_certify_only_the_returned_witness(monkeypatch, capsys):
    calls = []
    check = plucker.is_plucker_permutation

    def counting(sigma, k, n):
        calls.append(sigma)
        return check(sigma, k, n)

    monkeypatch.setattr(plucker, "is_plucker_permutation", counting)
    assert cli.main(["perms", "--k", "2", "--n", "4", "--scope", "full"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 48
    assert len(calls) == 48
    # a failing classify tests its sn and complement candidates, and
    # returns no witness, so it certifies nothing
    calls.clear()
    argv = ["classify", "[1,1,1,1,1,1]", "[5,1,4,3,6,2]", "--k", "2", "--n", "4"]
    assert cli.main(argv) == cli.EXIT_NOT_FOUND
    capsys.readouterr()
    assert calls == []
    # divisive passes over the identity and certifies the one witness
    b = plucker.weights_from_wa((0, 0, 0, 0, 0, 3), 1, 2, 6)
    assert cli.main(["divisive", json.dumps(b), "--k", "2", "--n", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["witness"] != list(range(15))
    assert calls == [tuple(out["witness"])]


def test_non_plucker_permutation_rejected():
    # swapping a single pair 0 <-> 1 breaks the monomial pairing at (2, 4)
    sigma = (1, 0, 2, 3, 4, 5)
    assert plucker.is_plucker_permutation(sigma, 2, 4) is None


def test_full_scope_capacity():
    with pytest.raises(CapacityError):
        plucker.enumerate_plucker_permutations(2, 9, "full")


def test_size_guards_run_before_any_lattice(monkeypatch):
    def no_lattice(k, n):
        raise AssertionError(f"lattice({k}, {n}) built before a size guard")

    monkeypatch.setattr(symbols, "lattice", no_lattice)
    with pytest.raises(CapacityError):
        plucker.enumerate_plucker_permutations(8, 16, "full")
    with pytest.raises(ParameterError):
        plucker.check_weight_vector_shape([1], 10, 20)
    assert next(plucker.scope_ladder(8, 16)) == tuple(range(12870))
    assert len(plucker.weights_from_wa((0,) * 16, 1, 8, 16)) == 12870


def test_apply_permutation_examples():
    ident = tuple(range(6))
    b = (5, 1, 4, 3, 6, 2)
    assert plucker.apply_permutation(ident, b, 2, 4) == b
    swap = (5, 1, 2, 3, 4, 0)
    got = plucker.apply_permutation(swap, (2, 6, 6, 2, 2, 6), 2, 4)
    assert got == (6, 6, 6, 2, 2, 2)
    with pytest.raises(ParameterError):
        plucker.apply_permutation((1, 0, 2, 3, 4, 5), b, 2, 4)


def test_is_divisive_examples():
    w = plucker.is_divisive((2, 6, 6, 2, 2, 6), 2, 4)
    assert w is not None
    image = plucker.apply_permutation(w, (2, 6, 6, 2, 2, 6), 2, 4)
    assert plucker.is_descending_divisible(image)
    assert plucker.is_divisive((1,) * 6, 2, 4).perm == tuple(range(6))
    assert plucker.is_divisive((5, 1, 4, 3, 6, 2), 2, 4) is None


def test_prime_factors_bound():
    assert plucker.prime_factors(360) == {2, 3, 5}
    assert plucker.prime_factors(1) == set()
    p, q = 999983, 1000003  # primes on either side of the divisor bound
    assert p <= plucker.FACTOR_LIMIT < q
    # no divisor up to the bound: a cofactor <= bound^2 is prime
    assert plucker.prime_factors(2 * p * p) == {2, p}
    with pytest.raises(CapacityError):
        plucker.prime_factors(q * q)


def test_normalize():
    assert plucker.normalize((2, 2, 2, 2, 2, 2), 2, 4) == (1,) * 6
    assert plucker.normalize((5, 1, 4, 3, 6, 2), 2, 4) == (5, 1, 4, 3, 6, 2)
    # projective-space normalization divides the divisible entries
    assert plucker.normalize((1, 2), 1, 2) == (1, 1)
    assert plucker.normalize((1, 2, 4), 1, 3) == (1, 1, 2)
    assert plucker.normalize((4, 2, 2), 1, 3) == (2, 1, 1)
    # and so does k = n - 1, which has no relations either
    assert plucker.normalize((2, 2, 1), 2, 3) == (1, 1, 1)
    # b is validated first: a wrong length or a zero entry raises
    for bad, k, n in [((6, 4, 2), 5, 9), ((0, 0), 1, 2)]:
        with pytest.raises(ParameterError):
            plucker.normalize(bad, k, n)


def test_equivalence():
    b = (2, 6, 6, 2, 2, 6)
    found = plucker.equivalence(b, tuple(3 * x for x in b), 2, 4)
    assert found is not None
    w, r = found
    assert r == 3 and w.perm == tuple(range(6))
    found = plucker.equivalence(b, (6, 6, 6, 2, 2, 2), 2, 4)
    assert found is not None
    w, r = found
    assert plucker.apply_permutation(w, b, 2, 4) == (6, 6, 6, 2, 2, 2)
    assert r == 1
    assert plucker.equivalence((1,) * 6, (5, 1, 4, 3, 6, 2), 2, 4) is None


# k = 1, k = n - 1, n = 2k (with k = 1 and k >= 2) and neither
CENSUS_SIZES = [(1, 2), (1, 4), (3, 4), (2, 4), (2, 5), (3, 5), (3, 6)]


def _census_vectors(k, n, rng):
    """Seeded (W, a) box vectors with W in [-1, 2]^n and a in [1, k], the
    divisive family beta on the symbols that hold u, and a seeded
    full-scope image of each."""
    box = [b for W in product(range(-1, 3), repeat=n) for a in range(1, k + 1)
           if min(b := plucker.weights_from_wa(W, a, k, n)) >= 1]
    vecs = rng.sample(box, min(len(box), 16))
    syms = symbols.enumerate_symbols(k, n)
    vecs += [tuple(beta if u in sym else 1 for sym in syms)
             for u in (1, n) for beta in (2, 3)]
    pool = plucker._enumerate_cached(k, n, "full")
    return vecs + [plucker._permuted(b, rng.choice(pool)) for b in vecs]


@pytest.mark.parametrize("k, n", CENSUS_SIZES)
def test_w_sorted_witnesses_match_the_ladder(k, n):
    # the closed-form candidates return the scope ladder's first hit,
    # witness and scalar, at every scope: divisivity on the census
    # vectors, equivalence on scaled full-scope images and on pairs
    # that are seldom equivalent
    rng = random.Random(31 * n + k)
    vecs = _census_vectors(k, n, rng)
    pool = plucker._enumerate_cached(k, n, "full")
    sn = set(plucker._enumerate_cached(k, n, "sn"))
    pairs = [(b, tuple(r * x for x in plucker._permuted(b, rng.choice(pool))))
             for b, r in zip(vecs, rng.choices((1, 2, 3), k=len(vecs)))]
    pairs += [(b, rng.choice(vecs)) for b in vecs]
    def kind(witness):
        return "none" if witness is None else "sn" if witness.perm in sn else "dual"

    outcomes = set()
    for scope in plucker.SCOPES:
        for b in vecs:
            found = plucker.is_divisive(b, k, n, scope)
            assert found == reference.reference_divisive(b, k, n, scope), (b, scope)
            outcomes.add(("divisive", kind(found)))
        for b, c in pairs:
            found = plucker.equivalence(b, c, k, n, scope)
            assert found == reference.reference_equivalence(b, c, k, n, scope), (b, c, scope)
            outcomes.add(("equivalence", kind(found and found[0])))
    # hits and misses occur, and at n = 2k > 2 some witness is a
    # complement composite outside sn
    kinds = {"none", "sn", "dual"} if n == 2 * k > 2 else {"none", "sn"}
    assert outcomes == {(what, x) for what in ("divisive", "equivalence")
                        for x in kinds}


def test_adjacent_vectors_of_primitive_vector_are_primitive():
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        k, n = rng.choice([(2, 4), (2, 5)])
        W = tuple(rng.randint(0, 5) for _ in range(n))
        a = rng.randint(1, k)
        b = plucker.primitive_part(plucker.weights_from_wa(W, a, k, n))
        if not reference.is_primitive(b):
            continue
        lat = symbols.lattice(k, n)
        for i, sym in enumerate(lat.symbols):
            # adjacent symbols share exactly k - 1 entries
            adjacent = [
                b[j]
                for j, other in enumerate(lat.symbols)
                if len(set(sym) & set(other)) == k - 1
            ] + [b[i]]
            assert reference.is_primitive(tuple(adjacent))
        checked += 1
