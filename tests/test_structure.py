"""Weighted structure constants: puzzle pipeline vs localization."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest

import reference
from wgrass import gkm, puzzles, structure, symbols
from wgrass.errors import CapacityError, NotDivisiveError
from wgrass.polynomial import Poly
from reference import is_homogeneous, linear_form, positivity_forms

VECTORS_2_4 = [(1,) * 6, (2, 2, 2, 1, 1, 1), (6, 6, 6, 2, 2, 2)]
VECTORS_2_5 = [(1,) * 10, (2, 2, 2, 2, 1, 1, 1, 1, 1, 1)]


def y(i, n=4):
    return Poly.variable(n, i)


def test_context_requires_divisive_presentation():
    with pytest.raises(NotDivisiveError):
        structure.WeightedContext((2, 6, 6, 2, 2, 6), 2, 4)


def test_pieri_power_zero_and_one():
    ctx = structure.context((2, 2, 2, 1, 1, 1), 2, 4)
    lat = ctx.lattice
    for q in range(6):
        assert ctx.pieri_power(q, 0) == {q: Poly.one(4)}
        got = ctx.pieri_power(q, 1)
        expected = {}
        head = linear_form(4, lat.symbols[0]) - Fraction(
            ctx.b[0], ctx.b[q]
        ) * linear_form(4, lat.symbols[q])
        if not head.is_zero():
            expected[q] = head
        for j in lat.arrows[q]:
            expected[j] = Poly.const(4, Fraction(ctx.b[0], ctx.b[q]))
        assert got == expected


def test_pieri_power_matches_iterated_localization():
    # independent oracle: s-fold product with the degree-one class
    for b in VECTORS_2_4:
        ctx = structure.context(b, 2, 4)
        for q in range(6):
            expansion = {q: Poly.one(4)}
            for s in range(1, 4):
                next_exp = {}
                for l, coeff in expansion.items():
                    for t, piece in gkm.localize_product(b, 2, 4, 1, l).items():
                        prev = next_exp.get(t, Poly.zero(4))
                        next_exp[t] = prev + coeff * piece
                expansion = {
                    l: p for l, p in next_exp.items() if not p.is_zero()
                }
                assert ctx.pieri_power(q, s) == expansion


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _chain_sum(ctx, q, s):
    """c(q, s) by the chain x composition formula of the module docstring."""
    lat, b, n = ctx.lattice, ctx.b, ctx.n
    y0 = linear_form(n, lat.symbols[0])
    lines = [y0 - Fraction(b[0], b[t]) * linear_form(n, sym)
             for t, sym in enumerate(lat.symbols)]
    out = {}
    for l in range(lat.m + 1):
        total = Poly.zero(n)
        for chain in lat.chains(l, q):
            r = len(chain) - 1
            if r > s:
                continue
            denom = 1
            for t in chain[1:]:
                denom *= b[t]
            for J in _compositions(s - r, r + 1):
                term = Poly.const(n, Fraction(b[0] ** r, denom))
                for t, jt in zip(chain, J):
                    term = term * lines[t] ** jt
                total = total + term
        if not total.is_zero():
            out[l] = total
    return out


@pytest.mark.parametrize(
    "b, k, n",
    [
        ((1,) * 6, 2, 4),
        ((6, 6, 6, 2, 2, 2), 2, 4),
        ((1,) * 10, 2, 5),
        ((2, 2, 2, 2, 1, 1, 1, 1, 1, 1), 2, 5),
        ((1,) * 10, 3, 5),
        ((2, 2, 2, 2, 2, 2, 1, 1, 1, 1), 3, 5),
    ],
)
def test_pieri_power_matches_chain_sum_formula(b, k, n):
    ctx = structure.WeightedContext(b, k, n)
    for q in range(ctx.lattice.m + 1):
        # the top power first: it takes every step, the rest are memo hits
        for s in reversed(range(k * (n - k) + 1)):
            got = ctx.pieri_power(q, s)
            assert list(got) == sorted(got)
            assert got == _chain_sum(ctx, q, s), (q, s)


def test_pieri_power_vanishes_below_chain_length():
    ctx = structure.context((2, 2, 2, 1, 1, 1), 2, 4)
    lat = ctx.lattice
    for q in range(6):
        for s in range(0, 3):
            for l, poly in ctx.pieri_power(q, s).items():
                assert lat.d[l] - lat.d[q] <= s
                assert not poly.is_zero()


def test_pieri_power_bounded_by_packed_degree():
    # the memo is packed for degrees up to n(n - 1)/2 = 6 at (2,4)
    ctx = structure.WeightedContext((2, 2, 2, 1, 1, 1), 2, 4)
    assert ctx.pieri_power(0, 6)
    with pytest.raises(CapacityError, match="up to s = 6"):
        ctx.pieri_power(0, 7)


def test_oracle_equality_2_4_all_pairs():
    # the central correctness property at desk scale
    for b in VECTORS_2_4:
        ctx = structure.context(b, 2, 4)
        for i in range(6):
            for j in range(6):
                assert ctx.equivariant_constants(i, j) == gkm.localize_product(
                    b, 2, 4, i, j
                ), (b, i, j)


def test_oracle_equality_2_5_all_pairs():
    b = (1,) * 10
    ctx = structure.context(b, 2, 5)
    for i in range(10):
        for j in range(10):
            assert ctx.equivariant_constants(i, j) == gkm.localize_product(
                b, 2, 5, i, j
            ), (i, j)


def test_oracle_equality_2_5_weighted_sample():
    b = (2, 2, 2, 2, 1, 1, 1, 1, 1, 1)
    ctx = structure.context(b, 2, 5)
    rng = random.Random(8)
    for _ in range(12):
        i, j = rng.randrange(10), rng.randrange(10)
        assert ctx.equivariant_constants(i, j) == gkm.localize_product(
            b, 2, 5, i, j
        )


def test_oracle_equality_3_5_all_pairs():
    # k = 3 exercises the relations at 2k > n end to end
    b = (1,) * 10
    ctx = structure.context(b, 3, 5)
    for i in range(10):
        for j in range(i, 10):
            assert ctx.equivariant_constants(i, j) == gkm.localize_product(
                b, 3, 5, i, j
            ), (i, j)


def test_oracle_equality_3_5_weighted():
    # divisive (3, 5) vector from exponent data W = (1,0,0,0,0), a = 1
    b = (2, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    ctx = structure.context(b, 3, 5)
    rng = random.Random(6)
    for _ in range(10):
        i, j = rng.randrange(10), rng.randrange(10)
        assert ctx.equivariant_constants(i, j) == gkm.localize_product(
            b, 3, 5, i, j
        )


def test_oracle_equality_weighted_projective_space():
    # k = 1 has no relations; the machinery degenerates to weighted
    # projective space and still agrees with the oracle
    b = (4, 2, 1)
    ctx = structure.context(b, 1, 3)
    for i in range(3):
        for j in range(3):
            assert ctx.equivariant_constants(i, j) == gkm.localize_product(
                b, 1, 3, i, j
            )
    assert ctx.ordinary_constants(1, 1) == {2: 2}
    assert ctx.ordinary_constants(1, 2) == {}


def _kawasaki_l(b, j):
    """lcm over (j+1)-subsets S of b of prod(S) / gcd(S) (Kawasaki 1973)."""
    out = 1
    for subset in combinations(b, j + 1):
        out = lcm(out, prod(subset) // reduce(gcd, subset))
    return out


def test_weighted_projective_space_matches_kawasaki():
    # Gr_b(1, n) and Gr_b(n-1, n) are weighted projective spaces, where
    # xi_i xi_j = (l_i l_j / l_{i+j}) xi_{i+j}: a third, closed-form route
    rng = random.Random(3)
    for n in range(3, 11):
        for _ in range(3):
            chain = [rng.randint(1, 3)]
            for _ in range(n - 1):
                chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
            b = tuple(reversed(chain))  # b_i divides b_{i-1}
            ls = [_kawasaki_l(b, j) for j in range(n)]
            for k in (1, n - 1):
                for i in range(n):
                    for j in range(i, n):
                        want = {}
                        if i + j <= n - 1:
                            value, rest = divmod(ls[i] * ls[j], ls[i + j])
                            assert rest == 0
                            want = {i + j: value}
                        got = structure.context(b, k, n).ordinary_constants(i, j)
                        assert got == want, (b, k, n, i, j)


def test_oracle_equality_spot_checks_larger_sizes():
    rng = random.Random(1)
    for (k, n, pairs) in [(2, 6, 10), (3, 6, 6)]:
        lat = symbols.lattice(k, n)
        b1 = (1,) * (lat.m + 1)
        for _ in range(pairs):
            i, j = rng.randrange(lat.m + 1), rng.randrange(lat.m + 1)
            assert puzzles.conjugated_product(k, n, i, j) == \
                gkm.localize_product(b1, k, n, i, j), (k, n, i, j)


def test_unit_vector_reduces_to_conjugated_table():
    ctx = structure.context((1,) * 6, 2, 4)
    for i in range(6):
        for j in range(6):
            assert ctx.equivariant_constants(i, j) == puzzles.conjugated_product(
                2, 4, i, j
            )


def test_identity_class_multiplication():
    ctx = structure.context((6, 6, 6, 2, 2, 2), 2, 4)
    for j in range(6):
        assert ctx.equivariant_constants(0, j) == {j: Poly.one(4)}


def test_symmetry_in_both_orders():
    for b in VECTORS_2_4[1:]:
        ctx = structure.context(b, 2, 4)
        for i in range(6):
            for j in range(i + 1, 6):
                assert ctx.equivariant_constants(i, j) == \
                    ctx.equivariant_constants(j, i)


def test_support_and_degree_of_table_entries():
    b = (2, 2, 2, 1, 1, 1)
    ctx = structure.context(b, 2, 4)
    lat = ctx.lattice
    for i in range(6):
        for j in range(6):
            for l, poly in ctx.equivariant_constants(i, j).items():
                assert lat.leq_idx(i, l) and lat.leq_idx(j, l)
                assert is_homogeneous(poly)
                assert poly.degree() == lat.d[i] + lat.d[j] - lat.d[l]


def test_worked_ordinary_constants():
    # the (2, 4) family b = (ab, ab, ab, a, a, a): the nonzero corrections
    for alpha, beta in [(1, 2), (2, 3), (3, 5)]:
        b = (alpha * beta,) * 3 + (alpha,) * 3
        ctx = structure.context(b, 2, 4)
        assert ctx.ordinary_constants(3, 3)[5] == 1 + beta * (beta - 1)
        assert ctx.ordinary_constants(2, 3)[5] == beta - 1
        # equivariant constant of matching dimension agrees
        eq = ctx.equivariant_constants(3, 3)[5]
        assert eq == Poly.const(4, 1 + beta * (beta - 1))


def test_c225_follows_the_displayed_rational_formula():
    # both independent routes give 1 + b0 (b1 - b2) / (b2 b4); for this
    # family b1 = b2, so the correction vanishes
    for alpha, beta in [(1, 2), (2, 3), (3, 5)]:
        b = (alpha * beta,) * 3 + (alpha,) * 3
        ctx = structure.context(b, 2, 4)
        formula = 1 + Fraction(b[0] * (b[1] - b[2]), b[2] * b[4])
        assert formula == 1
        assert ctx.ordinary_constants(2, 2)[5] == formula
        oracle = gkm.localize_product(b, 2, 4, 2, 2)[5]
        assert oracle == Poly.const(4, formula)


def test_every_divisive_2_4_presentation_has_b1_eq_b2():
    # descending divisibility plus validity forces b1 = b2 at (2, 4),
    # so the (2, 2) -> 5 correction term vanishes for every divisive b
    from wgrass import plucker

    rng = random.Random(44)
    checked = 0
    while checked < 200:
        W = tuple(rng.randint(0, 5) for _ in range(4))
        a = rng.randint(1, 2)
        b = plucker.weights_from_wa(W, a, 2, 4)
        witness = plucker.is_divisive(b, 2, 4)
        if witness is None:
            continue
        presented = plucker.apply_permutation(witness, b, 2, 4)
        assert presented[1] == presented[2]
        checked += 1


def test_pipeline_enumerates_no_puzzles():
    # both routes read the frontier sums; no tiling is ever built
    for k, n, table in ((3, 6, "ordinary_table"), (2, 6, "equivariant_table")):
        b = tuple(2 if 1 in s else 1 for s in symbols.enumerate_symbols(k, n))
        puzzles._enumerate_cached.cache_clear()
        structure.context.cache_clear()
        getattr(structure.context(b, k, n), table)()
        assert puzzles._enumerate_cached.cache_info().currsize == 0, (k, n)


def test_ordinary_pieri_rule():
    for b, k, n in [
        ((2, 2, 2, 1, 1, 1), 2, 4),
        ((6, 6, 6, 2, 2, 2), 2, 4),
        ((2, 2, 2, 2, 1, 1, 1, 1, 1, 1), 2, 5),
    ]:
        ctx = structure.context(b, k, n)
        lat = ctx.lattice
        for i in range(1, lat.m + 1):
            cell = ctx.ordinary_constants(1, i)
            expected = {
                j: Fraction(b[0], b[i]) for j in lat.arrows[i]
            }
            assert cell == {j: int(v) for j, v in expected.items()}


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5)])
def test_ordinary_matches_degree_zero_equivariant(k, n):
    # the ordinary constants are the equivariant ones at y = 0
    for b in reference.vectors(k, n):
        ctx = structure.context(b, k, n)
        lat = ctx.lattice
        size = lat.m + 1
        for i in range(size):
            for j in range(size):
                ordinary = ctx.ordinary_constants(i, j)
                equivariant = ctx.equivariant_constants(i, j)
                for l in range(size):
                    if lat.d[l] != lat.d[i] + lat.d[j]:
                        continue
                    eq = reference.constant_value(equivariant.get(l, Poly.zero(n)))
                    assert ordinary.get(l, 0) == eq


def test_matches_is_the_upper_set_scan():
    # the rank bound against a scan of the symbols above both, the
    # intersection of the two upper sets, on every ordered pair of every
    # lattice with n <= 9 (C(n, k) <= 126)
    pairs = 0
    for n in range(2, 10):
        for k in range(1, n):
            ctx = structure.context((1,) * symbols.count(k, n), k, n)
            lat = ctx.lattice
            upper = [set(lat.upper_set(i)) for i in range(lat.m + 1)]
            for i in range(lat.m + 1):
                for j in range(lat.m + 1):
                    scan = any(lat.d[l] == lat.d[i] + lat.d[j]
                               for l in upper[i] & upper[j])
                    assert ctx._matches(i, j) == scan, (k, n, i, j)
                    pairs += 1
    assert pairs == 66178


def test_unit_ordinary_table_matches_oracle_lr():
    ctx = structure.context((1,) * 6, 2, 4)
    lat = ctx.lattice
    for i in range(6):
        for j in range(6):
            oracle = gkm.localize_product((1,) * 6, 2, 4, i, j)
            cell = ctx.ordinary_constants(i, j)
            for l, coeff in oracle.items():
                if lat.d[l] == lat.d[i] + lat.d[j]:
                    assert cell[l] == reference.constant_value(coeff)
    assert ctx.ordinary_constants(1, 1) == {2: 1, 3: 1}


def test_integrality_and_positivity_full_tables():
    for b in VECTORS_2_4[1:]:
        ctx = structure.context(b, 2, 4)
        table = ctx.equivariant_table()
        ok, info = structure.verify_integrality(table)
        assert ok, info
        ok, info = structure.verify_positivity(table, b, 2, 4)
        assert ok, info


def test_unit_positivity():
    ctx = structure.context((1,) * 6, 2, 4)
    table = ctx.equivariant_table()
    assert structure.verify_integrality(table)[0]
    assert structure.verify_positivity(table, (1,) * 6, 2, 4)[0]


def test_corrupted_table_fails_checks():
    ctx = structure.context((2, 2, 2, 1, 1, 1), 2, 4)
    table = {k: dict(v) for k, v in ctx.equivariant_table().items()}
    l0 = sorted(table[(3, 3)])[0]
    table[(3, 3)][l0] = table[(3, 3)][l0] + Fraction(1, 2)
    ok, info = structure.verify_integrality(table)
    assert not ok and info is not None
    negative = {(0, 0): {0: Poly.const(4, -1)}}
    assert not structure.verify_positivity(negative, (1,) * 6, 2, 4)[0]


def test_change_basis_positivity_generator():
    ctx = structure.context((2, 2, 2, 1, 1, 1), 2, 4)
    forms = positivity_forms(ctx)
    g1 = forms[0]
    rewritten = ctx.change_basis_positivity(g1)
    expo = [0] * 4
    expo[0] = 1
    assert rewritten == Poly(4, {tuple(expo): 1})
    assert ctx.change_basis_positivity(Poly.zero(4)).is_zero()


def test_localize_table_mirrors_per_pair_products():
    b = (2, 2, 2, 1, 1, 1)
    table = structure.localize_table(b, 2, 4)
    assert table[(3, 2)] == table[(2, 3)] == gkm.localize_product(b, 2, 4, 2, 3)
    assert set(table) == {(i, j) for i in range(6) for j in range(6)}


def test_piece_value_well_defined():
    ctx = structure.context((6, 6, 6, 2, 2, 2), 2, 4)
    for u in range(1, 4):
        for v in range(u + 1, 5):
            val = ctx.piece_value(u, v)
            # every representative symbol pair gives the same difference
            lat = ctx.lattice
            for f_sym in lat.symbols:
                if v in f_sym and u not in f_sym:
                    e_sym = symbols.exchange(f_sym, v, u)
                    delta = ctx.b[lat.index[e_sym]] - ctx.b[lat.index[f_sym]]
                    assert delta == val


def _unit_and_w1(k, n):
    syms = symbols.enumerate_symbols(k, n)
    return {"unit": (1,) * len(syms), "w1": tuple(2 if 1 in s else 1 for s in syms)}


@pytest.mark.parametrize("k, n, b", [
    *(pytest.param(k, n, b, id=f"{k}-{n}-{name}")
      for k, n in ((2, 4), (2, 5), (3, 5))
      for name, b in _unit_and_w1(k, n).items()),
    pytest.param(1, 5, (8, 4, 2, 2, 1), id="1-5-84221"),
    pytest.param(4, 5, (8, 4, 2, 2, 1), id="4-5-84221"),
])
def test_a_coefficients_match_subset_sums(k, n, b):
    # every puzzle of every symbol triple, against the Poly factors
    ctx = structure.context(b, k, n)
    found = 0
    for i, j, l in product(range(symbols.count(k, n)), repeat=3):
        for puz in puzzles.puzzles_for(k, n, i, j, l):
            assert ctx.a_coefficients(puz) == reference.a_coefficients(ctx, puz), \
                (i, j, l, puz.equivariant)
            found += 1
    assert found > symbols.count(k, n)


# -- the Poly contraction and tuple substitution, kept as references --------


@pytest.mark.parametrize("k, n", reference.SIZES)
def test_packed_contraction_matches_reference(k, n):
    # every cell i <= j of the pipeline table; the rest is its mirror
    m1 = symbols.count(k, n)
    for b in reference.vectors(k, n):
        ctx = structure.context(b, k, n)
        for i in range(m1):
            for j in range(i, m1):
                assert ctx.equivariant_constants(i, j) == \
                    reference.equivariant_constants(ctx, i, j), (b, i, j)


def _assert_rewrites_match_reference(b, k, n):
    # the integer sheared images against the Fraction route (images,
    # kept variables, scale and term order), then every entry of the
    # table against ``reference.rewrite_in_linear_basis``, with the
    # inverse of the form matrix built once
    ctx = structure.context(b, k, n)
    sheared, want = ctx._sheared_images, reference.sheared_images(ctx)
    assert [(v, list(t.items())) for v, t in sheared[0]] == \
        [(v, list(t.items())) for v, t in want[0]], b
    assert sheared[1:] == want[1:], b
    images = reference.linear_basis_images(positivity_forms(ctx))
    for (i, j), cell in ctx.equivariant_table().items():
        if i <= j:
            for l, value in cell.items():
                assert ctx.change_basis_positivity(value) == \
                    value.substitute(images), (b, i, j, l)


@pytest.mark.parametrize("k, n", reference.SIZES)
def test_packed_positivity_rewrite_matches_reference(k, n):
    for b in reference.vectors(k, n):
        _assert_rewrites_match_reference(b, k, n)


@pytest.mark.parametrize("b, k, n, moved", [
    ((2, 2, 2, 2, 1), 1, 5, 1),  # k = 1 and k = n - 1 chains
    ((2, 2, 2, 2, 1), 4, 5, 1),
    ((8, 4, 2, 2, 1), 1, 5, 3),  # several nonzero c_q
    ((2,) * 6, 2, 4, 0),  # W = 0 with a = 2: every c_q is 0
])
def test_shear_rewrite_edge_cases(b, k, n, moved):
    # moved counts the u_q with c_q != 0, which the last substitution maps
    ctx = structure.context(b, k, n)
    assert len(ctx._sheared_images[0]) == moved + 1
    _assert_rewrites_match_reference(b, k, n)


def test_positivity_fails_on_negative_and_y0_cells():
    # a negative g-coefficient and a Y_0 term each fail, as rewritten
    b = (8, 4, 2, 2, 1)
    ctx = structure.context(b, 1, 5)
    g1, g2, *_, y0 = positivity_forms(ctx)
    cells = {
        "negative coefficient -1": g1 * g2 - g2 * g2,
        "depends on Y_0": g1 * g2 + y0,
    }
    for message, value in cells.items():
        ok, info = structure.verify_positivity({(1, 1): {2: value}}, b, 1, 5)
        assert not ok and info == ((1, 1), 2, message), info
    ok, _ = structure.verify_positivity({(1, 1): {2: g1 * g2 + g2}}, b, 1, 5)
    assert ok


def test_vector_caches_are_bounded():
    # 40 distinct seeded (2,4) vectors through the context, the weighted
    # basis cache and the oracle's memo; each keeps at most its fixed
    # number
    syms = symbols.enumerate_symbols(2, 4)
    pairs = random.Random("bounded caches").sample(
        [(a, t) for a in range(1, 9) for t in range(1, 9)], 40
    )
    vecs = [tuple(a * (t + 1) if 1 in s else a for s in syms) for a, t in pairs]
    structure.context.cache_clear()
    gkm._weighted_cached.cache_clear()
    basis = gkm.kt_restrictions(2, 4)  # the oracle's memos live on it
    basis.memos.clear()
    first = vecs[0]
    cell = structure.context(first, 2, 4).equivariant_constants(2, 3)
    rows = gkm.weighted_restrictions(first, 2, 4)
    for b in vecs:
        assert structure.context(b, 2, 4).equivariant_constants(2, 3) == \
            gkm.localize_product(b, 2, 4, 2, 3)
        assert structure.context.cache_info().currsize <= \
            structure.CONTEXT_CACHE_SIZE
        assert gkm._weighted_cached.cache_info().currsize <= \
            gkm.WEIGHTED_CACHE_SIZE
        assert len(basis.memos) <= gkm.WEIGHTED_CACHE_SIZE
    assert structure.context.cache_info().maxsize == structure.CONTEXT_CACHE_SIZE
    assert gkm._weighted_cached.cache_info().maxsize == gkm.WEIGHTED_CACHE_SIZE
    assert len(basis.memos) == gkm.WEIGHTED_CACHE_SIZE
    # the first vector was evicted: it is recomputed, equal to before
    misses = structure.context.cache_info().misses
    assert structure.context(first, 2, 4).equivariant_constants(2, 3) == cell
    assert structure.context.cache_info().misses == misses + 1
    again = gkm.weighted_restrictions(first, 2, 4)
    assert again is not rows and again == rows
    # the first vector's memo was evicted too: rebuilt, with equal products
    assert first not in basis.memos
    assert gkm.localize_product(first, 2, 4, 2, 3) == cell
    assert gkm.kt_restrictions(2, 4) is basis and first in basis.memos
