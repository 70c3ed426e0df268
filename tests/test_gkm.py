"""GKM model: graph, basis restrictions, localization oracle."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from wgrass import gkm, puzzles, symbols
from wgrass.errors import NotDivisiveError, ParameterError
from wgrass.polynomial import Poly, linear_form


def y(i, n=4):
    return Poly.variable(n, i)


def test_build_graph_labels():
    g = gkm.build_graph((2, 2, 2, 1, 1, 1), 2, 4)
    assert g.labels[(0, 1)] == y(2) - y(3)
    assert g.labels[(1, 3)] == y(1) - 2 * y(2) - y(3)
    lat = symbols.lattice(2, 4)
    assert len(g.edges) == sum(lat.d)


def test_build_graph_unit_labels():
    g = gkm.build_graph((1,) * 6, 2, 4)
    for (i, j), label in g.labels.items():
        terms = sorted(label.terms.items())
        assert len(terms) == 2
        coeffs = sorted(c for _, c in terms)
        assert coeffs == [Fraction(-1), Fraction(1)]


def test_build_graph_requires_presentation():
    with pytest.raises(NotDivisiveError):
        gkm.build_graph((5, 1, 4, 3, 6, 2), 2, 4)
    with pytest.raises(NotDivisiveError):
        gkm.build_graph((2, 6, 6, 2, 2, 6), 2, 4)  # divisive but unordered
    with pytest.raises(ParameterError):
        gkm.build_graph((1, 1, 1, 1, 1, 2), 2, 4)


def test_is_class_examples():
    g = gkm.build_graph((1,) * 6, 2, 4)
    constant = [y(1) * y(2) + 3] * 6
    assert gkm.is_class(g, constant)
    indicator = [Poly.zero(4)] * 6
    indicator[2] = Poly.one(4)
    assert not gkm.is_class(g, indicator)


def test_kt_restrictions_examples():
    mat = gkm.kt_restrictions(2, 4)
    assert all(mat[0][j] == Poly.one(4) for j in range(6))
    assert mat[1][3] == y(1) - y(3)
    assert mat[3][3] == (y(1) - y(2)) * (y(1) - y(3))
    # row 1 is the closed form at every dominating vertex
    lat = symbols.lattice(2, 4)
    for j in range(1, 6):
        assert mat[1][j] == linear_form(4, (1, 2)) - linear_form(
            4, lat.symbols[j]
        )


def test_weighted_restriction_diagonal_example():
    mat = gkm.weighted_restrictions((2, 2, 2, 1, 1, 1), 2, 4)
    assert mat[3][3] == (y(1) - 2 * y(2) - y(3)) * (y(1) - y(2) - 2 * y(3))


def test_weighted_reduces_to_unit_matrix():
    assert gkm.weighted_restrictions((1,) * 6, 2, 4) == gkm.kt_restrictions(2, 4)


def test_basis_rows_are_classes_and_triangular():
    for b, k, n in [
        ((1,) * 6, 2, 4),
        ((2, 2, 2, 1, 1, 1), 2, 4),
        ((6, 6, 6, 2, 2, 2), 2, 4),
        ((2, 2, 2, 2, 1, 1, 1, 1, 1, 1), 2, 5),
    ]:
        lat = symbols.lattice(k, n)
        mat = gkm.weighted_restrictions(b, k, n)
        graph = gkm.build_graph(b, k, n)
        for i in range(lat.m + 1):
            assert gkm.is_class(graph, mat[i])
            for j in range(lat.m + 1):
                entry = mat[i][j]
                if not lat.leq_idx(i, j):
                    assert entry.is_zero()
                elif not entry.is_zero():
                    assert entry.is_homogeneous()
                    assert entry.degree() == lat.d[i]
            assert not mat[i][i].is_zero()


def test_localize_identity_class():
    for j in range(6):
        out = gkm.localize_product((2, 2, 2, 1, 1, 1), 2, 4, 0, j)
        assert out == {j: Poly.one(4)}


def test_localize_worked_products():
    b1 = (1,) * 6
    got = gkm.localize_product(b1, 2, 4, 3, 3)
    assert got == {
        3: (y(1) - y(3)) * (y(1) - y(2)),
        4: y(1) - y(2),
        5: Poly.one(4),
    }
    assert gkm.localize_product(b1, 2, 4, 3, 2) == {4: y(1) - y(4)}


def test_localize_pieri_property():
    for b, k, n in [
        ((1,) * 6, 2, 4),
        ((2, 2, 2, 1, 1, 1), 2, 4),
        ((6, 6, 6, 2, 2, 2), 2, 4),
        ((1,) * 10, 2, 5),
        ((2, 2, 2, 2, 1, 1, 1, 1, 1, 1), 2, 5),
    ]:
        lat = symbols.lattice(k, n)
        for i in range(lat.m + 1):
            got = gkm.localize_product(b, k, n, 1, i)
            expected = {}
            head = linear_form(n, lat.symbols[0]) - Fraction(
                b[0], b[i]
            ) * linear_form(n, lat.symbols[i])
            if not head.is_zero():
                expected[i] = head
            for j in lat.arrows[i]:
                expected[j] = Poly.const(n, Fraction(b[0], b[i]))
            assert got == expected


def test_localized_coefficients_integral_and_graded():
    b = (6, 6, 6, 2, 2, 2)
    lat = symbols.lattice(2, 4)
    for i in range(6):
        for j in range(6):
            out = gkm.localize_product(b, 2, 4, i, j)
            for l, coeff in out.items():
                assert coeff.is_integral()
                assert coeff.degree() == lat.d[i] + lat.d[j] - lat.d[l]
                assert lat.leq_idx(i, l) and lat.leq_idx(j, l)


def test_random_products_of_classes_are_classes():
    rng = random.Random(23)
    b = (2, 2, 2, 1, 1, 1)
    mat = gkm.weighted_restrictions(b, 2, 4)
    graph = gkm.build_graph(b, 2, 4)
    for _ in range(100):
        i = rng.randrange(6)
        j = rng.randrange(6)
        product = [mat[i][t] * mat[j][t] for t in range(6)]
        assert gkm.is_class(graph, product)


def test_restrictions_json_roundtrip():
    data = gkm.restrictions_as_json((2, 2, 2, 1, 1, 1), 2, 4)
    mat = gkm.weighted_restrictions((2, 2, 2, 1, 1, 1), 2, 4)
    for i, row in data.items():
        for j, text in row.items():
            assert Poly.parse(text, 4) == mat[int(i)][int(j)]
    assert "0" not in data["5"]  # zeros are omitted


RESTRICTION_DIGESTS = {
    ((2, 5), 1): "12b3876e31fd74e921d93f475af4f46c038214286b66b477ab41b8405835b7ee",
    ((2, 5), 2): "043e120676e63e8ca9ea885bc01aa831249e3a3f45ea822a23dd90d141796fb4",
    ((3, 5), 1): "a123c5cdcb1cdfbb5c7bdd19ec709364f7161df706f8d158980309c1f6fa4f36",
    ((3, 5), 2): "0009704908a80be719efa7fa7c4619d35aaa751defa60e1493695c8876f69106",
    ((2, 6), 1): "f82255bea2596dfae303aa754f93252905a05c37891505700eb29959dcbb1f18",
    ((2, 6), 2): "60918e95fb4ffcf76b74fcb142d68849a1e7edba99a3536562539341e0a9868d",
}


def test_restrictions_pinned():
    # the unit vector and the divisive vector 2 on symbols containing 1
    for ((k, n), top), want in RESTRICTION_DIGESTS.items():
        b = tuple(top if 1 in s else 1 for s in symbols.enumerate_symbols(k, n))
        text = json.dumps(gkm.restrictions_as_json(b, k, n), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, (k, n, top)


def test_unit_structure_constants_match_puzzle_counts():
    # dimension-matching coefficients at b = 1 are the puzzle counts
    lat = symbols.lattice(2, 4)
    b1 = (1,) * 6
    for i in range(6):
        for j in range(6):
            out = gkm.localize_product(b1, 2, 4, i, j)
            for l, coeff in out.items():
                if lat.d[l] == lat.d[i] + lat.d[j]:
                    count = len(puzzles.puzzles_for(2, 4, i, j, l))
                    assert coeff == Poly.const(4, count)
    # the degree-one class squared hits each cover with multiplicity one
    out = gkm.localize_product(b1, 2, 4, 1, 1)
    assert out[2] == Poly.one(4) and out[3] == Poly.one(4)
