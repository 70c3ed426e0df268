"""GKM model: graph, basis restrictions, localization oracle."""

import copy
import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

import reference
from wgrass import gkm, polynomial, puzzles, structure, symbols
from wgrass.errors import (
    InternalInconsistencyError, NotDivisiveError, ParameterError,
)
from wgrass.polynomial import Poly
from reference import is_homogeneous, linear_form, parse_poly


def y(i, n=4):
    return Poly.variable(n, i)


def test_build_graph_labels():
    g = gkm.build_graph((2, 2, 2, 1, 1, 1), 2, 4)
    labels = reference.poly_labels(g)
    assert labels[(0, 1)] == y(2) - y(3)
    assert labels[(1, 3)] == y(1) - 2 * y(2) - y(3)
    lat = symbols.lattice(2, 4)
    assert len(g.edges) == sum(lat.d)


def test_build_graph_unit_labels():
    g = gkm.build_graph((1,) * 6, 2, 4)
    for (i, j), label in reference.poly_labels(g).items():
        terms = sorted(label.terms.items())
        assert len(terms) == 2
        coeffs = sorted(c for _, c in terms)
        assert coeffs == [Fraction(-1), Fraction(1)]


@pytest.mark.parametrize("k, n", reference.SIZES + ((2, 7),))
def test_labels_are_primitive_integer_forms(k, n):
    # b_j times the label of (l, j) is b_j Y_l - b_l Y_j, which the
    # divisive presentation makes integral with content b_j
    syms = symbols.enumerate_symbols(k, n)
    forms = [sum((y(s, n) for s in sym), Poly.zero(n)) for sym in syms]
    for b in reference.vectors(k, n):
        graph = gkm.build_graph(b, k, n)
        labels = reference.poly_labels(graph)
        assert len(labels) == len(graph.edges)
        for l, j in graph.edges:
            label = labels[(l, j)]
            assert label.is_integral(), (b, l, j)
            assert gcd(*label.terms.values()) == 1, (b, l, j)
            assert label * b[j] == forms[l] * b[j] - forms[j] * b[l], (b, l, j)


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
    assert reference.is_class(g, constant)
    indicator = [Poly.zero(4)] * 6
    indicator[2] = Poly.one(4)
    assert not reference.is_class(g, indicator)


def test_kt_restrictions_examples():
    mat = reference.poly_matrix(gkm.kt_restrictions(2, 4))
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
    mat = reference.poly_matrix(gkm.weighted_restrictions((2, 2, 2, 1, 1, 1), 2, 4))
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
        mat = reference.poly_matrix(gkm.weighted_restrictions(b, k, n))
        graph = gkm.build_graph(b, k, n)
        for i in range(lat.m + 1):
            assert reference.is_class(graph, mat[i])
            for j in range(lat.m + 1):
                entry = mat[i][j]
                if not lat.leq_idx(i, j):
                    assert entry.is_zero()
                elif not entry.is_zero():
                    assert is_homogeneous(entry)
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
    mat = reference.poly_matrix(gkm.weighted_restrictions(b, 2, 4))
    graph = gkm.build_graph(b, 2, 4)
    for _ in range(100):
        i = rng.randrange(6)
        j = rng.randrange(6)
        product = [mat[i][t] * mat[j][t] for t in range(6)]
        assert reference.is_class(graph, product)


def test_restrictions_json_roundtrip():
    data = reference.restrictions_as_json((2, 2, 2, 1, 1, 1), 2, 4)
    mat = reference.poly_matrix(gkm.weighted_restrictions((2, 2, 2, 1, 1, 1), 2, 4))
    for i, row in data.items():
        for j, text in row.items():
            assert parse_poly(text, 4) == mat[int(i)][int(j)]
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
        text = json.dumps(reference.restrictions_as_json(b, k, n), sort_keys=True)
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


# -- the Poly-based peel, kept as the reference of the oracle ---------------


def reference_localize(matrix, i, j):
    """basis_i * basis_j peeled on the Poly ``matrix``, one rational step
    at a time."""
    m1 = len(matrix)
    residual = [matrix[i][t] * matrix[j][t] for t in range(m1)]
    out = {}
    for l in range(m1):
        v = residual[l]
        if v.is_zero():
            continue
        coeff = v.divide_exact(matrix[l][l])
        assert coeff is not None, (l, v)
        out[l] = coeff
        for u in range(l, m1):
            if not matrix[l][u].is_zero():
                residual[u] = residual[u] - coeff * matrix[l][u]
    assert all(r.is_zero() for r in residual)
    return out


def _seeded_vector(k, n, seed):
    rng = random.Random(seed)
    a, t = rng.randint(1, 2), rng.randint(1, 5)
    return tuple(
        a * (t + 1) if 1 in s else a for s in symbols.enumerate_symbols(k, n)
    )


REFERENCE_CASES = [
    ((1,) * 6, 2, 4),
    ((2, 2, 2, 1, 1, 1), 2, 4),
    ((6, 6, 6, 2, 2, 2), 2, 4),
    ((1,) * 10, 2, 5),
    (_seeded_vector(2, 5, 31), 2, 5),
    ((1,) * 10, 3, 5),
    (_seeded_vector(3, 5, 37), 3, 5),
    # the peel's column maps beyond one moved variable with a = 1:
    # W = (4, 1, 1, 1, 1), five nonzero w_s, shifted to (3, 0, 0, 0, 0), a = 3
    ((6, 6, 6, 6, 3, 3, 3, 3, 3, 3), 2, 5),
    ((8, 8, 8, 8, 2), 4, 5),  # a = 2
    ((4, 4, 4, 4, 2), 1, 5),  # W = (3, 3, 3, 3, 1), shifted to a = 4
    ((2, 2, 2, 2, 2, 1), 1, 6),  # a chain
    ((8, 4, 2, 2, 1), 1, 5),  # three variables still move after the shift
    ((2,) * 6, 2, 4),  # W = 0 with a = 2: the peel reads the b = 1 rows in y
]


@pytest.mark.parametrize("b, k, n", REFERENCE_CASES)
def test_integer_peel_matches_reference(b, k, n):
    # the reference matrix shares no code with the column maps
    matrix = reference.weighted_restrictions(b, k, n)
    m1 = symbols.count(k, n)
    for i in range(m1):
        for j in range(m1):
            assert gkm.localize_product(b, k, n, i, j) == reference_localize(
                matrix, i, j
            ), (b, i, j)


# -- a corrupted computation fails loudly ------------------------------------


def _corrupted(b, k, n, edit):
    """A fresh basis on a copy of the integer rows, after ``edit``."""
    matrix = gkm.weighted_restrictions(b, k, n)
    rows = [[dict(entry) for entry in row] for row in matrix.rows]
    edit(rows, matrix.packing.pack)
    return matrix._replace(rows=rows, memos={})


def _add(rows, pack, i, t, expo, c=1):
    key = pack(expo)
    rows[i][t][key] = rows[i][t].get(key, 0) + c


def _scale(rows, i, t, c):
    rows[i][t] = {key: v * c for key, v in rows[i][t].items()}


def _put(rows, pack, i, t, expo, c=1):
    rows[i][t] = {pack(expo): c}


def _class_one_as_y1(rows, pack):
    for t in range(len(rows)):
        _put(rows, pack, 0, t, (1, 0, 0, 0))


@pytest.fixture
def fresh_products():
    """Empty oracle memos on the (2, 4) basis, emptied again after the
    test: a corrupted coefficient must not outlive it."""
    gkm.kt_restrictions(2, 4).memos.clear()
    yield
    gkm.kt_restrictions(2, 4).memos.clear()


def _raises_or_disagrees(b, k, n):
    try:
        table = structure.localize_table(b, k, n)
    except InternalInconsistencyError:
        return True
    return table != structure.context(b, k, n).equivariant_table()


ROW_CORRUPTIONS = [
    # class 2 at the top vertex: no exact quotient at c^5_{2q}
    ("not exact", lambda rows, pack: _add(rows, pack, 2, 5, (2, 0, 0, 0))),
    # the diagonal at 2 doubled: m(1, 2) becomes 1/2
    ("non-integral", lambda rows, pack: _scale(rows, 2, 2, 2)),
    # class 2 at vertex 4 off by y1^2: m(2, 4) is no constant
    ("non-constant", lambda rows, pack: _add(rows, pack, 2, 4, (2, 0, 0, 0))),
    # class 4 doubled at vertex 5: the two recursions of cell (4, 5)
    # divide exactly and disagree
    ("asymmetric", lambda rows, pack: _scale(rows, 4, 5, 2)),
    # class 1 replaced by the class y1, of degree 1
    ("wrong degree", _class_one_as_y1),
]


@pytest.mark.parametrize("message, edit", ROW_CORRUPTIONS)
def test_corrupted_rows_fail_the_oracle(monkeypatch, message, edit):
    # the oracle reads the b = 1 rows: in y at b = 1, through the column
    # maps at a weighted vector; the memo filled from the true rows
    # first is not the one the replaced rows are read through
    vectors = ((1,) * 6, (2, 2, 2, 1, 1, 1))
    for b in vectors:
        structure.localize_table(b, 2, 4)
    bad = _corrupted((1,) * 6, 2, 4, edit)
    monkeypatch.setattr(gkm, "kt_restrictions", lambda *args: bad)
    for b in vectors:
        with pytest.raises(InternalInconsistencyError, match=message):
            structure.localize_table(b, 2, 4)


COVERS = [(p, up) for p, ups in enumerate(symbols.lattice(2, 4).arrows) for up in ups]


@pytest.mark.parametrize("cover", COVERS)
def test_corrupted_chevalley_coefficient_fails_the_oracle(
    monkeypatch, fresh_products, cover
):
    real = gkm._Products.cover

    def corrupted(self, p, up):
        return real(self, p, up) + ((p, up) == cover)

    monkeypatch.setattr(gkm._Products, "cover", corrupted)
    for b in ((1,) * 6, (2, 2, 2, 1, 1, 1)):
        assert _raises_or_disagrees(b, 2, 4), (b, cover)


def test_corrupted_memo_entry_breaks_the_symmetry(fresh_products):
    # c^4_{23} has degree 1; one added y1 keeps its degree, so only the
    # other recursion, c^4_{32}, can catch it
    for b in ((1,) * 6, (2, 2, 2, 1, 1, 1)):
        products = gkm.kt_restrictions(2, 4).products(b)
        y1 = products.packing.pack((1, 0, 0, 0))
        true = dict(products.coefficient(2, 3, 4))
        products.memo[(2, 3, 4)] = {**true, y1: true.get(y1, 0) + 1}
        with pytest.raises(InternalInconsistencyError, match="asymmetric"):
            gkm.localize_product(b, 2, 4, 2, 3)


VALIDATION_CORRUPTIONS = [
    ("support leaks", lambda rows, pack: _add(rows, pack, 3, 2, (1, 1, 0, 0))),
    ("wrong degree", lambda rows, pack: _add(rows, pack, 2, 4, (1, 0, 0, 0))),
    ("row 1 closed form", lambda rows, pack: _add(rows, pack, 1, 3, (0, 1, 0, 0))),
    ("diagonal product", lambda rows, pack: _add(rows, pack, 2, 2, (2, 0, 0, 0))),
    ("GKM membership", lambda rows, pack: _add(rows, pack, 2, 5, (2, 0, 0, 0))),
]


@pytest.mark.parametrize("message, edit", VALIDATION_CORRUPTIONS)
def test_corrupted_rows_fail_validation(message, edit):
    for b in [(1,) * 6, (2, 2, 2, 1, 1, 1), (6, 6, 6, 3, 3, 3)]:
        gkm._validate_basis(_corrupted(b, 2, 4, lambda rows, pack: None))
        with pytest.raises(InternalInconsistencyError, match=message):
            gkm._validate_basis(_corrupted(b, 2, 4, edit))


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5), (2, 6)])
def test_seeded_corruptions_fail_validation_as_the_division_does(k, n):
    # one coefficient of one row changed, at an entry of degree d_i off
    # the diagonal inside the upper set and past the closed row 1, so
    # only GKM membership can catch it: the vanishing test raises exactly
    # where the division by Poly.divide_exact rejects the row
    lat = symbols.lattice(k, n)
    w1 = tuple(2 if 1 in s else 1 for s in lat.symbols)
    rng = random.Random(f"corrupt {k} {n}")
    rejected = 0
    for b in ((1,) * (lat.m + 1), w1):
        gkm._validate_basis(_corrupted(b, k, n, lambda rows, pack: None))
        graph = gkm.build_graph(b, k, n)
        for _ in range(25):
            i = rng.randrange(2, lat.m)
            t = rng.choice(lat.upper_set(i)[1:])
            expo = [0] * n
            for _ in range(lat.d[i]):
                expo[rng.randrange(n)] += 1
            delta = rng.choice((-2, -1, 1, 2, 3))
            bad = _corrupted(
                b, k, n, lambda rows, pack: _add(rows, pack, i, t, expo, delta)
            )
            if reference.is_class(graph, reference.poly_matrix(bad)[i]):
                gkm._validate_basis(bad)
            else:
                rejected += 1
                with pytest.raises(InternalInconsistencyError, match="GKM membership"):
                    gkm._validate_basis(bad)
    assert rejected, (k, n)


def test_is_class_rejects_perturbed_weighted_row():
    b = (6, 6, 6, 3, 3, 3)
    mat = reference.poly_matrix(gkm.weighted_restrictions(b, 2, 4))
    graph = gkm.build_graph(b, 2, 4)
    assert reference.is_class(graph, mat[1])
    row = list(mat[1])
    row[3] = row[3] + y(2)
    assert not reference.is_class(graph, row)


# -- the b = 1 basis by the Chevalley recursion: mutations must raise -------


def _lattice_with_arrows(k, n, i, arrows):
    """A copy of the (k, n) lattice whose symbol i has these up-covers."""
    fake = copy.copy(symbols.lattice(k, n))
    fake.arrows = [list(ups) for ups in fake.arrows]
    fake.arrows[i] = arrows
    return fake


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5)])
def test_corrupted_up_cover_term_fails_the_basis(monkeypatch, k, n):
    # every up-cover term of the recursion, doubled or dropped: the rows
    # built then are no basis, so the uncached build raises
    build = gkm.kt_restrictions.__wrapped__
    build(k, n)
    lat = symbols.lattice(k, n)
    for i, ups in enumerate(lat.arrows):
        for up in ups:
            dropped = [u for u in ups if u != up]
            for arrows in (ups + [up], dropped):
                fake = _lattice_with_arrows(k, n, i, arrows)
                monkeypatch.setattr(symbols, "lattice", lambda *args: fake)
                with pytest.raises(InternalInconsistencyError):
                    build(k, n)
                monkeypatch.undo()


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 5)])
def test_corrupted_finished_entry_fails_the_basis(monkeypatch, k, n):
    # each entry off the diagonal is one division, in build order; the
    # leading coefficient of one quotient doubled must make the build
    # raise, by the recursion of the rows below or by the validation
    build = gkm.kt_restrictions.__wrapped__
    lat = symbols.lattice(k, n)
    entries = sum(len(lat.upper_set(i)) - 1 for i in range(lat.m + 1))
    real = polynomial._divide_packed
    for target in range(entries):
        calls = []

        def corrupted(num, den, guard):
            quot = real(num, den, guard)
            if len(calls) == target:
                key = max(quot)
                quot = {**quot, key: 2 * quot[key]}
            calls.append(target)
            return quot

        monkeypatch.setattr(polynomial, "_divide_packed", corrupted)
        with pytest.raises(InternalInconsistencyError):
            build(k, n)
        assert len(calls) > target
    monkeypatch.undo()
    assert reference.poly_matrix(build(k, n)) == reference.unit_restrictions(k, n)


# -- the Poly interpolation and tuple substitution, kept as references ------


@pytest.mark.parametrize("k, n", reference.SIZES + ((2, 7),))
def test_packed_interpolation_matches_reference(k, n):
    assert reference.poly_matrix(gkm.kt_restrictions(k, n)) == \
        reference.unit_restrictions(k, n)


@pytest.mark.parametrize("k, n", reference.SIZES)
def test_packed_substitution_matches_reference(k, n):
    # the weighted rows substitute the unit rows, column by column
    for b in reference.vectors(k, n)[1:]:
        assert reference.poly_matrix(gkm.weighted_restrictions(b, k, n)) == \
            reference.weighted_restrictions(b, k, n), b


# -- the column maps: their check, and vectors that move several variables --


def _edited_image(maps, t):
    """``maps`` with y_n added to the first moved variable's image in
    column t."""
    columns = list(maps.columns)
    bt, ((s, image), *rest) = columns[t]
    y_n = maps.packing.units[maps.graph.n - 1]
    columns[t] = (bt, [(s, {**image, y_n: image.get(y_n, 0) + 1}), *rest])
    return maps._replace(columns=columns)


def _doubled_label(graph):
    doubled = {key: 2 * c for key, c in graph.labels[(0, 1)].items()}
    return graph._replace(labels={**graph.labels, (0, 1): doubled})


MAP_CORRUPTIONS = [
    # column 0 has no edge into it, so only the agreement across the
    # edges out of it reads its map to y
    ("disagree across an edge", "_column_maps", lambda maps: _edited_image(maps, 0)),
    ("does not give an edge label", "build_graph", _doubled_label),
]


@pytest.mark.parametrize("message, target, edit", MAP_CORRUPTIONS)
def test_corrupted_column_maps_fail_the_build(monkeypatch, message, target, edit):
    # the weighted build, uncached: one moved variable with a = 1, and
    # three moved variables with a = 2
    build = gkm._weighted_cached.__wrapped__
    cases = [((2, 2, 2, 1, 1, 1), 2, 4), ((8, 4, 2, 2, 1), 1, 5)]
    for b, k, n in cases:
        build(b, k, n)
    real = getattr(gkm, target)
    monkeypatch.setattr(gkm, target, lambda *args: edit(real(*args)))
    for b, k, n in cases:
        with pytest.raises(InternalInconsistencyError, match=message):
            build(b, k, n)


def tied_chains(k, n, draws=200):
    """Presented divisive vectors from seeded non-increasing W with ties.

    Each draw takes two or three distinct values of W in [0, 6], each on
    a run of variables, and a in [1, 6]; the vector is kept when its
    symbol order is a divisibility chain.
    """
    syms = symbols.enumerate_symbols(k, n)
    out = []
    for seed in range(draws):
        rng = random.Random(f"tied {k} {n} {seed}")
        levels = sorted(rng.sample(range(7), rng.randint(2, 3)), reverse=True)
        cuts = sorted(rng.sample(range(1, n), len(levels) - 1))
        w = [levels[sum(c <= u for c in cuts)] for u in range(n)]
        a = rng.randint(1, 6)
        b = tuple(a + sum(w[u - 1] for u in s) for s in syms)
        if b not in out and all(x % y == 0 for x, y in zip(b, b[1:])):
            out.append(b)
    return out


@pytest.mark.parametrize("k, n", [(2, 5), (3, 5), (2, 6), (1, 5), (1, 6)])
def test_tied_vectors_pass_the_check_and_match_the_reference(k, n):
    # at 2 <= k <= n - 2 the kept draws move one variable after the
    # shift, with a up to 6; at k = 1 up to three move
    vectors = tied_chains(k, n)
    assert len(vectors) >= 3
    moved = []
    for b in vectors:
        maps = gkm._weighted_cached(b, k, n)
        gkm._check_column_maps(maps)
        moved.append(n - len(maps.kept))
        assert reference.poly_matrix(gkm.weighted_restrictions(b, k, n)) == \
            reference.weighted_restrictions(b, k, n), b
        if (k, n) in ((2, 5), (3, 5)):
            assert structure.localize_table(b, k, n) == \
                structure.context(b, k, n).equivariant_table(), b
    assert max(moved) >= (2 if k == 1 else 1), moved


def test_oracle_path_builds_no_weighted_matrix(monkeypatch):
    # past the b = 1 basis, the oracle reads only the checked column maps
    b = (6, 6, 6, 6, 3, 3, 3, 3, 3, 3)
    gkm.kt_restrictions(2, 5)
    gkm._weighted_cached.cache_clear()

    def refuse(*args):
        raise AssertionError("the oracle built a weighted matrix")

    monkeypatch.setattr(gkm, "weighted_restrictions", refuse)
    monkeypatch.setattr(gkm, "_validate_basis", refuse)
    for i, j in ((1, 1), (2, 3), (4, 6)):
        assert gkm.localize_product(b, 2, 5, i, j) == \
            structure.context(b, 2, 5).equivariant_constants(i, j)
