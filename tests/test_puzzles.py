"""Puzzle enumeration and weight tables."""

import hashlib

import pytest

from wgrass import puzzles, symbols
from wgrass.errors import CapacityError, ParameterError
from wgrass.polynomial import Poly


def y(i, n=4):
    return Poly.variable(n, i)


def test_word_validation():
    with pytest.raises(ParameterError):
        puzzles.enumerate_puzzles("10", "100", "100")
    with pytest.raises(ParameterError):
        puzzles.enumerate_puzzles("102", "100", "100")


def test_identity_boundary_single_weightless_puzzle():
    lat = symbols.lattice(2, 4)
    w0 = symbols.sigma_r_word(lat.words[0])
    found = puzzles.enumerate_puzzles(w0, w0, w0)
    assert len(found) == 1
    assert found[0].equivariant == ()
    assert found[0].weight() == Poly.one(4)


def test_self_boundary_weight_l3():
    # conjugated total weight at the (3, 3; 3) boundary of (2, 4)
    prod = puzzles.conjugated_product(2, 4, 3, 3)
    assert prod[3] == (y(1) - y(3)) * (y(1) - y(2))
    assert prod[4] == y(1) - y(2)
    assert prod[5] == Poly.one(4)


def test_conjugated_entries_match_worked_products():
    table = puzzles.conjugated_constants(2, 4)
    assert table[(3, 3, 5)] == Poly.one(4)
    assert table[(3, 3, 4)] == y(1) - y(2)
    assert table[(3, 2, 4)] == y(1) - y(4)
    assert table[(2, 3, 4)] == y(1) - y(4)
    assert (3, 2, 5) not in table


def test_raw_orientation_worked_products():
    # the raw-orientation products mirror the conjugated ones entrywise
    table = puzzles.kt_constants(2, 4)
    assert table[(3, 3, 3)] == (y(4) - y(2)) * (y(4) - y(3))
    assert table[(3, 3, 1)] == y(4) - y(3)
    assert table[(3, 3, 0)] == Poly.one(4)
    assert table[(3, 2, 1)] == y(4) - y(1)


def test_orientations_are_sigma_r_conjugate():
    lat = symbols.lattice(2, 4)
    raw = puzzles.kt_constants(2, 4)
    conj = puzzles.conjugated_constants(2, 4)
    sr = lat.sigma_r_index
    swap = {i: lat.n + 1 - i for i in range(1, lat.n + 1)}
    for (i, j, l), poly in conj.items():
        mirrored = raw[(sr[i], sr[j], sr[l])].permute_variables(swap)
        assert mirrored == poly


def test_piece_count_balance():
    lat = symbols.lattice(2, 5)
    for i in range(lat.m + 1):
        for j in range(lat.m + 1):
            for l in range(lat.m + 1):
                for puz in puzzles.puzzles_for(2, 5, i, j, l, conjugated=True):
                    assert len(puz.equivariant) == lat.d[i] + lat.d[j] - lat.d[l]
                for puz in puzzles.puzzles_for(2, 5, i, j, l, conjugated=False):
                    balance = lat.dprime[i] + lat.dprime[j] - lat.dprime[l]
                    assert len(puz.equivariant) == balance


def test_factors_are_positive_roots():
    for i in range(6):
        for j in range(6):
            for l in range(6):
                for puz in puzzles.puzzles_for(2, 4, i, j, l, conjugated=True):
                    for a, c in puz.equivariant:
                        assert 1 <= c < a <= 4
                    for u, v in puz.conjugated_pairs():
                        assert 1 <= u < v <= 4


def test_degree_matching_entries_are_symmetric_counts():
    lat = symbols.lattice(2, 5)
    for i in range(lat.m + 1):
        for j in range(i, lat.m + 1):
            for l in range(lat.m + 1):
                if lat.d[l] != lat.d[i] + lat.d[j]:
                    continue
                a = len(puzzles.puzzles_for(2, 5, i, j, l, conjugated=True))
                b = len(puzzles.puzzles_for(2, 5, j, i, l, conjugated=True))
                assert a == b >= 0


def test_enumeration_deterministic():
    first = puzzles.puzzles_for(2, 4, 3, 3, 3, conjugated=True)
    second = puzzles.puzzles_for(2, 4, 3, 3, 3, conjugated=True)
    assert [p.pieces for p in first] == [p.pieces for p in second]


def _enumeration_digest(sizes, conjugated, upper_only):
    digest = hashlib.sha256()
    for k, n in sizes:
        lat = symbols.lattice(k, n)
        for i in range(lat.m + 1):
            for j in range(lat.m + 1):
                ls = lat.upper_set(i, j) if upper_only else range(lat.m + 1)
                for l in ls:
                    for puz in puzzles.puzzles_for(k, n, i, j, l, conjugated):
                        record = (puz.boundary, puz.pieces, puz.equivariant)
                        digest.update(repr(record).encode())
    return digest.hexdigest()


def test_enumeration_pinned():
    # Every puzzle, its pieces in fill order and its equivariant pairs, in
    # enumeration order: a faster search must reproduce all of it exactly.
    # Conjugated at every upper-set triple of (3,5) and (2,6); raw at
    # every triple of (2,4).
    assert _enumeration_digest([(3, 5), (2, 6)], True, True) == (
        "4e58f3cb5ced0fb706dc0956aa11ff064a1fba094825efa792ca074697511804"
    )
    assert _enumeration_digest([(2, 4)], False, False) == (
        "278d89f1566252c19571a369fceeb622162696c4291d2af95b4c946296422a53"
    )


def test_table_capacity_guard():
    with pytest.raises(CapacityError):
        puzzles.kt_constants(2, 7)


def test_render_ascii_mentions_pieces():
    puz = puzzles.puzzles_for(2, 4, 3, 3, 3, conjugated=True)[0]
    text = puzzles.render_ascii(puz)
    assert "equivariant pieces" in text and "size 4" in text
