"""Puzzle enumeration and weight tables."""

import hashlib
import json
import random
from itertools import product

import pytest

import reference
from wgrass import cli, plucker, puzzles, structure, symbols
from wgrass.errors import ParameterError
from wgrass.polynomial import Poly, packing


def y(i, n=4):
    return Poly.variable(n, i)


def raw_puzzles(k, n, i, j, l):
    """Raw-orientation puzzles: the words of (i, j; l) as they are."""
    words = symbols.lattice(k, n).words
    return puzzles.enumerate_puzzles(words[i], words[j], words[l])


def raw_weight(puz):
    """Product of y_a - y_c over the equivariant pieces (a, c)."""
    total = Poly.one(puz.n)
    for a, c in puz.equivariant:
        total = total * (Poly.variable(puz.n, a) - Poly.variable(puz.n, c))
    return total


def kt_constants(k, n):
    """Raw-orientation table (i, j, l) -> weight polynomial (zeros omitted)."""
    lat = symbols.lattice(k, n)
    table = {}
    for i in range(lat.m + 1):
        for j in range(lat.m + 1):
            for l in range(lat.m + 1):
                total = Poly.zero(n)
                for puz in raw_puzzles(k, n, i, j, l):
                    total = total + raw_weight(puz)
                if not total.is_zero():
                    table[(i, j, l)] = total
    return table


def test_word_validation():
    with pytest.raises(ParameterError):
        puzzles.enumerate_puzzles("10", "100", "100")
    with pytest.raises(ParameterError):
        puzzles.enumerate_puzzles("102", "100", "100")


def test_south_word_is_looked_up_after_the_search():
    w0 = symbols.sigma_r_word(symbols.lattice(2, 4).words[0])
    assert puzzles.enumerate_puzzles(w0, w0, w0)
    # the (nw, ne) search is cached now; the south word is still checked
    for bad in ("110", "11000", "1102"):
        with pytest.raises(ParameterError):
            puzzles.enumerate_puzzles(w0, w0, bad)
    # well formed, but no tiling has this south word
    assert puzzles.enumerate_puzzles(w0, w0, "0000") == []


def test_south_buckets_partition_the_leaves():
    n = 5
    words = symbols.lattice(3, n).words
    souths = ["".join(bits) for bits in product("01", repeat=n)]
    for nw, ne in product(words, repeat=2):
        leaves = sum(map(len, puzzles._enumerate_cached(nw, ne).values()))
        total = 0
        for south in souths:
            found = puzzles.enumerate_puzzles(nw, ne, south)
            assert all(puz.boundary == (nw, ne, south) for puz in found)
            total += len(found)
        assert total == leaves, (nw, ne)


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (2, 6)])
def test_frontier_sums_match_enumeration(k, n):
    # enumeration is the independent reference for the transfer matrix
    rng = random.Random(f"frontier:{k},{n}")
    a = rng.randint(1, 3)
    W = [a * rng.randint(1, 4)] + [0] * (n - 1)
    ctx = structure.context(plucker.weights_from_wa(W, a, k, n), k, n)
    # factors and sums are packed integer maps, packed for this degree
    top = puzzles.max_equivariant_pieces(n)
    pk = packing(n, top)
    unit = {
        (u, v): pk.of((y(u, n) - y(v, n)).terms)
        for u in range(1, n) for v in range(u + 1, n + 1)
    }
    pairs = list(product(symbols.lattice(k, n).words, repeat=2))
    for nvars, factors in ((n, unit), (n + 1, ctx.ordinary_factors),
                           (n + 1, ctx.equivariant_factors)):
        pk = packing(nvars, top)
        polys = {pair: pk.poly(f) for pair, f in factors.items()}
        swept = puzzles.sweep(pairs, factors)
        for nw, ne in pairs:
            found = puzzles._enumerate_cached(nw, ne)
            sums = swept[(nw, ne)]
            assert sums.keys() == found.keys(), (nw, ne)
            for south, tilings in found.items():
                total = Poly.zero(nvars)
                for puz in tilings:
                    weight = Poly.one(nvars)
                    for pair in puz.conjugated_pairs():
                        weight = weight * polys[pair]
                    total = total + weight
                assert all(sums[south].values()), (nw, ne, south)
                assert pk.poly(sums[south]) == total, (nw, ne, south)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 5), (2, 6)])
def test_sweep_matches_forward_reference(k, n):
    # one backward sweep over every pair of words against one forward
    # pass per pair, keys with a zero sum included
    lat = symbols.lattice(k, n)
    b = tuple(2 if 1 in sym else 1 for sym in lat.symbols)
    ctx = structure.context(b, k, n)
    pk = packing(n, puzzles.max_equivariant_pieces(n))
    unit = {
        (u, v): pk.of((y(u, n) - y(v, n)).terms)
        for u in range(1, n) for v in range(u + 1, n + 1)
    }
    pairs = list(product(lat.words, repeat=2))
    zero_sums = 0
    for factors in (unit, ctx.equivariant_factors, ctx.ordinary_factors):
        swept = puzzles.sweep(pairs, factors)
        assert list(swept) == pairs
        for nw, ne in pairs:
            want = reference.reference_frontier_sums(nw, ne, factors)
            assert swept[(nw, ne)] == want, (nw, ne)
            zero_sums += sum(not total for total in want.values())
    assert zero_sums  # the ordinary factors b(p) B vanish on some pairs


def test_sweep_of_no_pairs_and_of_mixed_sizes():
    assert puzzles.sweep([], {}) == {}
    with pytest.raises(ParameterError):
        puzzles.sweep([("0011", "0011"), ("00111", "00111")], {})


def test_identity_boundary_single_weightless_puzzle():
    lat = symbols.lattice(2, 4)
    w0 = symbols.sigma_r_word(lat.words[0])
    found = puzzles.enumerate_puzzles(w0, w0, w0)
    assert len(found) == 1
    assert found[0].equivariant == ()
    weight = Poly.one(4)
    for u, v in found[0].conjugated_pairs():
        weight = weight * (y(u) - y(v))
    assert weight == Poly.one(4)


def test_self_boundary_weight_l3():
    # conjugated total weight at the (3, 3; 3) boundary of (2, 4)
    prod = puzzles.conjugated_product(2, 4, 3, 3)
    assert prod[3] == (y(1) - y(3)) * (y(1) - y(2))
    assert prod[4] == y(1) - y(2)
    assert prod[5] == Poly.one(4)


def test_conjugated_entries_match_worked_products():
    table = reference.conjugated_constants(2, 4)
    assert table[(3, 3, 5)] == Poly.one(4)
    assert table[(3, 3, 4)] == y(1) - y(2)
    assert table[(3, 2, 4)] == y(1) - y(4)
    assert table[(2, 3, 4)] == y(1) - y(4)
    assert (3, 2, 5) not in table


def test_raw_orientation_worked_products():
    # the raw-orientation products mirror the conjugated ones entrywise
    table = kt_constants(2, 4)
    assert table[(3, 3, 3)] == (y(4) - y(2)) * (y(4) - y(3))
    assert table[(3, 3, 1)] == y(4) - y(3)
    assert table[(3, 3, 0)] == Poly.one(4)
    assert table[(3, 2, 1)] == y(4) - y(1)


def test_orientations_are_sigma_r_conjugate():
    lat = symbols.lattice(2, 4)
    raw = kt_constants(2, 4)
    conj = reference.conjugated_constants(2, 4)
    sr = lat.sigma_r_index
    swap = {i: lat.n + 1 - i for i in range(1, lat.n + 1)}
    for (i, j, l), poly in conj.items():
        mirrored = reference.permute_variables(raw[(sr[i], sr[j], sr[l])], swap)
        assert mirrored == poly


def test_piece_count_balance():
    lat = symbols.lattice(2, 5)
    codim = [lat.k * (lat.n - lat.k) - d for d in lat.d]
    for i in range(lat.m + 1):
        for j in range(lat.m + 1):
            for l in range(lat.m + 1):
                for puz in puzzles.puzzles_for(2, 5, i, j, l):
                    assert len(puz.equivariant) == lat.d[i] + lat.d[j] - lat.d[l]
                for puz in raw_puzzles(2, 5, i, j, l):
                    balance = codim[i] + codim[j] - codim[l]
                    assert len(puz.equivariant) == balance


def test_factors_are_positive_roots():
    for i in range(6):
        for j in range(6):
            for l in range(6):
                for puz in puzzles.puzzles_for(2, 4, i, j, l):
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
                a = len(puzzles.puzzles_for(2, 5, i, j, l))
                b = len(puzzles.puzzles_for(2, 5, j, i, l))
                assert a == b >= 0


def test_enumeration_deterministic():
    first = puzzles.puzzles_for(2, 4, 3, 3, 3)
    second = puzzles.puzzles_for(2, 4, 3, 3, 3)
    assert [p.pieces for p in first] == [p.pieces for p in second]


def _enumeration_digest(sizes, conjugated, upper_only):
    find = puzzles.puzzles_for if conjugated else raw_puzzles
    digest = hashlib.sha256()
    for k, n in sizes:
        lat = symbols.lattice(k, n)
        for i in range(lat.m + 1):
            for j in range(lat.m + 1):
                ls = lat.upper_set(i, j) if upper_only else range(lat.m + 1)
                for l in ls:
                    for puz in find(k, n, i, j, l):
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


def test_raw_orientation_is_the_sigma_r_image():
    # the raw words of (i, j; l) are the reversed words of its sigma_r
    # image, so the raw puzzles are the same cached objects
    for k, n in [(2, 4), (2, 5), (3, 5)]:
        lat = symbols.lattice(k, n)
        sr = lat.sigma_r_index
        for i in range(lat.m + 1):
            for j in range(lat.m + 1):
                for l in range(lat.m + 1):
                    raw = raw_puzzles(k, n, i, j, l)
                    image = puzzles.puzzles_for(k, n, sr[i], sr[j], sr[l])
                    assert len(raw) == len(image)
                    assert all(a is b for a, b in zip(raw, image))


def test_cli_raw_orientation_reads_the_words_as_they_are(capsys):
    for i, j, l in product(range(6), repeat=3):
        code = cli.main(["puzzles", "--k", "2", "--n", "4", "--i", str(i),
                         "--j", str(j), "--l", str(l), "--orientation", "raw"])
        data = json.loads(capsys.readouterr().out)
        found = raw_puzzles(2, 4, i, j, l)
        assert code == 0 and data["count"] == len(found)
        for entry, puz in zip(data["puzzles"], found):
            assert entry["equivariant_pieces"] == [list(p) for p in puz.equivariant]
            assert entry["weight"] == raw_weight(puz).render()
    for i, j, bad in [(6, 0, 6), (-1, 0, -1), (0, -1, -1)]:
        code = cli.main(["puzzles", "--k", "2", "--n", "4", "--i", str(i),
                         "--j", str(j), "--l", "0", "--orientation", "raw"])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and error == f"symbol index {bad} out of range"


def test_render_ascii_mentions_pieces():
    puz = puzzles.puzzles_for(2, 4, 3, 3, 3)[0]
    text = puzzles.render_ascii(puz)
    assert "equivariant pieces" in text and "size 4" in text
