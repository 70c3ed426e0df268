"""Schubert symbol combinatorics."""

import random

import pytest

import reference
from wgrass import plucker, symbols
from wgrass.errors import ParameterError


def q_binomial(n, k):
    """Gaussian binomial [n choose k]_t as a coefficient list (independent route)."""
    if k < 0 or k > n:
        return [0]
    if k == 0 or k == n:
        return [1]
    # [n k] = [n-1 k-1] + t^k [n-1 k]
    left = q_binomial(n - 1, k - 1)
    right = q_binomial(n - 1, k)
    size = max(len(left), len(right) + k)
    out = [0] * size
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return out


def test_enumeration_2_4():
    assert symbols.enumerate_symbols(2, 4) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]


def test_enumeration_2_5_tail():
    syms = symbols.enumerate_symbols(2, 5)
    assert len(syms) == 10
    assert syms[-3:] == [(3, 4), (3, 5), (4, 5)]


def test_enumeration_projective():
    assert symbols.enumerate_symbols(1, 3) == [(1,), (2,), (3,)]


def test_enumeration_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        symbols.enumerate_symbols(3, 3)
    with pytest.raises(ParameterError):
        symbols.enumerate_symbols(0, 4)


def test_booleans_are_no_k_or_n():
    # True == 1 and hashes alike, so a cached lattice of True would be
    # served for (1, n) afterwards
    for k, n in ((True, 4), (1, True), (False, 4)):
        with pytest.raises(ParameterError):
            symbols.check_kn(k, n)
    symbols.lattice(1, 4)
    with pytest.raises(ParameterError):
        symbols.lattice(True, 4)
    assert symbols.lattice(1, 4).k.__class__ is int
    with pytest.raises(ParameterError):
        plucker.validate_weight_vector([1, 1, 1, 1], True, 4)


def test_count_is_the_binomial_without_a_lattice():
    assert symbols.count(2, 4) == len(symbols.enumerate_symbols(2, 4)) == 6
    assert symbols.count(10, 20) == 184756
    with pytest.raises(ParameterError):
        symbols.count(3, 3)


def test_dim_values():
    assert symbols.dim((1, 2)) == 0
    assert symbols.dim((3, 4)) == 4
    assert symbols.dim((2, 4)) == 3
    assert symbols.dim((2, 3)) == 2


def test_word_roundtrip():
    lat = symbols.lattice(2, 5)
    for sym, w in zip(lat.symbols, lat.words):
        assert w.count("1") == 2 and len(w) == 5
        assert reference.symbol_of_word(w) == sym


def test_reversal_set_examples():
    assert symbols.reversal_set((3, 4)) == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert symbols.reversal_set((1, 2)) == set()


def test_reversal_inversion_counts():
    for (k, n) in [(2, 4), (2, 5), (3, 6), (1, 5)]:
        lat = symbols.lattice(k, n)
        for i in range(lat.m + 1):
            assert len(lat.R[i]) == lat.d[i]


def test_reversal_inversion_duality():
    lat = symbols.lattice(2, 5)
    for i in range(lat.m + 1):
        for j in lat.R[i]:
            shared = set(lat.symbols[i]) & set(lat.symbols[j])
            assert len(shared) == lat.k - 1


BRUTE_FORCE_SIZES = [(2, 4), (2, 5), (3, 5), (1, 5), (4, 5), (3, 6), (4, 8)]


def test_arrows_by_brute_force():
    # independent oracle: scan all symbols for dominating covers
    for (k, n) in BRUTE_FORCE_SIZES:
        lat = symbols.lattice(k, n)
        for i, sym in enumerate(lat.symbols):
            expected = sorted(
                j
                for j, other in enumerate(lat.symbols)
                if symbols.dim(other) == symbols.dim(sym) + 1
                and symbols.leq(sym, other)
            )
            assert lat.arrows[i] == expected


def test_order_queries_by_brute_force():
    # leq_idx and upper_set against a scan of every symbol with leq; the
    # order is also the transitive closure of the covers
    for (k, n) in BRUTE_FORCE_SIZES:
        lat = symbols.lattice(k, n)
        syms = lat.symbols
        for i in range(lat.m + 1):
            reach, stack = {i}, [i]
            while stack:
                for u in lat.arrows[stack.pop()]:
                    if u not in reach:
                        reach.add(u)
                        stack.append(u)
            for j in range(lat.m + 1):
                leq = symbols.leq(syms[i], syms[j])
                assert lat.leq_idx(i, j) == leq == (j in reach)
                expected = [
                    q
                    for q in range(lat.m + 1)
                    if symbols.leq(syms[i], syms[q])
                    and symbols.leq(syms[j], syms[q])
                ]
                assert lat.upper_set(i, j) == expected


def test_lattice_build_makes_no_order_comparisons(monkeypatch):
    calls = []
    leq = symbols.leq

    def counting_leq(a, b):
        calls.append((a, b))
        return leq(a, b)

    monkeypatch.setattr(symbols, "leq", counting_leq)
    lat = symbols.SymbolLattice(6, 12)
    assert lat.m + 1 == 924 and calls == []


def test_arrows_example_1_3():
    lat = symbols.lattice(2, 4)
    i = lat.index[(1, 3)]
    assert {lat.symbols[j] for j in lat.arrows[i]} == {(1, 4), (2, 3)}


def test_sigma_r():
    assert symbols.sigma_r((1, 2), 4) == (3, 4)
    assert symbols.sigma_r((1, 3), 4) == (2, 4)
    for sym in symbols.enumerate_symbols(2, 5):
        assert symbols.sigma_r(symbols.sigma_r(sym, 5), 5) == sym
        assert symbols.sigma_r_word(symbols.word(sym, 5)) == symbols.word(
            symbols.sigma_r(sym, 5), 5
        )


def test_lex_refines_partial_order():
    for (k, n) in [(2, 4), (2, 5), (3, 6)]:
        lat = symbols.lattice(k, n)
        for i in range(lat.m + 1):
            for j in range(lat.m + 1):
                if lat.leq_idx(i, j):
                    assert i <= j


def test_gaussian_binomial_census():
    rng = random.Random(20240)
    trials = 0
    while trials < 100:
        n = rng.randint(2, 10)
        k = rng.randint(1, n - 1)
        lat = symbols.lattice(k, n)
        if lat.m + 1 > 252:
            continue
        census = [0] * (k * (n - k) + 1)
        for d in lat.d:
            census[d] += 1
        assert census == q_binomial(n, k)
        trials += 1


def test_chains_are_saturated_and_memoized():
    lat = symbols.lattice(2, 4)
    top, bottom = 5, 0
    chains = lat.chains(top, bottom)
    assert all(ch[0] == top and ch[-1] == bottom for ch in chains)
    for ch in chains:
        for a, b in zip(ch, ch[1:]):
            assert lat.d[a] == lat.d[b] + 1 and lat.leq_idx(b, a)
    assert lat.chains(top, bottom) is chains
    assert lat.chains(0, 5) == ()
    assert lat.chains(2, 2) == ((2,),)
