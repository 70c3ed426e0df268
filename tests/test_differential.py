"""Seeded differential test: puzzle pipeline == localization oracle.

Random divisive vectors come from exponent data (W, a) through
``plucker.weights_from_wa``: W carries a multiple t of a at one random
position u, so the vector is a + t on the symbols containing u and a
elsewhere.  The transposition (1 u) of [n] induces the Plucker
permutation that puts it in divisive presentation.  On every drawn
vector the pipeline table must equal ``gkm.localize_product`` cell by
cell and pass ``verify_integrality`` and ``verify_positivity``.  The
unit (2,7) table and two chains are compared in full as well.
"""

import random

import pytest

from wgrass import gkm, plucker, structure, symbols

# (k, n, vectors drawn, cells compared per vector; None = all)
PLAN = [(2, 5, 2, None), (3, 5, 2, None), (2, 6, 1, None), (2, 7, 1, None)]


def draw_presented(rng, k, n):
    """(raw vector, presented vector) for one random divisive draw."""
    a = rng.randint(1, 3)
    t = a * rng.randint(1, 4)
    u = rng.randint(1, n)
    W = [0] * n
    W[u - 1] = t
    raw = plucker.weights_from_wa(W, a, k, n)
    swap = {1: u, u: 1}
    syms = symbols.enumerate_symbols(k, n)
    index = {sym: i for i, sym in enumerate(syms)}
    sigma = [
        index[tuple(sorted(swap.get(s, s) for s in sym))] for sym in syms
    ]
    return raw, plucker.apply_permutation(sigma, raw, k, n)


@pytest.mark.parametrize("k,n,draws,sampled", PLAN)
def test_pipeline_matches_oracle_on_random_divisive_vectors(k, n, draws, sampled):
    rng = random.Random(f"differential:{k},{n}")
    m1 = symbols.lattice(k, n).m + 1
    pairs = [(i, j) for i in range(m1) for j in range(i, m1)]
    for _ in range(draws):
        raw, b = draw_presented(rng, k, n)
        assert plucker.validate_weight_vector(raw, k, n)
        assert plucker.is_descending_divisible(b), (raw, b)
        assert sorted(b) == sorted(raw)
        ctx = structure.context(b, k, n)
        cells = pairs if sampled is None else rng.sample(pairs, sampled)
        table = {}
        for i, j in cells:
            table[(i, j)] = ctx.equivariant_constants(i, j)
            assert table[(i, j)] == gkm.localize_product(b, k, n, i, j), (b, i, j)
        ok, info = structure.verify_integrality(table)
        assert ok, (b, info)
        ok, info = structure.verify_positivity(table, b, k, n)
        assert ok, (b, info)


def test_pipeline_matches_oracle_on_the_unit_2_7_table():
    b = (1,) * symbols.count(2, 7)
    assert structure.localize_table(b, 2, 7) == \
        structure.context(b, 2, 7).equivariant_table()


@pytest.mark.parametrize("k, n", [(7, 8), (1, 10)])
def test_pipeline_matches_oracle_on_every_cell_of_a_chain(k, n):
    # the chain (2, ..., 2, 1) in full, on both routes
    b = (2,) * (symbols.lattice(k, n).m) + (1,)
    assert structure.localize_table(b, k, n) == \
        structure.context(b, k, n).equivariant_table()
