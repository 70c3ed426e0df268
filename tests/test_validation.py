"""One weight-vector check per vector: ``plucker.weight_vector``."""

import importlib.util
import pickle
import sys
from collections import Counter
from pathlib import Path

import pytest

from wgrass import cli, gkm, plucker, puzzles, structure
from wgrass.errors import InvalidWeightVectorError, ParameterError

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _count_checks(monkeypatch):
    """Record every call of the pair-sum predicate from now on."""
    calls = []
    check = plucker.validate_weight_vector

    def counting(b, k, n):
        calls.append((tuple(b), k, n))
        return check(b, k, n)

    monkeypatch.setattr(plucker, "validate_weight_vector", counting)
    return calls


def test_weight_vector_is_checked_once():
    wv = plucker.weight_vector([5, 1, 4, 3, 6, 2], 2, 4)
    assert isinstance(wv, plucker.WeightVector)
    assert wv == (5, 1, 4, 3, 6, 2) and wv.kn == (2, 4)
    assert plucker.weight_vector(wv, 2, 4) is wv
    # a vector checked at another (k, n) is checked again
    other = plucker.weight_vector((1,) * 6, 1, 6)
    again = plucker.weight_vector(other, 2, 4)
    assert again is not other and again.kn == (2, 4)


def test_weight_vector_pickles_with_its_type():
    wv = plucker.weight_vector((2, 2, 2, 1, 1, 1), 2, 4)
    back = pickle.loads(pickle.dumps(wv))
    assert type(back) is plucker.WeightVector
    assert back == wv and back.kn == (2, 4)


def test_weight_vector_errors():
    for bad in [(1,) * 5, (1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, True),
                (1, 1, 1, 1, 1, 1.0)]:
        with pytest.raises(ParameterError) as info:
            plucker.weight_vector(bad, 2, 4)
        assert not isinstance(info.value, InvalidWeightVectorError)
    with pytest.raises(InvalidWeightVectorError) as info:
        plucker.weight_vector((1, 1, 1, 1, 1, 2), 2, 4)
    assert isinstance(info.value, ParameterError)


def test_shape_check_returns_a_tuple():
    got = plucker.check_weight_vector_shape([5, 1, 4, 3, 6, 2], 2, 4)
    assert type(got) is tuple and got == (5, 1, 4, 3, 6, 2)
    wv = plucker.weight_vector(got, 2, 4)
    assert plucker.check_weight_vector_shape(wv, 2, 4) is wv
    other = plucker.weight_vector((1,) * 6, 1, 6)
    assert type(plucker.check_weight_vector_shape(other, 2, 4)) is tuple


def test_structure_context_checks_in_front_of_its_cache():
    ctx = structure.context((1,) * 6, 2, 4)
    assert structure.context([1] * 6, 2, 4) is ctx
    assert structure.context(plucker.weight_vector((1,) * 6, 2, 4), 2, 4) is ctx
    for bad in [(True, 1, 1, 1, 1, 1), (1.0, 1, 1, 1, 1, 1)]:
        with pytest.raises(ParameterError):
            structure.context(bad, 2, 4)


def test_oracle_cache_rejects_entries_equal_to_cached_ints():
    gkm.weighted_restrictions((1,) * 6, 2, 4)
    for bad in [(True, 1, 1, 1, 1, 1), (1.0, 1, 1, 1, 1, 1)]:
        with pytest.raises(ParameterError):
            gkm.weighted_restrictions(bad, 2, 4)
        with pytest.raises(ParameterError):
            gkm.localize_product(bad, 2, 4, 0, 0)


@pytest.mark.parametrize("bad", [-1, 6])
def test_symbol_index_checked_at_every_entry_point(bad):
    # m + 1 = 6 at (2, 4); a negative index must not wrap around
    b = (2, 2, 2, 1, 1, 1)
    calls = [
        lambda: gkm.localize_product(b, 2, 4, bad, 0),
        lambda: gkm.localize_product(b, 2, 4, 0, bad),
        lambda: structure.context(b, 2, 4).ordinary_constants(bad, 0),
        lambda: structure.context(b, 2, 4).equivariant_constants(0, bad),
        lambda: structure.context(b, 2, 4).equivariant_constants(bad, 1),
        lambda: structure.context(b, 2, 4).ordinary_constants(1, bad),
        lambda: structure.context(b, 2, 4).pieri_power(bad, 1),
        lambda: puzzles.conjugated_product(2, 4, bad, 1),
        lambda: puzzles.puzzles_for(2, 4, 0, 0, bad),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=f"symbol index {bad} out of range"):
            call()


def test_booleans_reach_no_cache_key_and_no_index():
    # True == 1 and hash(True) == hash(1): with the (1, 4) entries cached
    # first, an untyped cache would answer True from them
    wv = plucker.weight_vector((1,) * 4, 1, 4)
    gkm.kt_restrictions(1, 4)
    plucker._permutation_context(1, 4)
    list(plucker.scope_ladder(1, 4))
    structure.context(wv, 1, 4)
    b = (1,) * 6
    calls = [
        lambda: gkm.kt_restrictions(True, 4),
        lambda: plucker.generate_relations(True, 4),
        lambda: plucker._permutation_context(True, 4),
        lambda: list(plucker.scope_ladder(True, 4)),
        lambda: plucker.weight_vector(wv, True, 4),
        lambda: structure.context(wv, True, 4),
        lambda: gkm.localize_product(b, 2, 4, True, 0),
        lambda: structure.context(b, 2, 4).equivariant_constants(True, 0),
        lambda: structure.context(b, 2, 4).pieri_power(1, True),
        lambda: puzzles.conjugated_product(2, 4, True, 0),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_structure_wrappers_accept_lists_and_reject_booleans():
    b = (6, 6, 6, 2, 2, 2)
    ctx = structure.context(list(b), 2, 4)
    assert ctx is structure.context(b, 2, 4)
    assert ctx.equivariant_constants(2, 3) == gkm.localize_product(b, 2, 4, 2, 3)
    structure.context((1,) * 6, 2, 4).ordinary_constants(3, 3)
    for bad in [(True, 1, 1, 1, 1, 1), (1.0, 1, 1, 1, 1, 1)]:
        with pytest.raises(ParameterError):
            structure.context(bad, 2, 4).ordinary_constants(3, 3)


def test_equivalence_rejects_invalid_vectors():
    valid = (2, 6, 6, 2, 2, 6)
    invalid = (1, 1, 1, 1, 1, 2)
    with pytest.raises(InvalidWeightVectorError):
        plucker.equivalence(invalid, valid, 2, 4)
    with pytest.raises(InvalidWeightVectorError):
        plucker.equivalence(valid, invalid, 2, 4)


@pytest.mark.parametrize(
    "argv, checks",
    [
        (["--jobs", "1", "ring", "[2,2,2,1,1,1]", "--k", "2", "--n", "4"], 1),
        (["torsion", "[30,30,25,10,5,5]", "--k", "2", "--n", "4"], 1),
        (["divisive", "[2,6,6,2,2,6]", "--k", "2", "--n", "4"], 1),
        (["classify", "[2,6,6,2,2,6]", "[6,6,6,2,2,2]", "--k", "2", "--n", "4"],
         2),
        (["solve-wa", "[5,1,4,3,6,2]", "--k", "2", "--n", "4"], 1),
        (["validate", "[5,1,4,3,6,2]", "--k", "2", "--n", "4"], 1),
    ],
)
def test_one_check_per_cli_request(monkeypatch, capsys, argv, checks):
    calls = _count_checks(monkeypatch)
    assert cli.main(argv) == 0
    assert len(calls) == checks


def test_verify_pass_makes_at_most_nine_checks(monkeypatch):
    # One pass of the benchmark's verify workload at seed 1 from cold
    # vector caches.  Per size, the pipeline context and the oracle basis
    # check the weighted vector once each, and the unit basis checks
    # (1, ..., 1) if it is not cached yet; no check is made per cell.
    workloads = _load_bench("workloads")
    child = _load_bench("child")
    structure.context.cache_clear()
    gkm._weighted_cached.cache_clear()
    calls = _count_checks(monkeypatch)
    for req in workloads.verify_requests(1):
        assert child._verify_request(req)["ok"], req["id"]
    assert len(calls) <= 9
    assert max(Counter(calls).values()) == 2
