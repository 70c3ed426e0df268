"""Lens cohomology, certificates, torsion reports."""

import random
from itertools import combinations
from math import gcd, lcm

import pytest

from wgrass import plucker, symbols, torsion
from wgrass.errors import InvalidWeightVectorError, ParameterError
from test_symbols import q_binomial


def lcm_of_subset_products(values, e):
    """Independent route for l_e: lcm of all products of e-subsets."""
    out = 1
    for subset in combinations(values, e):
        prod = 1
        for x in subset:
            prod *= x
        out = lcm(out, prod)
    return out


def test_l_e_examples():
    assert torsion.l_e((1, 1, 1, 1), 2) == 1
    assert torsion.l_e((2, 4, 3), 2) == 24
    assert torsion.l_e((6, 6), 1) == 6
    with pytest.raises(ParameterError):
        torsion.l_e((2, 3), 4)


def test_l_e_matches_subset_lcm():
    rng = random.Random(12)
    for _ in range(80):
        values = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 5)))
        for e in range(1, len(values) + 1):
            assert torsion.l_e(values, e) == lcm_of_subset_products(values, e)


def test_l_e_monotone_and_quotient_divides():
    rng = random.Random(13)
    for _ in range(60):
        values = tuple(rng.randint(1, 24) for _ in range(rng.randint(2, 5)))
        for e in range(1, len(values)):
            assert torsion.l_e(values, e + 1) % torsion.l_e(values, e) == 0
        x = rng.randint(1, 24)
        for e in range(1, len(values) + 1):
            mu = torsion.l_e(values + (x,), e) // torsion.l_e(values, e)
            assert torsion.l_e(values + (x,), e) % torsion.l_e(values, e) == 0
            assert x % mu == 0


def test_lens_cohomology_real_projective_seven():
    # quotient of S^7 by the order-2 action with unit weights
    groups = torsion.lens_cohomology(torsion.LensSpec(2, (1, 1, 1, 1)))
    assert groups == {
        0: (1, ()),
        2: (0, (2,)),
        4: (0, (2,)),
        6: (0, (2,)),
        7: (1, ()),
    }


def test_lens_cohomology_trivial_group_is_sphere():
    groups = torsion.lens_cohomology(torsion.LensSpec(1, (4, 9, 25)))
    assert groups == {0: (1, ()), 5: (1, ())}


def test_lens_cohomology_coprime_contents():
    groups = torsion.lens_cohomology(torsion.LensSpec(6, (2, 3)))
    assert groups == {0: (1, ()), 3: (1, ())}


def test_lens_euler_characteristic_vanishes():
    rng = random.Random(14)
    for _ in range(50):
        spec = torsion.LensSpec(
            rng.randint(1, 12),
            tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 5))),
        )
        chi = sum(
            (-1) ** q * rank for q, (rank, _) in torsion.lens_cohomology(spec).items()
        )
        assert chi == 0


def test_building_sequence_2_4():
    b = (5, 1, 4, 3, 6, 2)
    seq = torsion.building_sequence(b, 2, 4)
    by_stage = {i: spec for i, _, spec in seq}
    assert by_stage[5] == torsion.LensSpec(2, (1, 4, 3, 6))
    assert by_stage[1] == torsion.LensSpec(1, (5,))
    ones = torsion.building_sequence((1,) * 6, 2, 4)
    for _, d, spec in ones:
        assert spec.order == 1 and spec.weights == (1,) * d


def test_certificate_identity_for_parametric_family():
    b = (30, 30, 25, 10, 5, 5)  # (alpha, beta, gamma) = (2, 3, 5)
    assert plucker.validate_weight_vector(b, 2, 4)
    for p in (2, 3, 5):
        w = torsion.no_p_torsion_certificate(b, 2, 4, p)
        assert w is not None and w.perm == tuple(range(6))


def test_certificate_2_5_family():
    # second (2, 5) family at alpha = beta = s = t = 1; validity forces
    # the leading weight gamma = 2
    assert not plucker.validate_weight_vector(
        (3, 2, 2, 2, 1, 1, 1, 1, 1, 1), 2, 5
    )
    b = (2, 2, 2, 2, 1, 1, 1, 1, 1, 1)
    assert plucker.validate_weight_vector(b, 2, 5)
    for p in (2, 3):
        assert torsion.no_p_torsion_certificate(b, 2, 5, p) is not None


def test_certificate_all_ones():
    assert torsion.no_p_torsion_certificate((1,) * 6, 2, 4, 7).perm == tuple(
        range(6)
    )


def test_divisive_witness_certifies_every_prime():
    for b, k, n in [
        ((2, 2, 2, 1, 1, 1), 2, 4),
        ((6, 6, 6, 2, 2, 2), 2, 4),
        ((2, 2, 2, 2, 1, 1, 1, 1, 1, 1), 2, 5),
    ]:
        witness = plucker.is_divisive(b, k, n)
        assert witness is not None
        for p in (2, 3, 5, 7):
            assert torsion.certificate_condition(b, k, n, p, witness.perm)


def test_gr24_report_b1_eq_b2_rule():
    report = torsion.gr24_torsion_report((4, 6, 6, 5, 5, 7))
    assert report["b1_eq_b2_rule"] is not None
    assert report["fully_torsion_free"]
    assert report["degree_3"]["status"] == "torsion-free"


def test_gr24_report_all_ones():
    report = torsion.gr24_torsion_report((1,) * 6)
    assert report["fully_torsion_free"]


def test_gr24_report_computes_eta_pairs():
    report = torsion.gr24_torsion_report((5, 1, 4, 3, 6, 2))
    assert 3 not in report["torsion_free_degrees"]
    assert set(report["torsion_free_degrees"]) == set(range(9)) - {3}
    for p, info in report["degree_3"]["primes"].items():
        assert info["eta_pairs"], f"no admissible permutations for p={p}"
        for entry in info["eta_pairs"]:
            img = plucker.apply_permutation(
                tuple(entry["perm"]), (5, 1, 4, 3, 6, 2), 2, 4
            )
            eta = lcm(img[0], img[1], img[3]) // lcm(img[0], img[1])
            eta_prime = lcm(img[0], img[1], img[2]) // lcm(img[0], img[1])
            assert (entry["eta"], entry["eta_prime"]) == (eta, eta_prime)
            assert entry["clears_p"] == (gcd(eta, eta_prime) % int(p) != 0)


def test_gr24_report_rejects_invalid():
    with pytest.raises(ParameterError):
        torsion.gr24_torsion_report((1, 1, 1, 1, 1, 2))


def test_gr24_report_undecided_instance_stays_unknown():
    # no certificate, no special rule, and the eta bounds do not clear
    # every prime: degree 3 must be reported unknown, everything else clean
    b = (8, 5, 7, 5, 7, 4)
    assert plucker.validate_weight_vector(b, 2, 4)
    report = torsion.gr24_torsion_report(b)
    assert report["degree_3"]["status"] == "unknown"
    assert not report["fully_torsion_free"]
    full = torsion.torsion_report(b, 2, 4)
    assert not full["torsion_free"]
    assert full["cohomology"]["3"]["torsion"] == "unknown"
    for q in range(9):
        if q != 3:
            assert full["cohomology"][str(q)]["torsion"] == []


def test_general_report_unknown_without_certificates():
    b = (6, 7, 6, 8, 6, 5, 7, 6, 8, 7)
    assert plucker.validate_weight_vector(b, 2, 5)
    assert torsion.no_p_torsion_certificate(b, 2, 5, 7, "sn") is None
    report = torsion.torsion_report(b, 2, 5, scope="sn")
    assert not report["torsion_free"]
    assert not report["primes"]["7"]["certified"]
    assert report["cohomology"]["5"]["torsion"] == "unknown"
    assert report["cohomology"]["0"]["torsion"] == []


def test_torsion_report_certified_census():
    report = torsion.torsion_report((30, 30, 25, 10, 5, 5), 2, 4)
    assert report["torsion_free"]
    ranks = [report["cohomology"][str(2 * d)]["rank"] for d in range(5)]
    assert ranks == q_binomial(4, 2)
    for q in range(9):
        entry = report["cohomology"][str(q)]
        assert entry["torsion"] == []
        if q % 2 == 1:
            assert entry["rank"] == 0


def test_torsion_report_primes_filter():
    report = torsion.torsion_report((1,) * 6, 2, 4, primes=[2, 3])
    assert set(report["primes"]) == {"2", "3"}
    assert report["torsion_free"]


def test_torsion_report_rejects_non_primes():
    # reported before the pair-sum check of an invalid b
    for bad in (0, 1, 4, -2):
        with pytest.raises(ParameterError) as info:
            torsion.torsion_report((1, 1, 1, 1, 1, 2), 2, 4, primes=[2, bad])
        assert not isinstance(info.value, InvalidWeightVectorError)
    for p in (0, 1, -3):
        with pytest.raises(ParameterError):
            torsion.p_content(12, p)


def test_torsion_free_needs_every_prime_of_b_certified():
    b = (7, 7, 4, 5, 10, 7, 8, 7, 8, 5)
    full = torsion.torsion_report(b, 2, 5)
    assert not full["primes"]["2"]["certified"]
    assert not full["primes"]["5"]["certified"]
    assert not full["torsion_free"]
    # a narrowed prime list certifies 7 but says nothing about 2 and 5
    narrowed = torsion.torsion_report(b, 2, 5, primes=[7])
    assert set(narrowed["primes"]) == {"7"}
    assert narrowed["primes"]["7"]["certified"]
    assert not narrowed["torsion_free"]
    assert narrowed["cohomology"] == full["cohomology"]
    # a list covering every prime of b, and more, decides it
    wide = torsion.torsion_report((30, 30, 25, 10, 5, 5), 2, 4,
                                  primes=[2, 3, 5, 7])
    assert set(wide["primes"]) == {"2", "3", "5", "7"}
    assert wide["torsion_free"]


def test_poincare_ranks():
    assert torsion.poincare_ranks(2, 4) == [1, 1, 2, 1, 1]
    assert torsion.poincare_ranks(2, 5) == q_binomial(5, 2)
    for n in range(2, 10):  # against a census of the lattice dimensions
        for k in range(1, n):
            census = [0] * (k * (n - k) + 1)
            for d in symbols.lattice(k, n).d:
                census[d] += 1
            assert torsion.poincare_ranks(k, n) == census, (k, n)
    for k, n in ((0, 3), (3, 3), (4, 3)):
        with pytest.raises(ParameterError):
            torsion.poincare_ranks(k, n)


def test_lens_spec_rejects_bad_specs():
    for order, weights in ((0, (1,)), (1, ()), (1, (0,))):
        with pytest.raises(ParameterError):
            torsion.LensSpec(order, weights)
