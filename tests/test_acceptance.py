"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

All tolerances are exact (integer/rational arithmetic); the stated
runtime budgets are asserted with ``time.monotonic``.

Criterion 4 carries one documented defect: the worked example's claim
that the ordinary constant for the pair (2, 2) at the top cell equals
1 + beta(beta - 1).  The example's own displayed rational expression is
1 + b0(b1 - b2)/(b2 b4), which vanishes on this family since b1 = b2
(descending divisibility forces b1 = b2 for every valid length-6
vector), and both independent routes here (puzzle pipeline and
localization oracle) compute 1.  The claim as stated is therefore
asserted in a strict expected-failure test: it must stay red, and the
true value is pinned by ``test_criterion_04c_c225_cross_checked``.
"""

import random
import time
from fractions import Fraction

import pytest

from wgrass import gkm, plucker, structure, symbols, torsion
from wgrass.polynomial import Poly
import reference
from reference import constant_value, is_homogeneous, linear_form
from test_symbols import q_binomial

DIVISIVE_2_4 = [(2, 2, 2, 1, 1, 1), (6, 6, 6, 2, 2, 2)]
DIVISIVE_2_5 = [(2, 2, 2, 2, 1, 1, 1, 1, 1, 1)]


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_plucker_relations():
    start = time.monotonic()
    rels = plucker.generate_relations(2, 4)
    count_2_5 = len(plucker.generate_relations(2, 5))
    elapsed = time.monotonic() - start
    ok = (
        len(rels) == 1
        and reference.render_relation(rels[0]) == "+z0*z5 -z1*z4 +z2*z3"
        and count_2_5 == 5
        and elapsed < 1.0
    )
    report("1", ok, f"(2,4) relation exact, (2,5) has {count_2_5}, {elapsed:.2f}s")


def test_criterion_02_permutation_counts():
    start = time.monotonic()
    full = plucker.enumerate_plucker_permutations(2, 4, "full")
    sn = plucker.enumerate_plucker_permutations(2, 4, "sn")
    elapsed = time.monotonic() - start
    ok = len(full) == 48 and len(sn) == 24 and elapsed < 120.0
    report("2", ok, f"full={len(full)}, sn={len(sn)}, {elapsed:.2f}s")


def test_criterion_03_wa_solution():
    sol = plucker.solve_wa([5, 1, 4, 3, 6, 2], 2, 4)
    ok = sol.W == (1, 3, -1, 2) and sol.a == 1
    report("3", ok, f"W={sol.W}, a={sol.a}")


def test_criterion_04a_worked_ordinary_constants():
    expected = {(1, 2): (3, 1), (2, 3): (7, 2), (3, 5): (21, 4)}
    ok = True
    for (alpha, beta), (c33, c23) in expected.items():
        b = (alpha * beta,) * 3 + (alpha,) * 3
        ctx = structure.context(b, 2, 4)
        ok = ok and ctx.ordinary_constants(3, 3).get(5) == c33
        ok = ok and ctx.ordinary_constants(2, 3).get(5) == c23
    report("4a", ok, "C(3,3)->5 and C(2,3)->5 match 1+b(b-1) and b-1")


def test_criterion_04b_weighted_pieri_on_arrows():
    ok = True
    for b in DIVISIVE_2_4:
        ctx = structure.context(b, 2, 4)
        lat = ctx.lattice
        for i in range(1, 6):
            cell = ctx.ordinary_constants(1, i)
            want = {j: b[0] // b[i] for j in lat.arrows[i]}
            ok = ok and cell == want
    report("4b", ok, "C(1,i)->j = b0/bi on all arrows")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated value 1+beta(beta-1) for the (2,2) pair contradicts the "
        "example's own displayed formula 1 + b0(b1-b2)/(b2 b4), which is 1 "
        "on this family (b1 = b2); both independent routes compute 1"
    ),
)
def test_criterion_04c_c225_as_stated():
    failures = []
    for alpha, beta in [(1, 2), (2, 3), (3, 5)]:
        b = (alpha * beta,) * 3 + (alpha,) * 3
        got = structure.context(b, 2, 4).ordinary_constants(2, 2).get(5)
        if got != 1 + beta * (beta - 1):
            failures.append((beta, got))
    print(
        "ACCEPTANCE 4c: FAIL - stated C(2,2)->5 = 1+beta(beta-1) is a "
        f"documented defect; computed values {failures}"
    )
    assert not failures


def test_criterion_04c_c225_cross_checked():
    ok = True
    for alpha, beta in [(1, 2), (2, 3), (3, 5)]:
        b = (alpha * beta,) * 3 + (alpha,) * 3
        pipeline = structure.context(b, 2, 4).ordinary_constants(2, 2).get(5)
        oracle = constant_value(gkm.localize_product(b, 2, 4, 2, 2)[5])
        formula = 1 + Fraction(b[0] * (b[1] - b[2]), b[2] * b[4])
        ok = ok and pipeline == oracle == formula == 1
    report("4c", ok, "C(2,2)->5 = 1 by pipeline, oracle, and the formula")


def test_criterion_05_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for b in [(1,) * 6] + DIVISIVE_2_4:
        ctx = structure.context(b, 2, 4)
        for i in range(6):
            for j in range(6):
                assert ctx.equivariant_constants(i, j) == \
                    gkm.localize_product(b, 2, 4, i, j), (b, i, j)
                checked += 1
    ctx = structure.context((1,) * 10, 2, 5)
    for i in range(10):
        for j in range(10):
            assert ctx.equivariant_constants(i, j) == \
                gkm.localize_product((1,) * 10, 2, 5, i, j), (i, j)
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 3 * 36 + 100 and elapsed < 300.0
    report("5", ok, f"{checked} pairs agree exactly, {elapsed:.1f}s")


def test_criterion_06_unweighted_reduction():
    def Y(sym):
        return linear_form(4, sym)

    lat = symbols.lattice(2, 4)
    table = reference.conjugated_constants(2, 4)
    want_33_3 = (Y(lat.symbols[0]) - Y(lat.symbols[3])) * (
        Y(lat.symbols[2]) - Y(lat.symbols[4])
    )
    want_33_4 = Y(lat.symbols[2]) - Y(lat.symbols[4])
    want_32_4 = Y(lat.symbols[0]) - Y(lat.symbols[4])
    ok = (
        table[(3, 3, 3)] == want_33_3
        and table[(3, 3, 4)] == want_33_4
        and table[(3, 3, 5)] == Poly.one(4)
        and table[(3, 2, 4)] == want_32_4
    )
    report("6", ok, "three worked products reproduced verbatim")


def test_criterion_07_equivariant_pieri():
    ok = True
    cases = [((1,) * 6, 2, 4)] + [(b, 2, 4) for b in DIVISIVE_2_4]
    cases += [((1,) * 10, 2, 5)] + [(b, 2, 5) for b in DIVISIVE_2_5]
    for b, k, n in cases:
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
            ok = ok and got == expected
    report("7", ok, "Pieri expansion exact at (2,4) and (2,5)")


def test_criterion_08_integrality_and_positivity():
    ok = True
    for b in DIVISIVE_2_4:
        table = structure.context(b, 2, 4).equivariant_table()
        ok = ok and structure.verify_integrality(table)[0]
        ok = ok and structure.verify_positivity(table, b, 2, 4)[0]
    report("8", ok, "full (2,4) tables integral and positive")


def test_criterion_09_lens_cohomology():
    rp7 = torsion.lens_cohomology(torsion.LensSpec(2, (1, 1, 1, 1)))
    sphere = torsion.lens_cohomology(torsion.LensSpec(1, (2, 3, 4)))
    ok = rp7 == {
        0: (1, ()),
        2: (0, (2,)),
        4: (0, (2,)),
        6: (0, (2,)),
        7: (1, ()),
    } and sphere == {0: (1, ()), 5: (1, ())}
    report("9", ok, "antipodal quotient and sphere groups exact")


def test_criterion_10_torsion_certificates():
    b = (30, 30, 25, 10, 5, 5)  # (alpha, beta, gamma) = (2, 3, 5)
    ok = all(
        torsion.no_p_torsion_certificate(b, 2, 4, p) is not None
        for p in (2, 3, 5)
    )
    for probe in [(5, 1, 4, 3, 6, 2), (1,) * 6, b]:
        rep = torsion.gr24_torsion_report(probe)
        ok = ok and set(rep["torsion_free_degrees"]) == set(range(9)) - {3}
    special = torsion.gr24_torsion_report((4, 6, 6, 5, 5, 7))
    ok = ok and special["b1_eq_b2_rule"] is not None
    ok = ok and special["fully_torsion_free"]
    report("10", ok, "certificates at 2,3,5; degree!=3 always; special rule")


def test_criterion_11_property_suites():
    failures = 0
    trials = 0

    # GKM membership, triangularity, degrees for every basis class
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
            trials += 1
            if not reference.is_class(graph, mat[i]):
                failures += 1
            for j in range(lat.m + 1):
                entry = mat[i][j]
                if not lat.leq_idx(i, j) and not entry.is_zero():
                    failures += 1
                if not entry.is_zero() and not (
                    is_homogeneous(entry) and entry.degree() == lat.d[i]
                ):
                    failures += 1

    # Gaussian binomial rank census over random (k, n)
    rng = random.Random(2024)
    done = 0
    while done < 100:
        n = rng.randint(2, 10)
        k = rng.randint(1, n - 1)
        lat = symbols.lattice(k, n)
        if lat.m + 1 > 252:
            continue
        census = [0] * (k * (n - k) + 1)
        for d in lat.d:
            census[d] += 1
        if census != q_binomial(n, k):
            failures += 1
        done += 1
        trials += 1

    # permutation group closure at (2, 4)
    perms = {w.perm for w in plucker.enumerate_plucker_permutations(2, 4, "full")}
    pool = sorted(perms)
    for _ in range(100):
        a = rng.choice(pool)
        c = rng.choice(pool)
        composed = tuple(a[c[i]] for i in range(6))
        inverse = tuple(sorted(range(6), key=lambda t: a[t]))
        if composed not in perms or inverse not in perms:
            failures += 1
        trials += 1

    ok = failures == 0 and trials >= 100
    report("11", ok, f"{trials} randomized trials, {failures} failures")
