"""Exact polynomial arithmetic."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from wgrass.errors import ParameterError
from reference import (
    evaluate,
    is_homogeneous,
    linear_form,
    parse_poly,
    permute_variables,
    rewrite_in_linear_basis,
)
from wgrass.polynomial import Poly, packing


def y(i, n=4):
    return Poly.variable(n, i)


def random_poly(rng, n=4, degree=3, terms=4):
    out = Poly.zero(n)
    for _ in range(terms):
        expo = [0] * n
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        out = out + Poly(n, {tuple(expo): coeff})
    return out


def test_linear_form_examples():
    assert linear_form(4, (1, 2)) == y(1) + y(2)
    diff = linear_form(4, (3, 4)) - linear_form(4, (1, 2))
    assert diff == y(3) + y(4) - y(1) - y(2)
    # Y_(1,3) - (b1/b3) Y_(2,3) with b = (2,2,2,1,1,1): factor 2
    got = linear_form(4, (1, 3)) - 2 * linear_form(4, (2, 3))
    assert got == y(1) - 2 * y(2) - y(3)


def test_product_of_conjugates():
    assert (y(1) - y(2)) * (y(1) + y(2)) == y(1) ** 2 - y(2) ** 2


def test_multiply_by_zero():
    p = y(1) * y(2) + 3 * y(3)
    assert (p * Poly.zero(4)).is_zero()
    assert (p * 0).is_zero()


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_divide_exact_examples():
    q = (y(1) ** 2 - y(2) ** 2).divide_exact(y(1) - y(2))
    assert q == y(1) + y(2)
    assert (y(1) - y(3)).divide_exact(y(1) - y(2)) is None
    assert Poly.zero(4).divide_exact(y(1) - y(2)) == Poly.zero(4)
    with pytest.raises(ZeroDivisionError):
        y(1).divide_exact(Poly.zero(4))


def test_divide_exact_roundtrip_randomized():
    rng = random.Random(21)
    for _ in range(60):
        p = random_poly(rng, n=5, degree=4, terms=3)
        q = random_poly(rng, n=5, degree=4, terms=3)
        if q.is_zero():
            continue
        assert (p * q).divide_exact(q) == p


def test_substitute_example():
    image = y(1) - Fraction(1, 2) * (y(2) + y(3))
    got = (y(1) + y(3)).substitute({1: image})
    assert got == y(1) - Fraction(1, 2) * y(2) + Fraction(1, 2) * y(3)


def test_substitute_matches_evaluation():
    rng = random.Random(5)
    for image_degree in [1] * 20 + [2] * 20:
        p = random_poly(rng, n=3, degree=3, terms=4)
        images = {i: random_poly(rng, n=3, degree=image_degree, terms=2)
                  for i in (1, 2, 3)}
        substituted = p.substitute(images)
        point = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        direct = evaluate(p, [evaluate(img, point) for img in images.values()])
        assert evaluate(substituted, point) == direct


def test_permute_variables_identifies_like_substitute():
    # a non-injective map {s: t} is the substitution y_s -> y_t
    rng = random.Random(11)
    for _ in range(40):
        s, t, u = rng.sample(range(1, 5), 3)
        images = {s: t}
        if rng.random() < 0.5:
            images[u] = rng.randint(1, 4)
        p = random_poly(rng, n=4, degree=4, terms=5)
        want = p.substitute({v: y(w) for v, w in images.items()})
        assert permute_variables(p, images) == want


def test_rewrite_in_linear_basis_roundtrip():
    n = 4
    forms = [
        y(1) - y(2),
        y(2) - y(3),
        y(3) - y(4),
        y(1) + y(2),
    ]
    rng = random.Random(3)
    for _ in range(10):
        p = random_poly(rng, n=n, degree=3, terms=4)
        rewritten = rewrite_in_linear_basis(p, forms)
        back = rewritten.substitute({i + 1: forms[i] for i in range(n)})
        assert back == p


def test_rewrite_rejects_dependent_forms():
    forms = [y(1) - y(2), y(2) - y(3), y(1) - y(3), y(4)]
    with pytest.raises(ParameterError):
        rewrite_in_linear_basis(y(1), forms)


def test_render_and_parse_roundtrip():
    rng = random.Random(13)
    samples = [random_poly(rng, n=4, degree=4, terms=5) for _ in range(30)]
    samples += [Poly.zero(4), Poly.const(4, -3), Poly.const(4, Fraction(1, 2))]
    for p in samples:
        assert parse_poly(p.render(), 4) == p


def test_render_golden():
    p = y(1) ** 2 - y(2) ** 2
    assert p.render() == "y1^2 - y2^2"
    assert (Fraction(1, 2) * y(1) - 3).render() == "1/2*y1 - 3"
    assert Poly.zero(4).render() == "0"


def test_homogeneity_and_degree():
    p = y(1) * y(2) - y(3) ** 2
    assert is_homogeneous(p) and p.degree() == 2
    assert not is_homogeneous(p + y(1))
    assert Poly.zero(4).degree() == -1


def test_floats_rejected():
    with pytest.raises(ParameterError):
        Poly(2, {(1, 0): 0.5})


# -- the integer core: canonical coefficients and reference routes ----------


def assert_canonical(p):
    """Every coefficient is a nonzero int, or a Fraction that is not one."""
    for expo, c in p.terms.items():
        assert type(expo) is tuple and len(expo) == p.nvars
        assert c, p.terms
        assert type(c) is int or (
            type(c) is Fraction and c.denominator != 1
        ), (expo, c, type(c))


def fractional_linear(rng, n):
    """A random linear form with fractional coefficients, never zero."""
    terms = {}
    for s in range(n):
        expo = tuple(int(u == s) for u in range(n))
        terms[expo] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6)))
    form = Poly(n, terms)
    return form if form else y(1, n)


def test_coefficients_are_canonical():
    rng = random.Random(101)
    forms = [y(1) - y(2), y(2) - Fraction(1, 2) * y(3), y(3) - y(4),
             Fraction(2, 3) * y(1) + y(4)]
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        results = [a + b, a - b, b - a, a * b, a * Fraction(2, 1), a**2,
                   (a * b).divide_exact(b) if b else a,
                   rewrite_in_linear_basis(a, forms),
                   a.substitute({1: fractional_linear(rng, 4), 3: b})]
        for p in results:
            assert_canonical(p)
    # integral Fractions and bools are stored as ints; render never shows them
    p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): True, (0, 0): Fraction(3, 4)})
    assert p.terms == {(1, 0): 2, (0, 1): 1, (0, 0): Fraction(3, 4)}
    assert_canonical(p)
    assert p.render() == "2*y1 + y2 + 3/4"
    half = Fraction(1, 2) * y(1, 2)
    assert_canonical(half + half)
    assert (half + half).terms == {(1, 0): 1}
    assert_canonical(Poly.const(2, True) * Fraction(3, 3))
    with pytest.raises(ParameterError):
        Poly.const(2, 0.5)
    with pytest.raises(TypeError):
        y(1) * 0.5


def naive_divide(p, d):
    """Textbook grlex long division over Fraction, largest term first."""
    def key(e):
        return (sum(e), e)

    dlead = max(d.terms, key=key)
    dc = Fraction(d.terms[dlead])
    rem = {e: Fraction(c) for e, c in p.terms.items()}
    quot = {}
    while rem:
        expo = max(rem, key=key)
        diff = tuple(a - b for a, b in zip(expo, dlead))
        if min(diff) < 0:
            return None
        c = rem[expo] / dc
        quot[diff] = c
        for de, dv in d.terms.items():
            tgt = tuple(a + b for a, b in zip(diff, de))
            rem[tgt] = rem.get(tgt, 0) - c * dv
            if not rem[tgt]:
                del rem[tgt]
    return Poly(p.nvars, quot)


def test_divide_exact_matches_naive_reference():
    rng = random.Random(29)
    checked = 0
    for _ in range(60):
        q = random_poly(rng, n=4, degree=3, terms=3)
        d = random_poly(rng, n=4, degree=2, terms=3)
        if q.is_zero() or d.is_zero():
            continue
        # a non-unit, fractional leading coefficient on the divisor
        d = d * Fraction(rng.choice((2, 3, 6)), rng.choice((1, 5, 7)))
        p = q * d
        got = p.divide_exact(d)
        assert got == naive_divide(p, d) == q
        assert_canonical(got)
        bumped = p + Poly(4, {(0, 0, 0, 1): Fraction(1, 3)})
        assert bumped.divide_exact(d) == naive_divide(bumped, d)
        checked += 1
    assert checked >= 40
    assert (y(1) * y(2) + y(3)).divide_exact(3 * y(1) - Fraction(1, 2)) is None
    # integral operands whose quotient is fractional
    got = (y(1) + 2 * y(2)).divide_exact(2 * y(1) + 4 * y(2))
    assert got == Poly.const(4, Fraction(1, 2))
    got = (3 * y(1) ** 2 - 3 * y(2) ** 2).divide_exact(2 * y(1) + 2 * y(2))
    assert got == Fraction(3, 2) * (y(1) - y(2))
    assert_canonical(got)


def test_substitute_fractional_linear_matches_evaluation():
    rng = random.Random(47)
    for homogeneous in (True, False):
        for _ in range(25):
            p = random_poly(rng, n=3, degree=4, terms=6)
            if homogeneous:
                top = p.degree()
                p = Poly(3, {e: c for e, c in p.terms.items() if sum(e) == top})
            images = {i: fractional_linear(rng, 3) for i in (1, 2, 3)}
            if not homogeneous:
                images[2] = images[2] + Fraction(rng.randint(-3, 3), 5)
            got = p.substitute(images)
            assert_canonical(got)
            assert is_homogeneous(got) or not homogeneous
            for _ in range(4):
                point = [Fraction(rng.randint(-7, 7), rng.randint(1, 3))
                         for _ in range(3)]
                values = [evaluate(images[i], point) for i in (1, 2, 3)]
                assert evaluate(got, point) == evaluate(p, values)


def test_render_pinned_strings():
    n = 4
    assert (Fraction(3, 2) * y(1) * y(2) - Fraction(1, 3) * y(4) ** 2 + 7).render() \
        == "3/2*y1*y2 - 1/3*y4^2 + 7"
    p = (y(1) - Fraction(1, 2) * y(2)) * (2 * y(1) + y(3))
    assert p.render() == "2*y1^2 - y1*y2 + y1*y3 - 1/2*y2*y3"
    assert (-(y(3) ** 3) + Poly.const(n, Fraction(-4, 2))).render() == "-y3^3 - 2"
    assert ((y(1) + y(2)) ** 2).divide_exact(y(1) + y(2)).render() == "y1 + y2"
    assert Poly.const(n, 1).render(["g1", "g2", "g3", "Y0"]) == "1"
    assert (y(4) * Fraction(5, 5)).render(["g1", "g2", "g3", "Y0"]) == "Y0"


def test_degrees_past_one_byte():
    """Packed monomials widen their fields once a degree passes 127."""
    big = y(1) ** 200 * (y(2) - Fraction(1, 3) * y(3)) ** 2
    prod = big * y(1) ** 100
    assert prod.degree() == 302
    assert prod == Poly(4, {
        (300, 2, 0, 0): 1, (300, 1, 1, 0): Fraction(-2, 3),
        (300, 0, 2, 0): Fraction(1, 9),
    })
    assert prod.divide_exact(big) == y(1) ** 100
    assert prod.divide_exact(y(1) ** 301) is None
    assert evaluate((y(1) ** 256 - y(2) ** 256).divide_exact(y(1) - y(2)),
                    [2, 1, 0, 0]) == 2**256 - 1
    assert_canonical(prod.substitute({1: Fraction(1, 2) * y(4)}))
    # every variable mapped to a linear form, the positivity rewrite's
    # shape, at degree 257: the partial Horner sums pass 255 on the way
    p = y(1) ** 254 * y(2) * y(3) * y(4) - 3 * y(2) ** 257
    images = {1: y(1) + 2 * y(4), 2: y(2) - y(3), 3: y(1) - y(2),
              4: Fraction(1, 2) * y(3) + y(4)}
    q = p.substitute(images)
    assert q.degree() == 257 and is_homogeneous(q)
    assert_canonical(q)
    for point in ([3, -1, 2, 5], [1, 1, Fraction(1, 3), -2]):
        moved = [evaluate(images[v], point) for v in range(1, 5)]
        assert evaluate(q, point) == evaluate(p, moved)


@pytest.mark.parametrize("top", [126, 127, 128, 129, 254, 255, 256])
def test_divisibility_guard_at_field_widths(top):
    # the guard bit of each exponent field decides monomial divisibility
    # in _divide_packed; these degrees sit on both sides of a field width
    den = y(1) + 2 * y(2)
    quot = y(1) ** (top - 3) * (y(2) - y(3)) * y(4)
    prod = den * quot
    assert prod.degree() == top
    assert prod.divide_exact(den) == quot
    assert prod.divide_exact(quot) == den
    assert (prod + y(3) ** top).divide_exact(den) is None
    assert (y(1) ** top).divide_exact(y(2)) is None
    assert (y(1) ** (top - 1) * y(2)).divide_exact(y(1) ** top) is None
    assert (y(2) ** top).divide_exact(y(1) ** (top - 1) * y(2)) is None
    assert (y(4) ** top).divide_exact(y(4) ** (top - 1)) == y(4)


@pytest.mark.parametrize("nvars", [1, 4])
@pytest.mark.parametrize("top", [126, 127, 128, 129, 255, 256])
def test_packing_across_field_widths(nvars, top):
    # the field width grows at degree 128; every field move is checked
    # against its exponent-tuple form on both sides of that boundary
    pk = packing(nvars, top)
    assert packing(nvars, top) is pk
    for v in range(nvars):
        assert pk.units[v] == pk.pack(tuple(int(u == v) for u in range(nvars)))
    for size in range(1, nvars + 1):
        for sym in combinations(range(1, nvars + 1), size):
            assert pk.linear(sym) == pk.of(linear_form(nvars, sym).terms)
    rng = random.Random(f"packing:{nvars},{top}")
    terms = {}
    for d in (top, top, top - 1, 1, 0):
        expo = [0] * nvars
        for _ in range(d):
            expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = rng.randint(-5, 5) or 1
    packed = pk.of(terms)
    assert {pk.unpack(key): c for key, c in packed.items()} == terms
    assert pk.poly(packed) == Poly(nvars, terms)
    for d in (0, 1, top - 1, top):
        same = {key: c for key, c in packed.items() if sum(pk.unpack(key)) == d}
        assert same and pk.homogeneous(same, d), d
        assert not pk.homogeneous(packed, d), d
    for s in range(1, nvars):
        sheared: dict = {}
        for e, c in terms.items():
            for i in range(e[s - 1] + 1):
                f = list(e)
                f[s - 1] -= i
                f[s] += i
                sheared[tuple(f)] = sheared.get(tuple(f), 0) + c * comb(e[s - 1], i)
        want = pk.of({e: c for e, c in sheared.items() if c})
        assert pk.shear(packed, s) == want, s
    split: dict = {}
    for e, c in terms.items():
        split.setdefault(e[-1], {})[e[:-1]] = c
    rest = packing(nvars - 1, top)
    assert pk.split_last(packed) == {e: rest.of(part) for e, part in split.items()}


@pytest.mark.parametrize("top", [6, 127, 128])
def test_vanishing_is_divisibility_by_a_monic_linear_form(top):
    # L = y_v - image, monic in y_v, divides f iff f vanishes under
    # y_v -> image; checked against Poly.divide_exact on multiples of L
    # and on multiples with one monomial added, across a field width
    nvars = 4
    pk = packing(nvars, top)
    rng = random.Random(f"vanishes:{top}")
    seen = set()
    for trial in range(12):
        v, a, b = rng.sample(range(nvars), 3)
        image = {pk.units[a]: 1, pk.units[b]: rng.choice((-2, -1, 1, 3))}
        if trial % 3 == 0:
            image = {pk.units[a]: 1}  # a b = 1 label: one key move per term
        label = Poly.variable(nvars, v + 1) - pk.poly(image)
        expo = [0] * nvars
        for _ in range(top - 1):
            expo[rng.choice((v, v, a))] += 1
        f = label * Poly(nvars, {tuple(expo): 1, (0,) * (nvars - 1) + (top - 1,): 2})
        if trial % 2:
            extra = [0] * nvars
            for _ in range(top):
                extra[rng.randrange(nvars)] += 1
            f = f + Poly(nvars, {tuple(extra): rng.choice((-1, 1))})
        powers = [{0: 1}, image]
        packed = pk.of(f.terms)
        want = f.divide_exact(label) is not None
        seen.add(want)
        assert pk.vanishes(((packed, 1),), v, powers) == want, trial
        assert pk.vanishes(((packed, 3), (packed, -3)), v, powers)
        assert pk.vanishes(((packed, 2), (pk.of((f * 2).terms), -1)), v, powers)
        assert len(powers) <= top + 1
    assert seen == {True, False}
