"""
Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables is a map from exponent tuples (length n) to
nonzero coefficients.  A coefficient is stored as an ``int`` when it is
integral and as a ``Fraction`` only otherwise, so a ``Fraction`` with
denominator 1 never appears; ``bool`` values become ``int`` and floats
are rejected, so no float can enter or leave the arithmetic.  The
canonical monomial order is graded lexicographic (higher total degree
first, ties broken by the exponent tuple with y1 heaviest), which fixes
the text rendering and the leading term used by division.

Multiplication, exact division and substitution clear
denominators first: they run on integer coefficients and divide once
at the end, because ``int`` arithmetic is several times cheaper than
``Fraction`` arithmetic.  Inside them a monomial is packed into one
int, so that multiplying monomials is an int addition.  ``Packing``
owns that format: the field layout, the guard bits of division, the
degree field, and the moves on packed integer term maps that read
fields (a shear y_s -> y_s + y_{s+1} as a binomial split of one field,
splitting off the last variable, substitution by Horner's rule on
packed images, the vanishing test of a substitution y_v -> image).
The pipeline (``puzzles``, ``structure``) and the oracle (``gkm``) get
theirs from ``packing(nvars, top)``, pack their input once and turn
packed maps back into ``Poly`` once, at their public return.  The kernels that read no field, ``_mul_packed`` and
``_divide_packed``, take packed maps of any packing.

Variables are anonymous; rendering defaults to y1..yn but accepts any
name list, so the same class also serves rewritten bases such as
(g1, ..., g_{n-1}, Y0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import ParameterError


def _coerce(c):
    """The canonical exact coefficient: ``int`` if integral, else ``Fraction``."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise ParameterError(f"coefficients must be exact rationals, got {type(c)}")


def _grlex_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


def _cleared(terms: dict) -> tuple:
    """(integer terms, d) with terms == integer terms / d, d >= 1 minimal."""
    d = 1
    for c in terms.values():
        if c.__class__ is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return terms, 1
    return {
        e: c * d if c.__class__ is int else c.numerator * (d // c.denominator)
        for e, c in terms.items()
    }, d


def _mul_packed(a: dict, b: dict, into: dict | None = None, scale: int = 1) -> dict:
    """``into`` + scale * a * b over packed term maps, without zero terms.

    A packed term map (``Packing``) sends packed monomials to ints, so
    multiplying two monomials is one int addition.  ``into`` is updated
    in place and returned; without it a new map is built.
    """
    terms = {} if into is None else into
    get = terms.get
    for k1, c1 in a.items():
        c1 *= scale
        for k2, c2 in b.items():
            k = k1 + k2
            terms[k] = get(k, 0) + c1 * c2
    for k in [k for k, c in terms.items() if not c]:
        del terms[k]
    return terms


def _divide_packed(num: dict, den: dict, guard: int) -> dict | None:
    """q with num == den * q over packed integer term maps, or None.

    ``den`` must be primitive (content 1): by Gauss's lemma a quotient
    in Q[y] then lies in Z[y], so a coefficient that den's leading one
    does not divide proves non-divisibility.  ``guard`` is the
    ``Packing.guard`` of the maps, which tests each remainder term
    against den's leading monomial without unpacking it.  The
    remainder's terms sit in a heap ordered by grlex, largest first;
    ``num`` is not changed.
    """
    from heapq import heapify, heappop, heappush

    klead = max(den)  # packed ints order like grlex
    dc = den[klead]
    rest = [(k, c) for k, c in den.items() if k != klead]
    rem = dict(num)
    heap = [-k for k in rem]  # a max-heap of packed monomials
    heapify(heap)
    quot: dict = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k, 0)
        if not c:  # cancelled after it was queued
            continue
        if ((k | guard) - klead) & guard != guard:
            return None
        q, r = divmod(c, dc)
        if r:
            return None
        kq = k - klead
        quot[kq] = q
        for kd, dv in rest:
            tgt = kq + kd
            t = q * dv
            old = rem.get(tgt)
            if old is None:
                rem[tgt] = -t
                heappush(heap, -tgt)
            elif old == t:
                del rem[tgt]
            else:
                rem[tgt] = old - t
    return quot


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two term maps, without the zero terms."""
    if not (a and b):
        return {}
    pk = packing(len(next(iter(a))), max(map(sum, a)) + max(map(sum, b)))
    unpack = pk.unpack
    return {unpack(k): c for k, c in _mul_packed(pk.of(a), pk.of(b)).items()}


def _accumulate(into: dict, terms) -> None:
    """Add the (exponent, coefficient) pairs ``terms`` into ``into``."""
    get = into.get
    for e, c in terms:
        into[e] = get(e, 0) + c


def _horner(items: list, images: list, pos: int) -> dict:
    """Expand the (expo, c, kept key) ``items`` under ``images``.

    ``images`` lists (variable, packed image) pairs; ``kept key`` is
    the packed monomial of the item's variables that map to themselves.
    Horner's rule runs in the variable of images[pos] over the groups of
    items with equal exponent there, each group expanded recursively in
    the later images, so an image is multiplied in once per degree step
    instead of once per term.  The result is a packed term map.
    """
    if pos == len(images):  # items differ only in their kept exponents
        return {key: c for _, c, key in items}
    v, image = images[pos]
    groups: dict = {}
    for item in items:
        groups.setdefault(item[0][v], []).append(item)
    acc: dict = {}
    for e in range(max(groups), -1, -1):
        if acc:
            acc = _mul_packed(acc, image)
        group = groups.get(e)
        if group:
            _accumulate(acc, _horner(group, images, pos + 1).items())
    return acc


def _build(nvars: int, terms: dict, d: int = 1) -> "Poly":
    """The Poly with coefficients terms[e] / d; zero terms are dropped.

    With d > 1 every value must be an int.
    """
    if d == 1:
        clean = {e: _coerce(c) for e, c in terms.items() if c}
    else:
        clean = {}
        for e, c in terms.items():
            if c:
                q, r = divmod(c, d)
                clean[e] = Fraction(c, d) if r else q
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out.terms = clean
    return out


class Packing:
    """The packed form of the monomials of degree <= top in nvars variables.

    A monomial packs into one int whose fields, most significant first,
    are its total degree and then its exponents, each ``bits`` wide with
    2**(bits - 1) > top: the exponent of variable v (0-based) sits at bit
    (nvars - 1 - v) * bits and the degree at bit nvars * bits.  So
    packed ints compare like ``_grlex_key``, multiplying monomials is an
    int addition (``_mul_packed``), 0 packs the monomial 1, and a field
    is read or moved by shifts alone.  The top bit of every exponent
    field stays clear; ``guard`` holds those bits, and k is divisible by
    kd iff ((k | guard) - kd) & guard == guard, since no borrow crosses
    a guard bit (``_divide_packed``).  ``units`` are the packed y_1, ...,
    y_n.  A packed term map sends packed monomials to ints; this class
    is the one place that reads their fields.
    """

    __slots__ = ("nvars", "top", "bits", "pack", "unpack", "guard", "units")

    def __init__(self, nvars: int, top: int):
        w = max(1, (top.bit_length() + 8) // 8)  # bytes per field
        bits = 8 * w
        size = (nvars + 1) * w
        if w == 1:  # every degree below 128: bytes() packs and unpacks in C
            def pack(e):
                return int.from_bytes(bytes((sum(e), *e)), "big")

            def unpack(k):
                return tuple(k.to_bytes(size, "big")[1:])
        else:
            def pack(e):
                return int.from_bytes(
                    b"".join(x.to_bytes(w, "big") for x in (sum(e), *e)), "big"
                )

            def unpack(k):
                raw = k.to_bytes(size, "big")
                return tuple(
                    int.from_bytes(raw[i:i + w], "big") for i in range(w, size, w)
                )
        self.nvars, self.top, self.bits = nvars, top, bits
        self.pack, self.unpack = pack, unpack
        self.guard = sum(1 << bits * v + bits - 1 for v in range(nvars))
        degree_one = 1 << bits * nvars
        self.units = tuple(
            degree_one | 1 << bits * (nvars - 1 - v) for v in range(nvars)
        )

    def of(self, terms: dict) -> dict:
        """The packed term map of exponent-tuple ``terms``."""
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}

    def poly(self, terms: dict, d: int = 1) -> "Poly":
        """The Poly of the packed ``terms`` divided by d (``_build``)."""
        unpack = self.unpack
        return _build(self.nvars, {unpack(k): c for k, c in terms.items()}, d)

    def linear(self, support) -> dict:
        """The packed sum of y_s over the distinct 1-based s in ``support``."""
        return {self.units[s - 1]: 1 for s in support}

    def homogeneous(self, terms: dict, d: int) -> bool:
        """True iff every packed key of ``terms`` has total degree d."""
        shift = self.bits * self.nvars
        return all(k >> shift == d for k in terms)

    def divide(self, num: dict, den: dict) -> dict | None:
        """``_divide_packed`` of two maps of this packing."""
        return _divide_packed(num, den, self.guard)

    def vanishes(self, parts, v: int, powers: list) -> bool:
        """True iff sum of scale * terms over the (terms, scale) ``parts``
        vanishes under y_v -> image (0-based v), an image without y_v.

        powers[e] is the packed image**e, powers[1] the image itself; the
        list is extended in place up to the largest exponent of y_v met.
        A term of exponent e at y_v drops e units of that field and the
        degree, then takes each term of powers[e]: with a one-term image
        that is one key move per term.
        """
        shift = self.bits * (self.nvars - 1 - v)
        mask = (1 << self.bits) - 1
        unit = self.units[v]
        out: dict = {}
        get = out.get
        for terms, scale in parts:
            for key, c in terms.items():
                c *= scale
                e = key >> shift & mask
                if not e:
                    out[key] = get(key, 0) + c
                    continue
                while len(powers) <= e:
                    powers.append(_mul_packed(powers[-1], powers[1]))
                base = key - e * unit
                for kp, cp in powers[e].items():
                    k = base + kp
                    out[k] = get(k, 0) + c * cp
        return not any(out.values())

    def shear(self, terms: dict, s: int) -> dict:
        """``terms`` under y_s -> y_s + y_{s+1} (1-based s < nvars).

        A monomial with exponent e at y_s splits into the binomial terms
        C(e, i) y_s^(e - i) y_{s+1}^i: i units move from the field of y_s
        to the next one, and the total degree does not change.
        """
        bits = self.bits
        shift = bits * (self.nvars - s)
        mask = (1 << bits) - 1
        move = (1 << shift - bits) - (1 << shift)
        out: dict = {}
        get = out.get
        for key, c in terms.items():
            e = key >> shift & mask
            for i in range(e + 1):
                k = key + i * move
                out[k] = get(k, 0) + c * comb(e, i)
        return {key: c for key, c in out.items() if c}

    def split_last(self, terms: dict) -> dict:
        """Map e -> the ``terms`` of exponent e in the last variable.

        Each part is repacked without that variable, as
        ``packing(nvars - 1, top)`` packs it: the last field is dropped
        and e is taken off the degree field.
        """
        bits = self.bits
        mask = (1 << bits) - 1
        degree_field = bits * (self.nvars - 1)
        out: dict = {}
        for key, c in terms.items():
            e = key & mask
            out.setdefault(e, {})[(key >> bits) - (e << degree_field)] = c
        return out

    def substitute(self, terms: dict, images: list, kept: list, scale: int,
                   deg: int) -> dict:
        """Packed sum of c * scale**(deg - w) * (y^e under ``images``), no zeros.

        The sum runs over the int ``terms`` of exponent tuples e, and w is
        the degree of e in the variables of ``images``, a list of (0-based
        variable, packed image) pairs.  The ``kept`` variables map to
        themselves; every degree a term reaches must be <= top.  Horner's
        rule runs on the packed images (``_horner``).
        """
        mapped = [v for v, _ in images]
        pack = self.pack
        items = []
        mono = [0] * self.nvars
        for e, c in terms.items():
            for v in kept:
                mono[v] = e[v]
            weight = sum(e[v] for v in mapped)
            items.append((e, c * scale ** (deg - weight), pack(mono)))
        return {key: c for key, c in _horner(items, images, 0).items() if c}


@lru_cache(maxsize=128)
def packing(nvars: int, top: int) -> Packing:
    """The shared ``Packing`` of nvars variables for degrees <= top."""
    return Packing(nvars, top)


class Poly:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, c in terms.items():
                c = _coerce(c)
                if c:
                    clean[tuple(expo)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly.const(nvars, 1)

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        """The variable y_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ParameterError(f"variable index {i} out of range 1..{nvars}")
        expo = [0] * nvars
        expo[i - 1] = 1
        return Poly(nvars, {tuple(expo): 1})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_integral(self) -> bool:
        return all(c.__class__ is int for c in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ParameterError(
                f"variable sets differ: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        get = terms.get
        for expo, c in other.terms.items():
            s = get(expo, 0) + c
            if s:
                terms[expo] = _coerce(s)
            else:
                del terms[expo]
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return Poly.zero(self.nvars)
            out = Poly.__new__(Poly)
            out.nvars = self.nvars
            out.terms = {e: _coerce(v * c) for e, v in self.terms.items()}
            return out
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        a, da = _cleared(self.terms)
        b, db = _cleared(other.terms)
        return _build(self.nvars, _mul_terms(a, b), da * db)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not (isinstance(exp, int) and exp >= 0):
            raise ParameterError("exponent must be a nonnegative integer")
        result = Poly.one(self.nvars)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base if exp > 1 else base
            exp >>= 1
        return result

    # -- division and substitution ------------------------------------

    def divide_exact(self, divisor: "Poly"):
        """Return q with self == divisor * q, or None when not divisible.

        Runs in integers: with self = A / da and divisor = g * P / db, P
        primitive, Gauss's lemma puts A / P in Z[y] whenever it exists,
        so a leading coefficient that P's does not divide proves
        non-divisibility (``_divide_packed``).
        """
        if not isinstance(divisor, Poly):
            raise ParameterError("divisor must be a Poly")
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly.zero(self.nvars)
        top = self.degree()
        if divisor.degree() > top:
            return None
        pk = packing(self.nvars, top)
        lifted, da = _cleared(self.terms)
        prim, db = _cleared(divisor.terms)
        g = gcd(*prim.values())
        quot = pk.divide(
            pk.of(lifted), {pk.pack(e): c // g for e, c in prim.items()}
        )
        if quot is None:
            return None
        num, den = db, da * g
        h = gcd(num, den)
        num, den = num // h, den // h
        return pk.poly({k: c * num for k, c in quot.items()}, den)

    def substitute(self, images: dict) -> "Poly":
        """Simultaneously replace variables by polynomials.

        ``images`` maps 1-based variable indices to Poly values over the
        *target* variable space; unmapped variables map to themselves
        (requires target nvars >= their index).

        The images are scaled by the lcm D of their denominators and
        self by the lcm ``lift`` of its own, so the expansion runs in
        integers: a term whose mapped variables have total degree e is
        weighted by D**(deg - e), deg the largest such e, and every
        output coefficient is divided once by lift * D**deg.  This is
        exact whatever the images' degrees.
        """
        if not images:
            return self
        target_n = next(iter(images.values())).nvars
        mapped = []  # (0-based variable, image)
        kept = []  # 0-based variables that map to themselves
        for v in range(self.nvars):
            img = images.get(v + 1)
            if img is None:
                if v >= target_n:
                    raise ParameterError(
                        f"variable index {v + 1} out of range 1..{target_n}"
                    )
                kept.append(v)
            elif img.nvars != target_n:
                raise ParameterError("substitution images disagree on nvars")
            else:
                mapped.append((v, img))
        if not self.terms:
            return Poly.zero(target_n)
        cleared = [(v, _cleared(img.terms)) for v, img in mapped]
        scale = lcm(1, *(d for _, (_, d) in cleared))
        lifted, lift = _cleared(self.terms)
        deg = max(sum(e[v] for v, _ in mapped) for e in lifted)
        # the largest degree a term, and so any partial Horner sum, reaches
        degrees = [(v, max(img.degree(), 0)) for v, img in mapped]
        top = max(
            sum(e[v] for v in kept) + sum(e[v] * dv for v, dv in degrees)
            for e in lifted
        )
        pk = packing(target_n, top)
        bases = [
            (v, {pk.pack(e): c * (scale // d) for e, c in t.items()})
            for v, (t, d) in cleared
        ]
        return pk.poly(pk.substitute(lifted, bases, kept, scale, deg), lift * scale**deg)

    # -- rendering -----------------------------------------------------

    def render(self, names=None) -> str:
        """Canonical text form, graded-lex descending monomials."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"y{i}" for i in range(1, self.nvars + 1)]
        pieces = []
        for expo in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[expo]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(expo)
                if e
            ]
            mono = "*".join(factors)
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    __str__ = render

    def __repr__(self):
        return f"Poly({self.nvars}, {self.render()})"
