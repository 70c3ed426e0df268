"""
Request lists and output checks of the wgrass benchmark workloads.

Every list is a pure function of the seed: ``random.Random`` is seeded
with a string, which Python hashes with SHA-512, so the same seed gives
the same argv lists byte for byte on every machine.  The expectations
are built here from first principles (symbol lists, dimensions, prime
factors, induced permutations), not by calling wgrass, so a check does
not share a code path with the answer it checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

# -- combinatorics, independent of wgrass ----------------------------------


def symbols(k: int, n: int) -> list:
    return list(combinations(range(1, n + 1), k))


def dim(sym) -> int:
    return sum(e - i for i, e in enumerate(sym, start=1))


def weights_from(W, a: int, k: int, n: int) -> list:
    return [a + sum(W[u - 1] for u in sym) for sym in symbols(k, n)]


def weighted_vector(k: int, n: int, a: int, t: int) -> list:
    """a*(t+1) on symbols that contain 1, a elsewhere: divisive, presented."""
    return [a * (t + 1) if 1 in sym else a for sym in symbols(k, n)]


def descending_divisible(b) -> bool:
    return all(b[i - 1] % b[i] == 0 for i in range(1, len(b)))


def chain_possible(b) -> bool:
    return descending_divisible(sorted(b, reverse=True))


def prime_support(values) -> list:
    primes = set()
    for v in values:
        p = 2
        while p * p <= v:
            while v % p == 0:
                primes.add(p)
                v //= p
            p += 1
        if v > 1:
            primes.add(v)
    return sorted(primes)


def cell_counts(k: int, n: int) -> list:
    ranks = [0] * (k * (n - k) + 1)
    for sym in symbols(k, n):
        ranks[dim(sym)] += 1
    return ranks


def induced_permutations(k: int, n: int) -> set:
    syms = symbols(k, n)
    index = {s: i for i, s in enumerate(syms)}
    return {
        tuple(index[tuple(sorted(phi[u - 1] for u in s))] for s in syms)
        for phi in permutations(range(1, n + 1))
    }


def primitive(b) -> list:
    g = 0
    for x in b:
        g = gcd(g, x)
    return [x // g for x in b]


def compact(vec) -> str:
    return json.dumps(list(vec), separators=(",", ":"))


def parse_poly(text: str, n: int) -> dict:
    """Rendered polynomial -> {exponent tuple: Fraction}."""
    if text == "0":
        return {}
    names = {f"y{i}": i - 1 for i in range(1, n + 1)}
    terms: dict = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        coeff = Fraction(1)
        if chunk.startswith("-"):
            coeff, chunk = Fraction(-1), chunk[1:]
        expo = [0] * n
        for factor in chunk.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            expo[names[name]] += int(power) if power else 1
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coeff
    return terms


# -- requests ----------------------------------------------------------------


@dataclass
class Request:
    """One CLI call: argv after ``wgrass`` and the check of its answer.

    ``check(code, payload)`` returns None when the answer is right and a
    reason otherwise; ``payload`` is the decoded JSON (None when stdout
    is not JSON).  A known-defect request documents a defect of the
    program: its failure counts in ``failed`` but leaves ``correct``
    true.
    """

    id: str
    argv: list
    check: object = None
    known_defect: bool = False
    meta: dict = field(default_factory=dict)


def digest_source(requests) -> list:
    return [[r.id] + r.argv for r in requests]


# -- ring ---------------------------------------------------------------------

RING_SIZES = ((2, 5), (3, 5), (2, 6), (3, 6))
ORACLE_SIZES = ((2, 5), (3, 5), (2, 6))
ORACLE_CELLS = 4  # sampled cells per equivariant table checked against gkm


def ring_requests(seed: int) -> list:
    rng = random.Random(f"ring:{seed}")
    out = []
    for k, n in RING_SIZES:
        m1 = len(symbols(k, n))
        a, t = rng.randint(1, 2), rng.randint(1, 5)
        vectors = (("unit", [1] * m1), ("weighted", weighted_vector(k, n, a, t)))
        pairs = [(i, j) for i in range(m1) for j in range(i, m1)]
        for name, b in vectors:
            for level in ("equivariant", "ordinary"):
                # (3,6) equivariant tables are trimmed: the weighted one
                # alone takes as long as all other requests together, and
                # with them fewer passes fit in a run, which leaves too few
                # samples per request for steady quantiles.  The (3,6)
                # ordinary tables still enumerate (3,6) puzzles.
                if (k, n) == (3, 6) and level == "equivariant":
                    continue
                argv = ["--jobs", "1", "ring", compact(b), "--k", str(k), "--n", str(n)]
                if level == "ordinary":
                    argv.append("--ordinary")
                meta = {"k": k, "n": n, "b": b, "level": level, "vector": name}
                if level == "equivariant" and (k, n) in ORACLE_SIZES:
                    meta["oracle_cells"] = sorted(rng.sample(pairs, ORACLE_CELLS))
                out.append(Request(f"ring-{len(out):02d}", argv, None, False, meta))
    return out


def check_ring_table(meta: dict, code: int, payload) -> str | None:
    """Shape, symmetry, integrality and degree of one ring table."""
    if code != 0 or not isinstance(payload, dict):
        return f"exit {code}"
    k, n = meta["k"], meta["n"]
    syms = symbols(k, n)
    m1 = len(syms)
    d = [dim(s) for s in syms]
    table = payload.get("table", {})
    if payload.get("b") != meta["b"] or payload.get("level") != meta["level"]:
        return "payload header does not echo the request"
    if sorted(table) != sorted(f"{i},{j}" for i in range(m1) for j in range(m1)):
        return "table does not have m1^2 cells"
    for i in range(m1):
        for j in range(m1):
            cell = table[f"{i},{j}"]
            if cell != table[f"{j},{i}"]:
                return f"cell {i},{j} is not symmetric"
            for l, value in cell.items():
                want = d[i] + d[j] - d[int(l)]
                if meta["level"] == "ordinary":
                    if not isinstance(value, int) or value < 0 or want != 0:
                        return f"ordinary cell {i},{j},{l} = {value!r}"
                    continue
                terms = parse_poly(value, n)
                if not terms or any(c.denominator != 1 for c in terms.values()):
                    return f"cell {i},{j},{l} is not integral"
                if any(sum(e) != want for e in terms):
                    return f"cell {i},{j},{l} is not homogeneous of degree {want}"
    return None


def degree_zero_part(table: dict, n: int) -> dict:
    out = {}
    for key, cell in table.items():
        part = {}
        for l, value in cell.items():
            c = parse_poly(value, n).get((0,) * n)
            if c:
                part[l] = int(c)
        out[key] = part
    return out


# -- verify -------------------------------------------------------------------

# (size, vectors, degree sums of sampled cells): every cell at (2,5) and
# (3,5); at (2,6) one sampled cell per degree sum d_i + d_j in 5..10.  A
# cell's cost grows steeply with its degree (the top cell's positivity
# rewrite alone takes seconds), so a plain random sample would make the
# run length depend on the seed.  The plan keeps a pass short enough
# that at least two passes fit in a run on a slow host.
VERIFY_PLAN = (((2, 5), 1, None), ((3, 5), 1, None), ((2, 6), 1, range(5, 11)))


def verify_requests(seed: int) -> list:
    """Per (size, vector): pipeline table, oracle cells, integrality, positivity."""
    rng = random.Random(f"verify:{seed}")
    out = []
    for (k, n), count, degrees in VERIFY_PLAN:
        d = [dim(s) for s in symbols(k, n)]
        pairs = [[i, j] for i in range(len(d)) for j in range(i, len(d))]
        for _ in range(count):
            a, t = rng.randint(1, 2), rng.randint(1, 5)
            cells = "all"
            if degrees is not None:
                cells = sorted(
                    rng.choice([p for p in pairs if d[p[0]] + d[p[1]] == s])
                    for s in degrees
                )
            out.append({
                "id": f"verify-{len(out):02d}",
                "k": k,
                "n": n,
                "b": weighted_vector(k, n, a, t),
                "cells": cells,
            })
    return out


# Sizes of the ROADMAP baseline rows that the traced run regenerates.
BASELINE_SIZES = ((2, 5), (2, 6))


# -- weights ------------------------------------------------------------------

WEIGHT_SIZES = ((2, 4), (2, 5), (3, 5), (2, 6), (3, 6))


def _payload_is(expected):
    def check(code, payload):
        if code != 0 or payload != expected:
            return f"exit {code}, got {str(payload)[:80]}"
        return None
    return check


def _check_solve(b, k, n):
    def check(code, payload):
        if code != 0 or not isinstance(payload, dict):
            return f"exit {code}"
        if weights_from(payload["W"], payload["a"], k, n) != b:
            return "(W, a) does not reproduce b"
        return None
    return check


def _check_presented(b):
    def check(code, payload):
        if code != 0 or not isinstance(payload, dict) or payload.get("divisive") is not True:
            return f"exit {code}"
        perm, shown = payload["witness"], payload["presented"]
        if sorted(perm) != list(range(len(b))):
            return "witness is not a permutation"
        if shown != [b[p] for p in perm] or sorted(shown) != sorted(b):
            return "presented vector is not the witness image of b"
        if not descending_divisible(shown):
            return "presented vector is not descending-divisible"
        return None
    return check


def _check_not_found(key):
    def check(code, payload):
        if code != 3 or not isinstance(payload, dict) or payload.get(key) is not False:
            return f"exit {code}, expected 3"
        return None
    return check


def _check_classify(b, c, r):
    def check(code, payload):
        if code != 0 or not isinstance(payload, dict) or payload.get("equivalent") is not True:
            return f"exit {code}"
        perm = payload["permutation"]
        if sorted(perm) != list(range(len(b))) or payload["scalar"] != str(r):
            return "wrong permutation or scalar"
        if any(c[i] != r * b[perm[i]] for i in range(len(b))):
            return "c != r * sigma(b)"
        return None
    return check


def _check_torsion(b, k, n):
    """A divisive vector has torsion-free cohomology with the cell counts as ranks."""
    ranks = cell_counts(k, n)
    primes = [str(p) for p in prime_support(b)]

    def check(code, payload):
        if code != 0 or not isinstance(payload, dict):
            return f"exit {code}"
        if payload.get("torsion_free") is not True:
            return "divisive vector reported with torsion"
        if sorted(payload["primes"], key=int) != primes:
            return "primes are not the prime support of b"
        for q, entry in payload["cohomology"].items():
            want = ranks[int(q) // 2] if int(q) % 2 == 0 else 0
            if entry != {"rank": want, "torsion": []}:
                return f"degree {q} is {entry}"
        return None
    return check


def _check_perms(k, n, count, exact_induced):
    induced = induced_permutations(k, n)

    def check(code, payload):
        if code != 0 or not isinstance(payload, dict) or payload.get("count") != count:
            return f"exit {code}, expected {count} permutations"
        found = {tuple(p["perm"]) for p in payload["permutations"]}
        if len(found) != count or not induced <= found:
            return "permutations do not contain the induced group"
        if exact_induced and found != induced:
            return "permutations are not the induced group"
        return None
    return check


def _check_invalid(code, payload):
    if code != 2 or not isinstance(payload, dict) or payload.get("kind") != "invalid-input":
        return f"exit {code}, expected 2 with an invalid-input error"
    return None


def _check_huge_weight(code, payload):
    if code == 0 and payload == {"valid": False}:
        return None
    return _check_invalid(code, payload)


def _random_vector(rng, k, n) -> list:
    """A valid weights_from_wa vector whose divisive search stays at identity."""
    while True:
        W = [rng.randint(-3, 6) for _ in range(n)]
        b = weights_from(W, rng.randint(1, 4), k, n)
        low = min(b)
        if low < 1:
            b = [x - low + 1 for x in b]
        if descending_divisible(b) or not chain_possible(b):
            return b


def _non_presented(rng, k, n) -> list:
    """a*(t+1) on symbols containing s != 1: divisive, not presented."""
    s, a, t = rng.randint(2, n), rng.randint(1, 3), rng.randint(1, 4)
    return [a * (t + 1) if s in sym else a for sym in symbols(k, n)]


def weights_requests(seed: int) -> list:
    rng = random.Random(f"weights:{seed}")
    out = []

    def add(argv, check, known_defect=False):
        out.append(Request(f"weights-{len(out):03d}", argv, check, known_defect))

    for k, n in WEIGHT_SIZES:
        kn = ["--k", str(k), "--n", str(n)]
        for _ in range(2):
            b = _random_vector(rng, k, n)
            bumped = list(b)
            bumped[rng.randrange(len(b))] += 1
            r = rng.randint(2, 5)
            add(["validate", compact(b)] + kn, _payload_is({"valid": True}))
            add(["validate", compact(bumped)] + kn, _payload_is({"valid": False}))
            add(["solve-wa", compact(b)] + kn, _check_solve(b, k, n))
            if chain_possible(b):
                add(["divisive", compact(b)] + kn, _check_presented(b))
            else:
                add(["divisive", compact(b)] + kn, _check_not_found("divisive"))
            c = [r * x for x in b]
            add(["classify", compact(b), compact(c)] + kn, _check_classify(b, c, r))
        p = weighted_vector(k, n, rng.randint(1, 3), rng.randint(1, 5))
        r = rng.randint(2, 5)
        add(["validate", compact(p)] + kn, _payload_is({"valid": True}))
        add(["solve-wa", compact(p)] + kn, _check_solve(p, k, n))
        add(["divisive", compact(p)] + kn, _check_presented(p))
        add(["classify", compact(p), compact([r * x for x in p])] + kn,
            _check_classify(p, [r * x for x in p], r))
        add(["torsion", compact(p)] + kn, _check_torsion(p, k, n))
        add(["poincare"] + kn, _payload_is(cell_counts(k, n)))

    # Permutation searches at (2,4), about a fifth of the requests.  Twelve
    # are classify calls that find no equivalence: each searches the whole
    # full scope, the same work every time, and request_p90_s lands among
    # them, so it follows plucker.
    kn = ["--k", "2", "--n", "4"]
    induced = sorted(induced_permutations(2, 4))
    for i in range(4):
        b = _non_presented(rng, 2, 4)
        add(["divisive", compact(b)] + kn, _check_presented(b))
        if i < 2:
            add(["torsion", compact(b)] + kn, _check_torsion(b, 2, 4))
            sigma, r = rng.choice(induced), rng.randint(2, 5)
            base = _random_vector(rng, 2, 4)
            c = [r * base[sigma[j]] for j in range(6)]
            add(["classify", compact(base), compact(c)] + kn, _check_classify(base, c, r))
        for _ in range(3):
            base, other = _random_vector(rng, 2, 4), _random_vector(rng, 2, 4)
            while sorted(primitive(other)) == sorted(primitive(base)):
                other = _random_vector(rng, 2, 4)
            add(["classify", compact(base), compact(other)] + kn,
                _check_not_found("equivalent"))
    add(["perms", "--scope", "sn"] + kn, _check_perms(2, 4, 24, True))
    add(["perms", "--scope", "full"] + kn, _check_perms(2, 4, 48, False))

    # The full-scope search, and non-presented vectors that need the
    # S_n-induced search (about 1.3 s each at this size).
    add(["perms", "--scope", "full", "--k", "2", "--n", "5"], _check_perms(2, 5, 120, True))
    for k, n in ((2, 5), (3, 5)):
        b = _non_presented(rng, k, n)
        add(["divisive", compact(b), "--k", str(k), "--n", str(n)], _check_presented(b))

    # Malformed input: exit 2 with a JSON error.
    k, n = rng.choice(WEIGHT_SIZES)
    kn = ["--k", str(k), "--n", str(n)]
    b = _random_vector(rng, k, n)
    zero, fraction = list(b), compact(b)
    zero[rng.randrange(len(b))] = 0
    fraction = fraction.replace(",", ".5,", 1)
    add(["validate", compact(b)[:-1]] + kn, _check_invalid)
    add(["solve-wa", compact(b[:-1])] + kn, _check_invalid)
    add(["divisive", compact(zero)] + kn, _check_invalid)
    add(["torsion", fraction] + kn, _check_invalid)

    # Known defects (ROADMAP open item 5); failures at the seed.
    add(["validate", compact([True] * 6), "--k", "2", "--n", "4"], _check_invalid, True)
    huge = "[" + "9" * 5000 + ",1,1,1,1,1]"
    add(["validate", huge, "--k", "2", "--n", "4"], _check_huge_weight, True)
    return out
