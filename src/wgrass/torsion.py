"""
Lens-complex cohomology and torsion certificates for Gr_b(k, n).

The cell structure of Gr_b(k, n) attaches one cell per Schubert symbol;
stage i glues a cone over the lens complex L'(b_i; weights), where the
weights are the b_j with lam_j in the reversal set R(lam_i).  The
integral cohomology of a lens complex L'(c; (c_0, ..., c_{t-1})) is

    Z          in degrees 0 and 2t-1,
    Z_mu       in degree 2e for 1 <= e <= t-1,
    0          elsewhere,

with mu = l_e(weights + [c]) / l_e(weights), where l_e(S) is the product
over primes p of the e largest p-contents of the members of S.

A *certificate* for the prime p is a Plucker permutation sigma such
that, for every stage j >= 3, the p-content of b_{sigma(j)} divides at
least dim(lam_j) - 1 of the permuted reversal-stage weights; when one
exists, the integral cohomology has no p-torsion.  Certificates for all
relevant primes give a torsion-free, even-degree cohomology whose ranks
are the cell counts per dimension.

For (2, 4) the report is sharper: torsion can only live in degree 3,
where it is bounded through the pair

    eta  = lcm(b_0, b_1, b_3) / lcm(b_0, b_1),
    eta' = lcm(b_0, b_1, b_2) / lcm(b_0, b_1),

computed per admissible permutation.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from . import plucker, symbols
from .errors import ParameterError


class _LensFields(NamedTuple):
    order: int
    weights: tuple


class LensSpec(_LensFields):
    """Quotient data of a sphere by a finite cyclic weighted action."""

    __slots__ = ()

    def __new__(cls, order: int, weights: tuple):
        if order < 1 or len(weights) < 1:
            raise ParameterError("lens spec needs order >= 1 and t >= 1 weights")
        if any(w < 1 for w in weights):
            raise ParameterError("lens weights must be >= 1")
        return super().__new__(cls, order, weights)


def p_content(x: int, p: int) -> int:
    """Largest power of p dividing x (p >= 2)."""
    if p < 2:
        raise ParameterError(f"p-content needs p >= 2, got {p}")
    out = 1
    while x % p == 0:
        out *= p
        x //= p
    return out


def _prime_support(values) -> list:
    primes = set()
    for v in values:
        primes |= plucker.prime_factors(v)
    return sorted(primes)


def l_e(weights, e: int) -> int:
    """Product over primes of the e largest p-contents among the weights."""
    t = len(weights)
    if not 1 <= e <= t:
        raise ParameterError(f"need 1 <= e <= {t}, got {e}")
    out = 1
    for p in _prime_support(weights):
        contents = sorted((p_content(w, p) for w in weights), reverse=True)
        for c in contents[:e]:
            out *= c
    return out


def lens_cohomology(spec: LensSpec) -> dict:
    """Integral cohomology {degree: (rank, [torsion orders])}, zeros omitted."""
    t = len(spec.weights)
    groups = {0: (1, ()), 2 * t - 1: (1, ())}
    for e in range(1, t):
        mu = l_e(tuple(spec.weights) + (spec.order,), e) // l_e(spec.weights, e)
        if mu > 1:
            groups[2 * e] = (0, (mu,))
    return dict(sorted(groups.items()))


def building_sequence(b, k: int, n: int) -> list:
    """Per stage i >= 1: (i, dim, LensSpec(order=b_i, reversal weights))."""
    b = plucker.weight_vector(b, k, n)
    lat = symbols.lattice(k, n)
    out = []
    for i in range(1, lat.m + 1):
        weights = tuple(b[j] for j in lat.R[i])
        out.append((i, lat.d[i], LensSpec(b[i], weights)))
    return out


def _stage_clean(b, lat, p: int, perm, j: int) -> bool:
    """Stage j is clean: the p-content of b_{perm(j)} divides at least
    dim(lam_j) - 1 of the permuted reversal weights."""
    content = p_content(b[perm[j]], p)
    hits = sum(1 for l in lat.R[j] if b[perm[l]] % content == 0)
    return hits >= lat.d[j] - 1


def certificate_condition(b, k: int, n: int, p: int, perm) -> bool:
    """Stage-wise divisibility condition for the prime p under perm."""
    lat = symbols.lattice(k, n)
    return all(_stage_clean(b, lat, p, perm, j) for j in range(3, lat.m + 1))


def no_p_torsion_certificate(b, k: int, n: int, p: int, scope: str = "auto"):
    """A Plucker permutation witnessing no p-torsion, or None.

    Searches identity first, then S_n-induced, then the full scope, and
    certifies only the permutation it returns;
    None means not found in the searched scope.
    """
    b = plucker.weight_vector(b, k, n)
    for sigma in plucker.scope_ladder(k, n, scope):
        if certificate_condition(b, k, n, p, sigma):
            return plucker.certify(sigma, k, n)
    return None


def poincare_ranks(k: int, n: int) -> list:
    """Cell counts per complex dimension 0..k(n-k).

    These are the coefficients of the Gaussian binomial [n choose k]_q,
    built by [m, j] = [m-1, j-1] + q^j [m-1, j] without the lattice.
    """
    symbols.check_kn(k, n)
    rows = [[1]] + [[] for _ in range(k)]  # rows[j] = [m choose j]_q
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            lower, upper = rows[j - 1], rows[j]
            out = lower + [0] * (m - j)
            for d, c in enumerate(upper):
                out[d + j] += c
            rows[j] = out
    return rows[k]


def torsion_report(b, k: int, n: int, primes=None, scope: str = "auto") -> dict:
    """Certificate search per prime plus the rank census.

    primes narrows the certificate search (default: every prime dividing
    some b_i).  Degrees are reported torsion-free when every prime
    dividing some b_i carries a certificate; otherwise the undecided
    degrees are marked unknown (for (2, 4) the sharper degree-3 analysis
    is attached).
    """
    if primes is not None:
        for p in primes:
            if plucker.prime_factors(p) != {p}:
                raise ParameterError(f"{p} is not a prime")
    vec = plucker.weight_vector(b, k, n)
    # a bad scope is rejected also when no prime is left to search
    plucker.scope_ladder(k, n, scope)
    support = _prime_support(vec)
    certs = {
        p: no_p_torsion_certificate(vec, k, n, p, scope)
        for p in sorted(set(support if primes is None else primes))
    }
    all_certified = all(certs.get(p) is not None for p in support)
    ranks = poincare_ranks(k, n)
    report: dict = {
        "k": k,
        "n": n,
        "b": list(vec),
        "primes": {
            str(p): {
                "certified": w is not None,
                "witness": list(w.perm) if w is not None else None,
            }
            for p, w in certs.items()
        },
    }
    special = gr24_torsion_report(vec) if (k, n) == (2, 4) else None
    if special is not None:
        report["gr24"] = special
    torsion_free = all_certified or (
        special is not None and special["fully_torsion_free"]
    )
    cohomology = {}
    top = 2 * k * (n - k)
    for q in range(top + 1):
        rank = ranks[q // 2] if q % 2 == 0 else 0
        if torsion_free:
            status: object = []
        elif special is not None:
            status = [] if q != 3 else "unknown"
        else:
            status = "unknown" if 0 < q <= top else []
        cohomology[str(q)] = {"rank": rank, "torsion": status}
    report["cohomology"] = cohomology
    report["torsion_free"] = torsion_free
    return report


def _eta_pair(vec) -> tuple:
    eta = lcm(vec[0], vec[1], vec[3]) // lcm(vec[0], vec[1])
    eta_prime = lcm(vec[0], vec[1], vec[2]) // lcm(vec[0], vec[1])
    return eta, eta_prime


def _admissible_gr24(b, p: int, full: list) -> list:
    """Permutations of full with p-minimal entry at stage 5 and clean
    stages 4, 5."""
    lat = symbols.lattice(2, 4)
    min_content = min(p_content(x, p) for x in b)
    return [
        w for w in full
        if p_content(b[w.perm[5]], p) == min_content
        and _stage_clean(b, lat, p, w.perm, 4)
        and _stage_clean(b, lat, p, w.perm, 5)
    ]


def gr24_torsion_report(b) -> dict:
    """Torsion analysis special to Gr_b(2, 4).

    Cohomology is torsion-free away from degree 3 unconditionally.  In
    degree 3 the report clears a prime p when either the b_1 = b_2,
    gcd(b_0, b_5) = 1 rule applies (in some permuted presentation), or
    some admissible permutation sigma has p not dividing
    gcd(eta(sigma b), eta'(sigma b)).
    """
    vec = plucker.weight_vector(b, 2, 4)
    report: dict = {
        "b": list(vec),
        "torsion_free_degrees": [i for i in range(9) if i != 3],
    }
    special_witness = None
    full = plucker.enumerate_plucker_permutations(2, 4, "full")
    for witness in full:
        img = plucker.apply_permutation(witness, vec, 2, 4)
        if img[1] == img[2] and gcd(img[0], img[5]) == 1:
            special_witness = {"perm": list(witness.perm), "image": list(img)}
            break
    report["b1_eq_b2_rule"] = special_witness
    primes = _prime_support(vec)
    degree3: dict = {}
    cleared_all = True
    for p in primes:
        entries = []
        cleared = False
        for witness in _admissible_gr24(vec, p, full):
            img = plucker.apply_permutation(witness, vec, 2, 4)
            eta, eta_prime = _eta_pair(img)
            ok = gcd(eta, eta_prime) % p != 0
            entries.append(
                {
                    "perm": list(witness.perm),
                    "eta": eta,
                    "eta_prime": eta_prime,
                    "clears_p": ok,
                }
            )
            cleared = cleared or ok
        cert = no_p_torsion_certificate(vec, 2, 4, p, "auto")
        if cert is not None:
            cleared = True
        degree3[str(p)] = {
            "cleared": cleared or special_witness is not None,
            "certificate": list(cert.perm) if cert is not None else None,
            "eta_pairs": entries,
        }
        cleared_all = cleared_all and degree3[str(p)]["cleared"]
    report["degree_3"] = {
        "primes": degree3,
        "status": "torsion-free" if cleared_all else "unknown",
    }
    report["fully_torsion_free"] = cleared_all
    return report

