"""
Fixed-point (GKM) model of the equivariant cohomology of Gr_b(k, n).

Classes are tuples of polynomials in y_1..y_n, one per Schubert symbol;
membership requires, for every pair lam_i in R(lam_j), that the edge
label

    Y_{lam_i} - (b_i / b_j) * Y_{lam_j},      Y_lam = sum_{s in lam} y_s,

divides the difference of the two components.  Integral labels need the
weight vector in divisibility-descending presentation (b_i | b_{i-1}).

The module computes the distinguished basis of this ring.  The basis
element attached to lam_i is pinned by three conditions: it vanishes
off the upper set of lam_i, its value at lam_i is the product of the
edge labels into lam_i, and every component is homogeneous of degree
dim(lam_i).  At b = (1, ..., 1) the values are produced by triangular
congruence interpolation up the lattice; the weighted values are the
b = 1 values under the per-column substitution

    y_s  ->  y_s - (w_s / b_j) * Y_{lam_j}

with (W, a) the integer exponent data of b.  Both matrices are verified
against the three pinning conditions, the closed row-1 form, and GKM
membership at build time.

``localize_product`` multiplies two basis classes pointwise and peels
the expansion coefficients by increasing index; it is the independent
oracle every structure-constant formula is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import plucker, symbols
from .errors import InternalInconsistencyError, ParameterError
from .polynomial import Poly, linear_form


class GKMGraph(NamedTuple):
    """Edge-labelled fixed-point graph for one weight vector."""

    k: int
    n: int
    b: tuple
    edges: tuple  # (i, j) with lam_i in R(lam_j)
    labels: dict  # (i, j) -> Poly


def build_graph(b, k: int, n: int) -> GKMGraph:
    """GKM graph over all symbols; requires the divisive presentation."""
    vec = plucker.presented_weight_vector(b, k, n)
    lat = symbols.lattice(k, n)
    edges = []
    labels = {}
    for j in range(lat.m + 1):
        yj = linear_form(n, lat.symbols[j])
        for i in lat.R[j]:
            label = linear_form(n, lat.symbols[i]) - Fraction(vec[i], vec[j]) * yj
            edges.append((i, j))
            labels[(i, j)] = label
    return GKMGraph(k, n, vec, tuple(edges), labels)


def is_class(graph: GKMGraph, values) -> bool:
    """True iff every edge label divides the difference across the edge."""
    vals = list(values)
    if len(vals) != len(symbols.lattice(graph.k, graph.n).symbols):
        raise ParameterError("need one polynomial per fixed point")
    for (i, j) in graph.edges:
        diff = vals[j] - vals[i]
        if diff.is_zero():
            continue
        if diff.divide_exact(graph.labels[(i, j)]) is None:
            return False
    return True


def _interpolate_value(constraints, degree: int, n: int) -> Poly:
    """The unique homogeneous degree-d polynomial matching the congruences.

    ``constraints`` is a list of (s, s_prime, value): the result must be
    congruent to ``value`` modulo (y_{s_prime} - y_s), i.e. agree with it
    once y_s is identified with y_{s_prime} (``Poly.permute_variables``
    with {s: s_prime}).  Built incrementally: the correction after the
    first t congruences is divisible by the product of their labels, so
    it is recovered by exact division after the identification.
    Uniqueness holds because the labels are pairwise coprime and their
    count exceeds the degree.
    """
    subs = [{s: sp} for s, sp, _ in constraints]
    alpha = constraints[0][2]
    prod_e = Poly.one(n)
    for t in range(1, len(constraints)):
        s_prev, sp_prev, _ = constraints[t - 1]
        prod_e = prod_e * (
            Poly.variable(n, sp_prev) - Poly.variable(n, s_prev)
        )
        value = constraints[t][2]
        rem = (value - alpha).permute_variables(subs[t])
        if rem.is_zero():
            continue
        pd = prod_e.permute_variables(subs[t])
        g = rem.divide_exact(pd)
        if g is None:
            raise InternalInconsistencyError("congruence system is not solvable")
        alpha = alpha + prod_e * g
    for (s, sp, value), sub in zip(constraints, subs):
        if not (alpha - value).permute_variables(sub).is_zero():
            raise InternalInconsistencyError("interpolated value fails a congruence")
    if not (alpha.is_zero() or
            (alpha.is_homogeneous() and alpha.degree() == degree)):
        raise InternalInconsistencyError("interpolated value has wrong degree")
    return alpha


@lru_cache(maxsize=None)
def kt_restrictions(k: int, n: int) -> tuple:
    """Basis restriction matrix at b = (1, ..., 1), rows by basis index.

    Entry [i][j] is the value of basis class i at fixed point j.  Row i
    is built by increasing j: off the upper set the value is zero, the
    diagonal is the pinned product, and every later vertex is the unique
    homogeneous solution of the congruences along edges into it.
    """
    lat = symbols.lattice(k, n)
    m1 = lat.m + 1
    graph = build_graph((1,) * m1, k, n)
    matrix = []
    for i in range(m1):
        row: list = []
        for j in range(m1):
            if not lat.leq_idx(i, j):
                row.append(Poly.zero(n))
                continue
            if j == i:
                row.append(_diagonal(graph, lat, i))
                continue
            constraints = []
            for s, sp in symbols.reversal_pairs(lat.symbols[j]):
                l = lat.index[symbols.exchange(lat.symbols[j], s, sp)]
                constraints.append((s, sp, row[l]))
            row.append(_interpolate_value(constraints, lat.d[i], n))
        matrix.append(tuple(row))
    out = tuple(matrix)
    _validate_basis(out, graph)
    return out


def weighted_restrictions(b, k: int, n: int) -> tuple:
    """Basis restriction matrix for a presented divisive weight vector.

    Column j applies y_s -> y_s - (w_s / b_j) Y_{lam_j} to the b = 1
    matrix; the result is validated against the pinning conditions and
    GKM membership before use.  Only the shape is checked on every
    call, so that no boolean or float entry can hit the cache of an
    equal integer vector; the pair-sum test runs on the first call.
    """
    return _weighted_cached(plucker.check_weight_vector_shape(b, k, n), k, n)


@lru_cache(maxsize=None)
def _weighted_cached(b: tuple, k: int, n: int) -> tuple:
    vec = plucker.presented_weight_vector(b, k, n)
    lat = symbols.lattice(k, n)
    base = kt_restrictions(k, n)
    if all(x == 1 for x in vec):
        return base
    graph = build_graph(vec, k, n)
    wa = plucker.solve_wa(vec, k, n)
    matrix = []
    for i in range(lat.m + 1):
        row = []
        for j in range(lat.m + 1):
            entry = base[i][j]
            if entry.is_zero():
                row.append(entry)
                continue
            yj = linear_form(n, lat.symbols[j])
            images = {
                s: Poly.variable(n, s) - Fraction(wa.W[s - 1], vec[j]) * yj
                for s in range(1, n + 1)
                if wa.W[s - 1]
            }
            row.append(entry.substitute(images) if images else entry)
        matrix.append(tuple(row))
    out = tuple(matrix)
    _validate_basis(out, graph)
    return out


def _diagonal(graph: GKMGraph, lat, i: int) -> Poly:
    """The pinned value at lam_i: the product of the edge labels into it."""
    diag = Poly.one(graph.n)
    for l in lat.R[i]:
        diag = diag * graph.labels[(l, i)]
    return diag


def _validate_basis(matrix, graph: GKMGraph) -> None:
    """Pinning conditions, the closed row-1 form, and GKM membership."""
    n, vec = graph.n, graph.b
    lat = symbols.lattice(graph.k, n)
    for i in range(lat.m + 1):
        for j in range(lat.m + 1):
            entry = matrix[i][j]
            if not lat.leq_idx(i, j):
                if not entry.is_zero():
                    raise InternalInconsistencyError("support leaks downward")
                continue
            if entry.is_zero():
                if j == i:
                    raise InternalInconsistencyError("diagonal entry vanishes")
                continue
            if not (entry.is_homogeneous() and entry.degree() == lat.d[i]):
                raise InternalInconsistencyError("entry with wrong degree")
        if i == 1:
            y0 = linear_form(n, lat.symbols[0])
            for j in range(1, lat.m + 1):
                want = y0 - Fraction(vec[0], vec[j]) * linear_form(
                    n, lat.symbols[j]
                )
                if matrix[1][j] != want:
                    raise InternalInconsistencyError("row 1 closed form fails")
        if matrix[i][i] != _diagonal(graph, lat, i):
            raise InternalInconsistencyError("diagonal product formula fails")
    for i in range(lat.m + 1):
        if not is_class(graph, matrix[i]):
            raise InternalInconsistencyError("basis row fails GKM membership")


def restrictions_as_json(b, k: int, n: int) -> dict:
    """Restriction matrix as nested {basis index: {vertex: polynomial string}}."""
    matrix = weighted_restrictions(b, k, n)
    return {
        str(i): {
            str(j): entry.render()
            for j, entry in enumerate(row)
            if not entry.is_zero()
        }
        for i, row in enumerate(matrix)
    }


def localize_product(b, k: int, n: int, i: int, j: int) -> dict:
    """Expansion of basis_i * basis_j in the basis, by localization.

    Multiplies the two restriction rows pointwise, then repeatedly peels
    the smallest-index nonzero residual component by exact division with
    the diagonal.  Raises on any division failure or nonzero residue;
    for integral divisive b the coefficients are checked integral.
    """
    matrix = weighted_restrictions(b, k, n)
    lat = symbols.lattice(k, n)
    m1 = lat.m + 1
    residual = [matrix[i][t] * matrix[j][t] for t in range(m1)]
    out = {}
    for l in range(m1):
        v = residual[l]
        if v.is_zero():
            continue
        coeff = v.divide_exact(matrix[l][l])
        if coeff is None:
            raise InternalInconsistencyError("localization peel is not exact")
        out[l] = coeff
        for u in range(l, m1):
            entry = matrix[l][u]
            if not entry.is_zero():
                residual[u] = residual[u] - coeff * entry
    if any(not r.is_zero() for r in residual):
        raise InternalInconsistencyError("nonzero residual after peeling")
    for l, coeff in out.items():
        expected = lat.d[i] + lat.d[j] - lat.d[l]
        if not (coeff.is_homogeneous() and coeff.degree() == expected):
            raise InternalInconsistencyError("coefficient with wrong degree")
        if not coeff.is_integral():
            raise InternalInconsistencyError(
                "non-integral localized coefficient for integral divisive b"
            )
    return out
