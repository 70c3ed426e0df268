"""
Fixed-point (GKM) model of the equivariant cohomology of Gr_b(k, n).

Classes are tuples of polynomials in y_1..y_n, one per Schubert symbol;
membership requires, for every pair lam_i in R(lam_j), that the edge
label

    Y_{lam_i} - (b_i / b_j) * Y_{lam_j},      Y_lam = sum_{s in lam} y_s,

divides the difference of the two components.  The divisive
presentation (b_i | b_{i-1}) makes every label an integer polynomial,
built once, in ``build_graph``.

The module computes the distinguished basis of this ring.  The basis
element attached to lam_i is pinned by three conditions: it vanishes
off the upper set of lam_i, its value at lam_i is the product of the
edge labels into lam_i, and every component is homogeneous of degree
dim(lam_i).  At b = (1, ..., 1) the values are produced by triangular
congruence interpolation up the lattice; the weighted values are the
b = 1 values under the per-column substitution

    y_s  ->  y_s - (w_s / b_j) * Y_{lam_j}

with (W, a) the integer exponent data of b.

The basis is held in integer form: the value of class i at lam_t is
stored times b_t^{d_i}, as a map from packed monomials to ints (one
``_packer`` per (n, 2 max d)).  The b = 1 interpolation runs on these
maps: identifying y_s with y_s' moves the exponent field of s onto
that of s', and each correction is an exact division by the primitive
packed product of the labels so far.  Weighted rows substitute the
packed b = 1 rows under the packed integer images
y_s -> b_t y_s - w_s Y_{lam_t}; every entry is homogeneous, so that is
exactly this scale of the substitution above.  At this scale the closed
row-1 form reads b_j Y_0 - b_0 Y_j, the pinned diagonal is b_i^{d_i}
times the product of the labels into lam_i, and GKM membership divides
the integer difference across an edge by the label.  These checks and
the pinning conditions run on every matrix at build time.  The ``Poly``
matrices of ``kt_restrictions`` and ``weighted_restrictions`` are read
off the integer rows with one division per entry.

``localize_product`` multiplies two integer rows pointwise and peels
the expansion coefficients by increasing index, in integers; it is the
independent oracle every structure-constant formula is tested against.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from . import plucker, symbols
from .errors import InternalInconsistencyError, ParameterError
from .polynomial import (
    _build,
    _cleared,
    _degree_range,
    _divide_packed,
    _identify_packed,
    _mul_packed,
    _packer,
    _substitute_packed,
    linear_form,
)


class GKMGraph(NamedTuple):
    """Edge-labelled fixed-point graph for one weight vector."""

    k: int
    n: int
    b: tuple
    edges: tuple  # (i, j) with lam_i in R(lam_j)
    labels: dict  # (i, j) -> integer Poly, primitive


def build_graph(b, k: int, n: int) -> GKMGraph:
    """GKM graph over all symbols; requires the divisive presentation.

    That puts b_j | b_i on every edge (i, j), so the label
    Y_i - (b_i / b_j) Y_j is the primitive part of b_j Y_i - b_i Y_j:
    its coefficient on the variable that lam_i gains is 1.
    """
    vec = plucker.presented_weight_vector(b, k, n)
    lat = symbols.lattice(k, n)
    edges = []
    labels = {}
    for j in range(lat.m + 1):
        yj = linear_form(n, lat.symbols[j])
        for i in lat.R[j]:
            ratio, rest = divmod(vec[i], vec[j])
            if rest:
                raise InternalInconsistencyError("b_j does not divide b_i")
            edges.append((i, j))
            labels[(i, j)] = linear_form(n, lat.symbols[i]) - yj * ratio
    return GKMGraph(k, n, vec, tuple(edges), labels)


def _packed_labels(graph: GKMGraph, pack) -> dict:
    return {
        edge: {pack(e): c for e, c in label.terms.items()}
        for edge, label in graph.labels.items()
    }


def _row_is_class(graph: GKMGraph, labels: dict, unpack, row, scales) -> bool:
    """GKM membership of the class with value row[t] / scales[t] at t.

    ``row`` holds packed integer maps and ``labels`` the packed edge
    labels.  Across the edge (l, j) the difference is
    scaled to the integer map (s_l row[j] - s_j row[l]) / gcd(s_l, s_j),
    which the label divides in Q[y] iff ``_divide_packed`` finds a
    quotient (Gauss's lemma).
    """
    for l, j in graph.edges:
        hi, lo = row[j], row[l]
        if not (hi or lo):
            continue
        g = gcd(scales[j], scales[l])
        diff = {key: c * (scales[l] // g) for key, c in hi.items()}
        _mul_packed(lo, {0: 1}, diff, -(scales[j] // g))  # {0: 1} packs 1
        if diff and _divide_packed(diff, labels[(l, j)], unpack) is None:
            return False
    return True


def is_class(graph: GKMGraph, values) -> bool:
    """True iff every edge label divides the difference across the edge."""
    vals = list(values)
    if len(vals) != len(symbols.lattice(graph.k, graph.n).symbols):
        raise ParameterError("need one polynomial per fixed point")
    if any(v.nvars != graph.n for v in vals):
        raise ParameterError(f"values must be polynomials in {graph.n} variables")
    pack, unpack = _packer(graph.n, max(1, *(v.degree() for v in vals)))
    cleared = [_cleared(v.terms) for v in vals]
    scale = lcm(*(d for _, d in cleared))
    row = [
        {pack(e): c * (scale // d) for e, c in terms.items()}
        for terms, d in cleared
    ]
    return _row_is_class(
        graph, _packed_labels(graph, pack), unpack, row, [1] * len(row)
    )


def _interpolate_value(constraints, degree: int, n: int, top: int) -> dict:
    """The unique homogeneous degree-d polynomial matching the congruences.

    ``constraints`` is a list of (s, s_prime, value), value a packed
    integer map: the result must be congruent to ``value`` modulo
    (y_{s_prime} - y_s), i.e. agree with it once y_s is identified with
    y_{s_prime} (``_identify_packed``).  Built incrementally: the correction
    after the first t congruences is divisible by the product of their
    labels, so it is recovered by exact division after the
    identification; that product stays primitive under it, so by
    Gauss's lemma ``_divide_packed`` finds every quotient in Q[y].
    Uniqueness holds because the labels are pairwise coprime and their
    count exceeds the degree.  Values and result are packed with
    ``_packer(n, top)``, top >= degree.
    """
    pack, unpack = _packer(n, top)
    unit = [pack(tuple(int(u == v) for u in range(n))) for v in range(n)]
    alpha = dict(constraints[0][2])
    prod_e = {0: 1}  # 0 packs the monomial 1
    for t in range(1, len(constraints)):
        s_prev, sp_prev, _ = constraints[t - 1]
        label = {unit[sp_prev - 1]: 1, unit[s_prev - 1]: -1}
        prod_e = _mul_packed(prod_e, label)
        s, sp, value = constraints[t]
        diff = dict(value)
        _mul_packed(alpha, {0: 1}, diff, -1)
        rem = _identify_packed(diff, s, sp, n, top)
        if not rem:
            continue
        g = _divide_packed(rem, _identify_packed(prod_e, s, sp, n, top), unpack)
        if g is None:
            raise InternalInconsistencyError("congruence system is not solvable")
        _mul_packed(prod_e, g, alpha)
    for s, sp, value in constraints:
        diff = dict(alpha)
        _mul_packed(value, {0: 1}, diff, -1)
        if _identify_packed(diff, s, sp, n, top):
            raise InternalInconsistencyError("interpolated value fails a congruence")
    lowest, highest = _degree_range(pack, n, degree)
    if not all(lowest <= key <= highest for key in alpha):
        raise InternalInconsistencyError("interpolated value has wrong degree")
    return alpha


class _Restrictions(tuple):
    """A restriction matrix of Polys, rows by basis index, and its integer form.

    ``rows[i][t]`` maps packed monomials (``pack``) to ints and equals
    b_t^{d_i} times entry [i][t]; a zero entry is an empty map.
    ``diagonals[l]`` is (primitive part, content) of rows[l][l].  Built
    by ``_restrictions``.
    """


def _restrictions(graph: GKMGraph, pack, unpack, rows) -> _Restrictions:
    """The Poly matrix of integer ``rows``: one division per entry."""
    lat = symbols.lattice(graph.k, graph.n)
    out = _Restrictions(
        tuple(
            _build(
                graph.n,
                {unpack(key): c for key, c in entry.items()},
                graph.b[t] ** lat.d[i],
            )
            for t, entry in enumerate(row)
        )
        for i, row in enumerate(rows)
    )
    out.graph, out.lat, out.rows = graph, lat, rows
    out.pack, out.unpack = pack, unpack
    out.diagonals = []
    for l, row in enumerate(rows):
        content = gcd(*row[l].values())
        out.diagonals.append(
            ({key: c // content for key, c in row[l].items()}, content)
        )
    return out


@lru_cache(maxsize=None)
def kt_restrictions(k: int, n: int) -> tuple:
    """Basis restriction matrix at b = (1, ..., 1), rows by basis index.

    Entry [i][j] is the value of basis class i at fixed point j.  Row i
    is built by increasing j, on packed integer maps: off the upper set
    the value is zero, the diagonal is the pinned product, and every
    later vertex is the unique homogeneous solution of the congruences
    along edges into it.  The rows are then validated and read back as
    the result.
    """
    lat = symbols.lattice(k, n)
    m1 = lat.m + 1
    graph = build_graph((1,) * m1, k, n)
    top = 2 * max(lat.d)  # localize_product multiplies two rows
    pack, unpack = _packer(n, top)
    labels = _packed_labels(graph, pack)
    rows = []
    for i in range(m1):
        row: list = []
        for j in range(m1):
            if not lat.leq_idx(i, j):
                row.append({})
                continue
            if j == i:
                row.append(_diagonal(graph, labels, i))
                continue
            constraints = []
            for s, sp in symbols.reversal_pairs(lat.symbols[j]):
                l = lat.index[symbols.exchange(lat.symbols[j], s, sp)]
                constraints.append((s, sp, row[l]))
            row.append(_interpolate_value(constraints, lat.d[i], n, top))
        rows.append(row)
    out = _restrictions(graph, pack, unpack, rows)
    _validate_basis(out)
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


# weighted matrices kept per process, so that a long-lived process
# checking many vectors stays bounded; a (2, 6) matrix, Poly and
# integer form, holds about 0.6 MB
WEIGHTED_CACHE_SIZE = 16


@lru_cache(maxsize=WEIGHTED_CACHE_SIZE)
def _weighted_cached(b: tuple, k: int, n: int) -> tuple:
    vec = plucker.presented_weight_vector(b, k, n)
    lat = symbols.lattice(k, n)
    base = kt_restrictions(k, n)
    if all(x == 1 for x in vec):
        return base
    graph = build_graph(vec, k, n)
    out = _restrictions(
        graph, base.pack, base.unpack, _substituted_rows(graph, lat, base)
    )
    _validate_basis(out)
    return out


def _substituted_rows(graph: GKMGraph, lat, base) -> list:
    """Integer rows of a weighted vector from the b = 1 matrix ``base``.

    Column t substitutes y_s -> b_t y_s - w_s Y_t.  Every entry of row i
    is homogeneous of degree d_i, so this is b_t^{d_i} times the
    rational substitution y_s -> y_s - (w_s / b_t) Y_t.  Only the
    variables with w_s != 0 are expanded; the factor b_t of every other
    variable is folded into the coefficients (``_substitute_packed``).
    """
    n, vec, pack, unpack = graph.n, graph.b, base.pack, base.unpack
    w = plucker.solve_wa(vec, graph.k, n).W
    mapped = [s for s in range(n) if w[s]]
    kept = [s for s in range(n) if not w[s]]
    unit = [pack(tuple(int(u == v) for u in range(n))) for v in range(n)]
    rows = [[{} for _ in vec] for _ in vec]
    for t, bt in enumerate(vec):
        yt = {unit[u - 1]: 1 for u in lat.symbols[t]}
        images = [(s, _mul_packed(yt, {0: -w[s]}, {unit[s]: bt})) for s in mapped]
        for i, row in enumerate(base.rows):
            if row[t]:
                rows[i][t] = _substitute_packed(
                    {unpack(key): c for key, c in row[t].items()},
                    images, kept, n, pack, bt, lat.d[i],
                )
    return rows


def _diagonal(graph: GKMGraph, labels: dict, i: int) -> dict:
    """The pinned value at lam_i, scaled by b_i^{d_i}: b_i^{d_i} times
    the product of the packed ``labels`` into it."""
    lat = symbols.lattice(graph.k, graph.n)
    diag = {0: graph.b[i] ** lat.d[i]}  # 0 packs the monomial 1
    for l in lat.R[i]:
        diag = _mul_packed(diag, labels[(l, i)])
    return diag


def _validate_basis(matrix: _Restrictions) -> None:
    """Pinning conditions, the closed row-1 form, and GKM membership.

    All checks run on the integer rows: entry [i][t] is compared at the
    scale b_t^{d_i}, so the row-1 form reads b_j Y_0 - b_0 Y_j and the
    diagonal is the product of the integer labels b_i Y_l - b_l Y_i.
    """
    graph, rows, pack = matrix.graph, matrix.rows, matrix.pack
    n, vec, lat = graph.n, graph.b, matrix.lat
    labels = _packed_labels(graph, pack)
    for i in range(lat.m + 1):
        lowest, highest = _degree_range(pack, n, lat.d[i])
        for j in range(lat.m + 1):
            entry = rows[i][j]
            if not lat.leq_idx(i, j):
                if entry:
                    raise InternalInconsistencyError("support leaks downward")
                continue
            if not entry:
                if j == i:
                    raise InternalInconsistencyError("diagonal entry vanishes")
                continue
            if not all(lowest <= key <= highest for key in entry):
                raise InternalInconsistencyError("entry with wrong degree")
        if i == 1:
            y0 = linear_form(n, lat.symbols[0])
            for j in range(1, lat.m + 1):
                closed = y0 * vec[j] - linear_form(n, lat.symbols[j]) * vec[0]
                if rows[1][j] != {pack(e): c for e, c in closed.terms.items()}:
                    raise InternalInconsistencyError("row 1 closed form fails")
        if rows[i][i] != _diagonal(graph, labels, i):
            raise InternalInconsistencyError("diagonal product formula fails")
    for i, row in enumerate(rows):
        scales = [bt ** lat.d[i] for bt in vec]
        if not _row_is_class(graph, labels, matrix.unpack, row, scales):
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

    Multiplies the two integer restriction rows pointwise, which scales
    the residual at t by b_t^{d_i + d_j}, then peels the smallest-index
    nonzero residual component l of degree d_l <= d_i + d_j: with
    e = d_i + d_j - d_l, the coefficient is residual[l] / (b_l^e R[l][l])
    and residual[u] loses coefficient * R[l][u] * b_u^e.  The division
    runs by the primitive part of R[l][l], so a failed division ("not
    exact") stays distinct from a non-integral coefficient.  Raises on
    either, on a nonzero residual left over, and on a coefficient of the
    wrong degree.
    """
    matrix = weighted_restrictions(b, k, n)
    lat = matrix.lat
    lat.check_index(i, j)
    rows, vec, unpack = matrix.rows, matrix.graph.b, matrix.unpack
    top = lat.d[i] + lat.d[j]
    residual = [
        _mul_packed(ri, rj) if ri and rj else {}
        for ri, rj in zip(rows[i], rows[j])
    ]
    out = {}
    for l, v in enumerate(residual):
        e = top - lat.d[l]
        if not v or e < 0:
            continue
        prim, content = matrix.diagonals[l]
        quot = _divide_packed(v, prim, unpack)
        if quot is None:
            raise InternalInconsistencyError("localization peel is not exact")
        den = content * vec[l] ** e
        coeff = {}
        for key, c in quot.items():
            q, r = divmod(c, den)
            if r:
                raise InternalInconsistencyError(
                    "non-integral localized coefficient for integral divisive b"
                )
            coeff[key] = q
        residual[l] = {}
        for u in range(l + 1, lat.m + 1):
            if rows[l][u]:
                _mul_packed(coeff, rows[l][u], residual[u], -vec[u] ** e)
        out[l] = _build(n, {unpack(key): c for key, c in coeff.items()})
    if any(residual):
        raise InternalInconsistencyError("nonzero residual after peeling")
    for l, coeff in out.items():
        expected = top - lat.d[l]
        if not (coeff.is_homogeneous() and coeff.degree() == expected):
            raise InternalInconsistencyError("coefficient with wrong degree")
    return out
