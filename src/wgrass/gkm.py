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

``localize_product`` is the independent oracle every structure-constant
formula is tested against.  It multiplies two rows pointwise and peels
the expansion coefficients by increasing index, in integers, on the
b = 1 rows: in the coordinates z_s = y_s - (w_s / b_t) Y_t of its own
column t every weighted entry is the b = 1 entry, which has 1.4-13
times fewer terms than the weighted entry in y.  Two integer maps per
column join these coordinates to y (``_ColumnMaps``): each coefficient
goes to y once, by z_s -> b_t y_s - w_s Y_t, for the output and the
integrality check, and from y into every later column it is
subtracted from, by y_s -> a z_s + w_s Z_t.  On a form of degree e
they scale by b_t^e and a^e, so the residual is kept at the scale
a^(d_i + d_j).  The weighted rows in y serve the validation, the
``Poly`` matrix and ``restrictions_as_json``.
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
    _guard_bits,
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


def _row_is_class(graph: GKMGraph, labels: dict, guard: int, row, scales) -> bool:
    """GKM membership of the class with value row[t] / scales[t] at t.

    ``row`` holds packed integer maps, ``labels`` the packed edge
    labels and ``guard`` the ``_guard_bits`` of their packing.  Across
    the edge (l, j) the difference is scaled to the integer map
    (s_l row[j] - s_j row[l]) / gcd(s_l, s_j), which the label divides
    in Q[y] iff ``_divide_packed`` finds a quotient (Gauss's lemma).
    """
    for l, j in graph.edges:
        hi, lo = row[j], row[l]
        if not (hi or lo):
            continue
        g = gcd(scales[j], scales[l])
        diff = {key: c * (scales[l] // g) for key, c in hi.items()}
        _mul_packed(lo, {0: 1}, diff, -(scales[j] // g))  # {0: 1} packs 1
        if diff and _divide_packed(diff, labels[(l, j)], guard) is None:
            return False
    return True


def is_class(graph: GKMGraph, values) -> bool:
    """True iff every edge label divides the difference across the edge."""
    vals = list(values)
    if len(vals) != len(symbols.lattice(graph.k, graph.n).symbols):
        raise ParameterError("need one polynomial per fixed point")
    if any(v.nvars != graph.n for v in vals):
        raise ParameterError(f"values must be polynomials in {graph.n} variables")
    top = max(1, *(v.degree() for v in vals))
    pack, _ = _packer(graph.n, top)
    cleared = [_cleared(v.terms) for v in vals]
    scale = lcm(*(d for _, d in cleared))
    row = [
        {pack(e): c * (scale // d) for e, c in terms.items()}
        for terms, d in cleared
    ]
    return _row_is_class(
        graph, _packed_labels(graph, pack), _guard_bits(graph.n, top), row,
        [1] * len(row),
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
    pack, _ = _packer(n, top)
    guard = _guard_bits(n, top)
    unit = _unit_monomials(n, pack)
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
        g = _divide_packed(rem, _identify_packed(prod_e, s, sp, n, top), guard)
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
    b_t^{d_i} times entry [i][t]; a zero entry is an empty map.  The
    peel reads ``unit`` instead: entry [i][t] in the coordinates of
    column t, which ``maps`` (a ``_ColumnMaps``) relates to y; without
    maps they are y.  ``diagonals[l]`` is (primitive part, content) of
    unit[l][l], and ``guard`` the ``_guard_bits`` of ``pack``.  Built
    by ``_restrictions``.
    """


class _ColumnMaps(NamedTuple):
    """Integer maps between y and the coordinates of each column.

    With (W, a) the exponent data of b (as ``_column_maps`` shifts
    it), column t has coordinates z_s = y_s - (w_s / b_t) Y_t, in which
    every weighted entry at t is the b = 1 entry.  Summed over lam_t
    they give Z_t = (a / b_t) Y_t, so y_s = z_s + (w_s / a) Z_t.
    ``columns[t]`` is (b_t, to_y, from_y): the packed images
    z_s -> b_t y_s - w_s Y_t and y_s -> a z_s + w_s Z_t of the variables
    with w_s != 0.  The ``kept`` variables (w_s == 0) scale by b_t and
    by a.  On a form of degree e, to_y is b_t^e times the change from
    column t to y, and from_y is a^e times the change from y to
    column t.
    """

    a: int
    kept: list
    columns: list


def _unit_monomials(n: int, pack) -> list:
    """The packed variables y_1, ..., y_n."""
    return [pack(tuple(int(u == v) for u in range(n))) for v in range(n)]


def _restrictions(graph: GKMGraph, pack, unpack, rows, unit=None,
                  maps: _ColumnMaps | None = None) -> _Restrictions:
    """The Poly matrix of integer ``rows``: one division per entry.

    The peel reads ``unit`` through the column ``maps``; by default it
    reads ``rows`` themselves, in y.
    """
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
    out.guard = _guard_bits(graph.n, _row_top(lat))
    out.unit = rows if unit is None else unit
    out.maps = maps
    out.diagonals = []
    for l, row in enumerate(out.unit):
        content = gcd(*row[l].values())
        out.diagonals.append(
            ({key: c // content for key, c in row[l].items()}, content)
        )
    return out


def _row_top(lat) -> int:
    """The degree the integer rows are packed for: ``localize_product``
    multiplies two rows."""
    return 2 * max(lat.d)


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
    top = _row_top(lat)
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
# integer form with its column maps, holds about 0.6 MB and a (3, 6)
# one 1.8 MB (tracemalloc); the b = 1 rows the peel reads are shared
# with ``kt_restrictions``
WEIGHTED_CACHE_SIZE = 16


@lru_cache(maxsize=WEIGHTED_CACHE_SIZE)
def _weighted_cached(b: tuple, k: int, n: int) -> tuple:
    vec = plucker.presented_weight_vector(b, k, n)
    lat = symbols.lattice(k, n)
    base = kt_restrictions(k, n)
    if all(x == 1 for x in vec):
        return base
    graph = build_graph(vec, k, n)
    maps = _column_maps(graph, lat, base.pack)
    rows = _substituted_rows(graph, lat, base, maps)
    # at W = 0 every column's coordinates are y
    peel_maps = maps if len(maps.kept) < n else None
    out = _restrictions(graph, base.pack, base.unpack, rows, base.rows, peel_maps)
    _validate_basis(out)
    return out


def _column_maps(graph: GKMGraph, lat, pack) -> _ColumnMaps:
    """The ``_ColumnMaps`` of a weighted graph, from its (W, a).

    (W - v, a + k v) induces the same b, and shifting every y_s by the
    same multiple of Y_t leaves each b = 1 entry unchanged (it is a
    polynomial in the differences y_s - y_s').  So the maps use the
    most common w_s as v, keeping a > 0: the fewest variables move.
    """
    n = graph.n
    w, a = plucker.solve_wa(graph.b, graph.k, n)
    v = max(sorted({x for x in w if a + graph.k * x > 0} | {0}), key=w.count)
    w, a = [x - v for x in w], a + graph.k * v
    moved = [s for s in range(n) if w[s]]
    unit = _unit_monomials(n, pack)
    columns = []
    for t, bt in enumerate(graph.b):
        yt = {unit[u - 1]: 1 for u in lat.symbols[t]}  # also packs Z_t
        columns.append((
            bt,
            [(s, _mul_packed(yt, {0: -w[s]}, {unit[s]: bt})) for s in moved],
            [(s, _mul_packed(yt, {0: w[s]}, {unit[s]: a})) for s in moved],
        ))
    return _ColumnMaps(a, [s for s in range(n) if not w[s]], columns)


def _substituted_rows(graph: GKMGraph, lat, base, maps: _ColumnMaps) -> list:
    """Integer rows of a weighted vector from the b = 1 matrix ``base``.

    Column t substitutes y_s -> b_t y_s - w_s Y_t (``maps``).  Every
    entry of row i is homogeneous of degree d_i, so this is b_t^{d_i}
    times the rational substitution y_s -> y_s - (w_s / b_t) Y_t.  Only
    the variables with w_s != 0 are expanded; the factor b_t of every
    other variable is folded into the coefficients (``_substitute_packed``).
    """
    n, pack, unpack = graph.n, base.pack, base.unpack
    rows = [[{} for _ in graph.b] for _ in graph.b]
    for t, (bt, to_y, _) in enumerate(maps.columns):
        for i, row in enumerate(base.rows):
            if row[t]:
                rows[i][t] = _substitute_packed(
                    {unpack(key): c for key, c in row[t].items()},
                    to_y, maps.kept, n, pack, bt, lat.d[i],
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
        if not _row_is_class(graph, labels, matrix.guard, row, scales):
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

    Runs on the b = 1 rows U, each column in its own coordinates z
    (``_ColumnMaps``), where the weighted entry at t is U[.][t](z).
    With top = d_i + d_j, residual[u] starts as a^top U[i][u] U[j][u]
    and the smallest-index nonzero component l with e = top - d_l >= 0
    is peeled: q = residual[l] / prim(U[l][l]) is a^top content b_l^e
    times the coefficient c_l once mapped to y by to_y, and every later
    column u loses a^(top - e) c_l(a z + w Z_u) U[l][u], c_l taken into
    column u by from_y.  Without maps (b = 1, W = 0) both maps are the
    identity and a is 1.  A failed division ("not exact") stays
    distinct from a non-integral coefficient.  Raises on either, on a
    quotient of the wrong degree (the maps read forms of degree e), and
    on a nonzero residual left over.
    """
    matrix = weighted_restrictions(b, k, n)
    lat = matrix.lat
    lat.check_index(i, j)
    unit, maps, pack, unpack = matrix.unit, matrix.maps, matrix.pack, matrix.unpack
    a = maps.a if maps else 1
    top = lat.d[i] + lat.d[j]
    residual = [
        _mul_packed(ri, rj, None, a**top) if ri and rj else {}
        for ri, rj in zip(unit[i], unit[j])
    ]
    out = {}
    for l, v in enumerate(residual):
        e = top - lat.d[l]
        if not v or e < 0:
            continue
        prim, content = matrix.diagonals[l]
        quot = _divide_packed(v, prim, matrix.guard)
        if quot is None:
            raise InternalInconsistencyError("localization peel is not exact")
        lowest, highest = _degree_range(pack, n, e)
        if not all(lowest <= key <= highest for key in quot):
            raise InternalInconsistencyError("coefficient with wrong degree")
        den = content * a**top
        if maps:
            bl, to_y, _ = maps.columns[l]
            quot = _substitute_packed(
                {unpack(key): c for key, c in quot.items()},
                to_y, maps.kept, n, pack, bl, e,
            )
            den *= bl**e
        coeff = {}
        for key, c in quot.items():
            q, r = divmod(c, den)
            if r:
                raise InternalInconsistencyError(
                    "non-integral localized coefficient for integral divisive b"
                )
            coeff[key] = q
        terms = {unpack(key): c for key, c in coeff.items()}
        out[l] = _build(n, terms)
        residual[l] = {}
        for u in range(l + 1, lat.m + 1):
            if unit[l][u]:
                image = coeff if not maps else _substitute_packed(
                    terms, maps.columns[u][2], maps.kept, n, pack, a, e
                )
                _mul_packed(image, unit[l][u], residual[u], -a ** (top - e))
    if any(residual):
        raise InternalInconsistencyError("nonzero residual after peeling")
    return out
