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
dim(lam_i).

At b = (1, ..., 1) the values are produced by triangular congruence
interpolation up the lattice, held in integer form: the value of
class i at lam_t is stored times b_t^{d_i}, as a map from packed
monomials to ints (one ``_packer`` per (n, 2 max d)).  Identifying
y_s with y_s' moves the exponent field of s onto that of s', and each
correction is an exact division by the primitive packed product of the
labels so far.  ``_validate_basis`` checks the pinning conditions, the
closed row 1 (b_j Y_0 - b_0 Y_j at this scale) and GKM membership.

A weighted basis is the b = 1 basis U plus one pair of integer maps
per column (``_ColumnMaps``): with (W, a) the integer exponent data of
b, in the coordinates z^(t)_s = y_s - (w_s / b_t) Y_t of column t every
weighted entry is the b = 1 entry.  ``_check_column_maps`` proves three
premises at build time: for every edge (l, j), lam_l being lam_j with s
replaced by s' < s and L its label,

    z^(j)_s' - z^(j)_s = L,     z^(j)_u = z^(l)_u  mod L for every u,

and in every column the map back from y inverts the map to y.  They
suffice.  U[i][j] - U[i][l] lies in (y_s' - y_s), so
U[i][j](z^(j)) - U[i][l](z^(j)) lies in (L), and so does
U[i][l](z^(j)) - U[i][l](z^(l)): every weighted row is a GKM class.
The b = 1 diagonal, the product of the y_s' - y_s into lam_i, becomes
the product of the weighted labels; support and degree survive a
linear substitution; and row 1, Y_0 - Y_j, becomes Y_0 - (b_0 / b_j) Y_j
since ``solve_wa`` checks sum_{u in lam_t} w_u = b_t - a.  So these
rows meet the pinning conditions.  ``weighted_restrictions`` reads the
``Poly`` matrix in y off them on request and validates it.

``localize_product`` is the independent oracle every structure-constant
formula is tested against.  It multiplies two rows pointwise and peels
the expansion coefficients by increasing index, in integers, on the
b = 1 rows, each column in its own coordinates.  Each coefficient goes
to y once, by z_s -> b_t y_s - w_s Y_t (``_to_y``), for the output and
the integrality check, and from y into every later column it is
subtracted from, by y_s -> a z_s + w_s Z_t.  On a form of degree e
they scale by b_t^e and a^e, so the residual is kept at the scale
a^(d_i + d_j).
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
    b_t^{d_i} times entry [i][t]; a zero entry is an empty map.
    ``diagonals[l]`` is (primitive part, content) of rows[l][l], and
    ``guard`` the ``_guard_bits`` of ``pack``.  Built by ``_restrictions``.
    """


class _ColumnMaps(NamedTuple):
    """A weighted graph and the integer maps between y and its columns.

    ``w`` and ``a`` are (W, a) as ``_column_maps`` shifts them.  Column
    t has coordinates z_s = y_s - (w_s / b_t) Y_t; summed over lam_t
    they give Z_t = (a / b_t) Y_t, so y_s = z_s + (w_s / a) Z_t.
    ``columns[t]`` is (b_t, to_y, from_y): the packed images
    z_s -> b_t y_s - w_s Y_t and y_s -> a z_s + w_s Z_t of the variables
    with w_s != 0; the ``kept`` ones (w_s == 0) scale by b_t and by a.
    On a form of degree e they are b_t^e and a^e times the changes of
    coordinates.
    """

    graph: GKMGraph
    pack: object
    unpack: object
    a: int
    w: list
    kept: list
    columns: list


def _unit_monomials(n: int, pack) -> list:
    """The packed variables y_1, ..., y_n."""
    return [pack(tuple(int(u == v) for u in range(n))) for v in range(n)]


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
    out.guard = _guard_bits(graph.n, _row_top(lat))
    out.diagonals = []
    for l, row in enumerate(rows):
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

    The b = 1 rows taken to y by the column maps of b (``_to_y``),
    validated; built on every call, since the oracle never reads it.
    """
    maps = _weighted_cached(plucker.check_weight_vector_shape(b, k, n), k, n)
    base = kt_restrictions(k, n)
    if all(x == 1 for x in maps.graph.b):
        return base
    rows = [
        [_to_y(maps, t, entry, base.lat.d[i]) if entry else {}
         for t, entry in enumerate(row)]
        for i, row in enumerate(base.rows)
    ]
    out = _restrictions(maps.graph, base.pack, base.unpack, rows)
    _validate_basis(out)
    return out


# weighted graphs and column maps kept per process, so that a long-lived
# process checking many vectors stays bounded; the b = 1 rows they map
# are shared with ``kt_restrictions``
WEIGHTED_CACHE_SIZE = 16


@lru_cache(maxsize=WEIGHTED_CACHE_SIZE)
def _weighted_cached(b: tuple, k: int, n: int) -> _ColumnMaps:
    """The checked ``_ColumnMaps`` of b.  Callers check only the shape
    first, so that no boolean or float entry can hit the entry of an
    equal integer vector; the pair-sum test runs here."""
    maps = _column_maps(build_graph(b, k, n))
    _check_column_maps(maps)
    return maps


def _column_maps(graph: GKMGraph) -> _ColumnMaps:
    """The ``_ColumnMaps`` of a weighted graph, from its (W, a).

    (W - v, a + k v) induces the same b, and shifting every y_s by the
    same multiple of Y_t leaves each b = 1 entry unchanged (it is a
    polynomial in the differences y_s - y_s').  So the maps use the
    most common w_s as v, keeping a > 0: the fewest variables move.
    """
    n = graph.n
    lat = symbols.lattice(graph.k, n)
    w, a = plucker.solve_wa(graph.b, graph.k, n)
    v = max(sorted({x for x in w if a + graph.k * x > 0} | {0}), key=w.count)
    w, a = [x - v for x in w], a + graph.k * v
    moved = [s for s in range(n) if w[s]]
    pack, unpack = _packer(n, _row_top(lat))
    unit = _unit_monomials(n, pack)
    columns = []
    for t, bt in enumerate(graph.b):
        yt = {unit[u - 1]: 1 for u in lat.symbols[t]}  # also packs Z_t
        columns.append((
            bt,
            [(s, _mul_packed(yt, {0: -w[s]}, {unit[s]: bt})) for s in moved],
            [(s, _mul_packed(yt, {0: w[s]}, {unit[s]: a})) for s in moved],
        ))
    kept = [s for s in range(n) if not w[s]]
    return _ColumnMaps(graph, pack, unpack, a, w, kept, columns)


def _to_y(maps: _ColumnMaps, t: int, entry: dict, e: int) -> dict:
    """b_t^e times the packed degree-e form ``entry`` of the coordinates
    of column t, in y."""
    bt, to_y, _ = maps.columns[t]
    terms = {maps.unpack(key): c for key, c in entry.items()}
    return _substitute_packed(terms, to_y, maps.kept, maps.graph.n, maps.pack, bt, e)


def _check_column_maps(maps: _ColumnMaps) -> None:
    """The premises of the module docstring, on the integer images.

    For every edge (l, j) (s, s' as there) and variable u:
    to_y_j(z_s' - z_s) = b_j L and b_l to_y_j(z_u) - b_j to_y_l(z_u) =
    w_u b_j L.  For every column t and moved variable s:
    to_y_t(from_y_t(y_s)) = a b_t y_s.
    """
    graph, pack = maps.graph, maps.pack
    n, vec = graph.n, graph.b
    lat = symbols.lattice(graph.k, n)
    labels = _packed_labels(graph, pack)
    unit = _unit_monomials(n, pack)
    images = [[_to_y(maps, t, {y: 1}, 1) for y in unit] for t in range(len(vec))]
    for l, j in graph.edges:
        (sp,) = set(lat.symbols[l]) - set(lat.symbols[j])
        (s,) = set(lat.symbols[j]) - set(lat.symbols[l])
        diff = _mul_packed(images[j][s - 1], {0: -1}, dict(images[j][sp - 1]))
        if diff != _mul_packed(labels[(l, j)], {0: vec[j]}):
            raise InternalInconsistencyError("column map does not give an edge label")
        for u in range(n):
            diff = _mul_packed(images[j][u], {0: vec[l]})
            _mul_packed(images[l][u], {0: -vec[j]}, diff)
            if diff != _mul_packed(labels[(l, j)], {0: maps.w[u] * vec[j]}):
                raise InternalInconsistencyError("column maps disagree across an edge")
    for t, (bt, _, from_y) in enumerate(maps.columns):
        for s, image in from_y:
            if _to_y(maps, t, image, 1) != {unit[s]: maps.a * bt}:
                raise InternalInconsistencyError("column maps are not inverse")


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


def localize_product(b, k: int, n: int, i: int, j: int) -> dict:
    """Expansion of basis_i * basis_j in the basis, by localization.

    Runs on the b = 1 rows U of ``kt_restrictions``, column t in its
    own coordinates z, where the weighted entry is U[.][t](z).  With
    top = d_i + d_j, residual[u] starts as a^top U[i][u] U[j][u] and the
    smallest-index nonzero component l with e = top - d_l >= 0 is
    peeled: q = residual[l] / prim(U[l][l]) is a^top content b_l^e times
    the coefficient c_l once taken to y (``_to_y``), and every later
    column u loses a^(top - e) c_l(a z + w Z_u) U[l][u].  At W = 0 both
    maps are the identity and a is 1.  Raises on a failed division
    ("not exact"), a non-integral coefficient, a quotient of the wrong
    degree (the maps read forms of degree e) and a nonzero residual.
    """
    maps = _weighted_cached(plucker.check_weight_vector_shape(b, k, n), k, n)
    basis = kt_restrictions(k, n)
    lat = basis.lat
    lat.check_index(i, j)
    unit, pack, unpack = basis.rows, basis.pack, basis.unpack
    shifted = len(maps.kept) < n  # at W = 0 every column's coordinates are y
    a = maps.a if shifted else 1
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
        prim, content = basis.diagonals[l]
        quot = _divide_packed(v, prim, basis.guard)
        if quot is None:
            raise InternalInconsistencyError("localization peel is not exact")
        lowest, highest = _degree_range(pack, n, e)
        if not all(lowest <= key <= highest for key in quot):
            raise InternalInconsistencyError("coefficient with wrong degree")
        den = content * a**top
        if shifted:
            quot = _to_y(maps, l, quot, e)
            den *= maps.columns[l][0] ** e
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
                image = coeff if not shifted else _substitute_packed(
                    terms, maps.columns[u][2], maps.kept, n, pack, a, e
                )
                _mul_packed(image, unit[l][u], residual[u], -a ** (top - e))
    if any(residual):
        raise InternalInconsistencyError("nonzero residual after peeling")
    return out
