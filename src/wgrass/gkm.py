"""
Fixed-point (GKM) model of the equivariant cohomology of Gr_b(k, n).

Classes are tuples of polynomials in y_1..y_n, one per Schubert symbol;
membership requires, for every pair lam_i in R(lam_j), that the edge
label

    Y_{lam_i} - (b_i / b_j) * Y_{lam_j},      Y_lam = sum_{s in lam} y_s,

divides the difference of the two components.  The divisive
presentation (b_i | b_{i-1}) makes every label an integer polynomial,
built once, in ``build_graph``.

The distinguished basis class of lam_i vanishes off the upper set of
lam_i, takes the product of the edge labels into lam_i there, and is
homogeneous of degree dim(lam_i).  At b = 1 its values come from the
restriction form of the equivariant Chevalley formula (Knutson & Tao
2003; every m below is 1 at b = 1): for lam_i < lam_t,

    (Y_i - Y_t) xi^i|_t = sum over up-covers i -> i+ of xi^{i+}|_t,

so the rows are built by decreasing i, each entry one exact division of
rows already built, on integer maps from packed monomials (one
``_packer`` per (n, max d)), the value at lam_t stored times
b_t^{d_i}.  ``_validate_basis`` checks the pinning conditions, the
closed row 1 (b_j Y_0 - b_0 Y_j at this scale) and GKM membership.
Support, diagonal, degree and membership fix each basis class uniquely,
so a wrong recursion step cannot pass it.

A weighted basis is the b = 1 basis U plus one integer map per column
(``_ColumnMaps``): with (W, a) the integer exponent data of b, in the
coordinates z^(t)_s = y_s - (w_s / b_t) Y_t of column t (coordinates
since a > 0: they sum to (a / b_t) Y_t over lam_t) every weighted
entry is the b = 1 entry.  ``_check_column_maps`` proves, for every
edge (l, j), lam_l being lam_j with s replaced by s' < s, L its label,

    z^(j)_s' - z^(j)_s = L,     z^(j)_u = z^(l)_u  mod L for every u.

That suffices.  U[i][j] - U[i][l] lies in (y_s' - y_s), so
U[i][j](z^(j)) - U[i][l](z^(j)) lies in (L), and so does
U[i][l](z^(j)) - U[i][l](z^(l)): every weighted row is a GKM class.
The b = 1 diagonal becomes the product of the weighted labels; support
and degree survive a linear substitution; and row 1, Y_0 - Y_j, becomes
Y_0 - (b_0 / b_j) Y_j since the ``solve_wa`` data of a valid b satisfy
sum_{u in lam_t} w_u = b_t - a.  ``weighted_restrictions`` reads the ``Poly`` matrix in y off
these rows on request and validates it.

``localize_product`` is the independent oracle every structure-constant
formula is tested against.  With xi^p the basis classes, xi^1 the
degree-one class and xi^p xi^q = sum_r c^r_{pq} xi^r, the coefficients
of xi^r in xi^1 (xi^p xi^q) = (xi^1 xi^p) xi^q give the equivariant
Chevalley recursion (Knutson & Tao 2003): for p < r,

    (xi^1|_r - xi^1|_p) c^r_{pq}
        = sum_{p -> p+} m(p, p+) c^r_{p+ q} - sum_{r- -> r} m(r-, r) c^{r-}_{pq}

over the up-covers of p and the down-covers of r.  The base case is
c^p_{pq} = xi^q|_p, and m(p, p+) = (xi^1|_{p+} - xi^1|_p) xi^p|_{p+} /
xi^{p+}|_{p+} is the Chevalley formula at lam_{p+}, read off the rows
by one division per cover; xi^1 is row 1, Y_0 - (b_0 / b_t) Y_t at t.
So the oracle shares no code with the puzzles or the Pieri rule.  Premises
are checked where used: xi^1|_r != xi^1|_p, and every m is a nonzero
integer constant.  c^r_{pq} = 0 unless lam_p, lam_q <= lam_r and
d_r <= d_p + d_q; those are not computed.  Each entry read goes to y
once (``_to_y`` and an exact division by b_t^{d_q}; at W = 0 the b = 1
rows are read as they are), and each coefficient is one exact division
by xi^1|_r - xi^1|_p.  The oracle raises on a failed division ("not
exact"), a non-integral coefficient, a wrong degree, and on c^r_{ij} !=
c^r_{ji} in a cell it returns, as the recursion does not build the
symmetry in.  A bounded memo per vector (``_products``) keeps them.
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


class _Restrictions(tuple):
    """A restriction matrix of Polys, rows by basis index, and its integer form.

    ``rows[i][t]`` maps packed monomials (``pack``) to ints and equals
    b_t^{d_i} times entry [i][t]; a zero entry is an empty map.
    ``guard`` is the ``_guard_bits`` of ``pack``.  Built by
    ``_restrictions``.  Hashed by identity, so that the oracle's memo,
    keyed by the basis it reads, is never shared with other rows.
    """

    __hash__ = object.__hash__


class _ColumnMaps(NamedTuple):
    """A weighted graph and the integer maps from its columns to y.

    ``w`` is W as ``_column_maps`` shifts it.  Column t has coordinates
    z_s = y_s - (w_s / b_t) Y_t.  ``columns[t]`` is
    (b_t, to_y): the packed images z_s -> b_t y_s - w_s Y_t of the
    variables with w_s != 0; the ``kept`` ones (w_s == 0) scale by b_t.
    On a form of degree e that is b_t^e times the change of
    coordinates.
    """

    graph: GKMGraph
    pack: object
    unpack: object
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
    return out


def _row_top(lat) -> int:
    """The degree the integer rows are packed for: no form here goes
    above max d (an entry, a label product, a c^r_{pq}, a cover's num)."""
    return max(lat.d)


@lru_cache(maxsize=None)
def kt_restrictions(k: int, n: int) -> tuple:
    """Basis restriction matrix at b = (1, ..., 1), rows by basis index.

    Entry [i][t] is the value of basis class i at fixed point t.  The
    rows are built by decreasing i on packed integer maps, by the
    restriction form of the equivariant Chevalley formula at b = 1
    (every m is 1 there): for lam_i < lam_t,

        (Y_i - Y_t) xi^i|_t = sum over up-covers i -> i+ of xi^{i+}|_t,

    so each entry, taken by increasing d_t, is one exact division of
    rows already built.  Off the upper set the value is zero, and the
    diagonal is the pinned product.  The rows are then validated and
    read back as the result.
    """
    lat = symbols.lattice(k, n)
    m1 = lat.m + 1
    graph = build_graph((1,) * m1, k, n)
    top = _row_top(lat)
    pack, unpack = _packer(n, top)
    guard = _guard_bits(n, top)
    labels = _packed_labels(graph, pack)
    forms = [{pack(e): c for e, c in linear_form(n, sym).terms.items()}
             for sym in lat.symbols]
    rows: list = [None] * m1
    for i in reversed(range(m1)):
        row = rows[i] = [{} for _ in range(m1)]
        row[i] = _diagonal(graph, labels, i)
        for t in sorted(lat.upper_set(i)[1:], key=lat.d.__getitem__):
            num: dict = {}
            for up in lat.arrows[i]:
                _mul_packed(rows[up][t], {0: 1}, num)  # {0: 1} packs 1
            den = _mul_packed(forms[t], {0: -1}, dict(forms[i]))
            row[t] = _divide_packed(num, den, guard)
            if not row[t]:  # None, or zero inside the upper set
                raise InternalInconsistencyError("Chevalley basis step fails")
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
    w = [x - v for x in w]
    moved = [s for s in range(n) if w[s]]
    pack, unpack = _packer(n, _row_top(lat))
    unit = _unit_monomials(n, pack)
    columns = []
    for t, bt in enumerate(graph.b):
        yt = {unit[u - 1]: 1 for u in lat.symbols[t]}
        columns.append((
            bt, [(s, _mul_packed(yt, {0: -w[s]}, {unit[s]: bt})) for s in moved]
        ))
    kept = [s for s in range(n) if not w[s]]
    return _ColumnMaps(graph, pack, unpack, w, kept, columns)


def _to_y(maps: _ColumnMaps, t: int, entry: dict, e: int) -> dict:
    """b_t^e times the packed degree-e form ``entry`` of the coordinates
    of column t, in y."""
    bt, to_y = maps.columns[t]
    terms = {maps.unpack(key): c for key, c in entry.items()}
    return _substitute_packed(terms, to_y, maps.kept, maps.graph.n, maps.pack, bt, e)


def _check_column_maps(maps: _ColumnMaps) -> None:
    """The premises of the module docstring, on the integer images.

    For every edge (l, j) (s, s' as there) and variable u:
    to_y_j(z_s' - z_s) = b_j L and b_l to_y_j(z_u) - b_j to_y_l(z_u) =
    w_u b_j L.
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


def _divided(form: dict, d: int) -> dict:
    """The packed integer ``form`` divided by d, which must be exact."""
    out = {}
    for key, c in form.items():
        out[key], rest = divmod(c, d)
        if rest:
            raise InternalInconsistencyError("non-integral localized coefficient")
    return out


class _Products:
    """The c^r_{pq} of one weighted basis, packed in y, filled lazily in
    ``memo``; ``covers`` keeps the m's."""

    def __init__(self, maps: _ColumnMaps, basis: _Restrictions):
        self.maps, self.basis, self.lat = maps, basis, basis.lat
        self.covers, self.memo = {}, {}

    def form(self, p: int, r: int) -> tuple:
        """(primitive part, content) of xi^1|_r - xi^1|_p, never zero;
        xi^1|_t = c^t_{t1} is row 1, which vanishes at t = 0."""
        xi1 = [self.coefficient(t, 1, t) for t in (p, r)]
        diff = _mul_packed(xi1[0], {0: -1}, dict(xi1[1]))
        if not diff:
            raise InternalInconsistencyError("xi^1 takes one value at p < r")
        content = gcd(*diff.values())
        return {key: c // content for key, c in diff.items()}, content

    def cover(self, p: int, up: int) -> int:
        """m(p, up), by one division: a nonzero integer constant."""
        if (p, up) not in self.covers:
            prim, content = self.form(p, up)
            num = _mul_packed(prim, self.coefficient(up, p, up), None, content)
            diag = self.coefficient(up, up, up)
            den = gcd(*diag.values())  # 0 if the diagonal vanishes
            quot = den and _divide_packed(
                num, {key: c // den for key, c in diag.items()}, self.basis.guard
            )
            if not quot or quot.keys() != {0}:
                raise InternalInconsistencyError("non-constant Chevalley coefficient")
            self.covers[(p, up)] = _divided(quot, den)[0]
        return self.covers[(p, up)]

    def coefficient(self, p: int, q: int, r: int) -> dict:
        """c^r_{pq}, for lam_p, lam_q <= lam_r and d_r <= d_p + d_q."""
        got = self.memo.get((p, q, r))
        if got is None:
            lat, maps, rhs = self.lat, self.maps, {}
            if p == r:  # xi^q|_p: the b = 1 entry in column p's coordinates
                e, got = lat.d[q], self.basis.rows[q][p]
                lowest, highest = _degree_range(self.basis.pack, maps.graph.n, e)
                if not all(lowest <= key <= highest for key in got):
                    raise InternalInconsistencyError("coefficient with wrong degree")
                if got and len(maps.kept) < maps.graph.n:  # at W = 0 columns are y
                    got = _divided(_to_y(maps, p, got, e), maps.columns[p][0] ** e)
            else:
                for up in lat.arrows[p]:
                    if lat.leq_idx(up, r):
                        m = self.cover(p, up)
                        _mul_packed({0: m}, self.coefficient(up, q, r), rhs)
                for down in lat.down_covers[r]:
                    if lat.leq_idx(p, down) and lat.leq_idx(q, down):
                        m = self.cover(down, r)
                        _mul_packed({0: -m}, self.coefficient(p, q, down), rhs)
                prim, content = self.form(p, r)
                quot = _divide_packed(rhs, prim, self.basis.guard)
                if quot is None:
                    raise InternalInconsistencyError("Chevalley recursion is not exact")
                got = _divided(quot, content)
            self.memo[(p, q, r)] = got
        return got


@lru_cache(maxsize=WEIGHTED_CACHE_SIZE)
def _products(b: tuple, k: int, n: int, basis: _Restrictions) -> _Products:
    """The memo of b, keyed by the b = 1 rows it reads as well."""
    return _Products(_weighted_cached(b, k, n), basis)


def localize_product(b, k: int, n: int, i: int, j: int) -> dict:
    """Expansion of basis_i * basis_j in the basis, by localization: the
    nonzero c^r_{ij} of the module docstring, each found as c^r_{ij} and
    as c^r_{ji}, on the b = 1 rows read through the column maps of b."""
    vec = plucker.check_weight_vector_shape(b, k, n)
    lat = symbols.lattice(k, n)
    lat.check_index(i, j)
    products = _products(vec, k, n, kt_restrictions(k, n))
    unpack = products.basis.unpack
    out = {}
    for r in lat.upper_set(i, j):
        if lat.d[r] <= lat.d[i] + lat.d[j]:
            coeff = products.coefficient(i, j, r)
            if coeff != products.coefficient(j, i, r):
                raise InternalInconsistencyError("asymmetric structure constants")
            if coeff:
                out[r] = _build(n, {unpack(e): c for e, c in coeff.items()})
    return out
