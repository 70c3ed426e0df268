"""
Triangle puzzles computing equivariant Schubert structure constants.

Geometry.  A puzzle of size n tiles an upward equilateral triangle cut
into n^2 unit triangles.  Rows run 1..n top to bottom; row r holds the
up-triangles U(r, 1..r) and down-triangles D(r, 1..r-1).  Edges come in
three directions and are indexed

    A(r, j): "/" left edge of U(r, j)  (= right edge of D(r, j-1)),
    B(r, j): "\\" right edge of U(r, j) (= left edge of D(r, j)),
    H(r, j): horizontal bottom edge of U(r, j) (= top of D(r+1, j)).

Boundary words (0/1 strings of length n) are read west to east:
the northwest side bottom-up is A(n,1)..A(1,1), the northeast side
top-down is B(1,1)..B(n,n), the south side left-right is H(n,1)..H(n,n).
A boundary triple is written Delta_{nw, ne}^{south}.

Pieces.  Every unit triangle with all edges 0 or all edges 1 stands
alone.  Rhombi pair an up- and a down-triangle; one parallel edge pair
carries 1, the other 0:

    vertical  (U(r,j) over D(r+1,j)), "/"-pair 1: plain piece,
    leaning right (U(r,j) + D(r,j)), horizontal pair 1: plain piece,
    leaning left  (D(r,j) + U(r,j+1)), "\\"-pair 1: plain piece,
    vertical with "\\"-pair 1: the single-orientation equivariant piece.

The equivariant piece at U(r, j) projects along the two lattice
directions to south-edge columns c = j (southwest) and a = j + n - r
(southeast).  On the reversed words every formula downstream reads, it
carries the conjugated factor y_u - y_v with (u, v) = (n+1-a, n+1-c);
on the words as they are it would carry y_a - y_c.

Search.  The cells are filled in row-major order: U(r, 1), D(r, 1), U(r,
2), ..., row by row.  The piece catalogue of size n is built once, on
the first search or frontier pass of that size, and cached per n: every
edge gets an integer id, every cell position the tuple of pieces
anchored there (edge-id/label pairs, covered cell positions, (kind, r,
j) anchor), and the boundary words map to fixed edge ids.  The
depth-first search keeps the edge labels in a flat list (-1 =
unlabelled) and undoes each placement on backtrack.  The south word
touches only the edges H(n, .) of the last row, so one search per (nw,
ne) pair serves every south word: only the nw and ne edges are labelled
up front, each leaf reads its south word off those edges, and the
search, cached per (nw, ne), buckets the tilings by south word.  A fixed
south word would only prune the same tree, so each bucket keeps the fill
order.  The search serves the ``puzzles`` command and the tests; the
structure constants never build a tiling.

Transfer matrix.  ``frontier_sums`` walks the same cells in the same
order with the nw and ne words fixed, and keeps, in place of one
partial tiling, every distinct state with the sum of the weights of the
partial tilings that reach it.  A state is one int: 2 bits per edge
(unset, 0 or 1) and one bit per cell, set when a rhombus placed earlier
covers it.  An edge is cleared after the last cell whose pieces read
it, except the south edges, so partial tilings that differ only behind
the frontier reach the same state, and equal states add their weights.
A weight is a packed integer term map (``polynomial._packer``); an
equivariant piece multiplies it by a factor the caller gives per
conjugated pair (u, v), packed for degrees up to
``max_equivariant_pieces(n)``.  States whose weight cancels to zero
are kept, so the final states, which hold only the south edges, are
exactly the south words some tiling reaches.  ``symbol_sums`` maps
them to symbols and checks dominance and the piece-count balance on
the packed keys; the sums stay packed for the contraction in
``structure``.

Orientation.  ``puzzles_for`` has one orientation: the boundary of the
symbol triple (i, j; l) is the reversed words of the three symbols.
The raw orientation, on the words as they are, needs no second path:
reversing a word is sigma_r on its symbol, so the raw puzzles of
(i, j; l) are ``puzzles_for`` at (sigma_r i, sigma_r j; sigma_r l), the
same cached objects.  ``conjugated_product`` (one frontier pass with
the factors y_u - y_v) and ``conjugated_constants`` sum conjugated
weights into tables.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from . import symbols
from .errors import CapacityError, InternalInconsistencyError, ParameterError
from .polynomial import _build, _degree_range, _packer

TABLE_LIMIT = 15  # largest C(n, k) for which full tables are enumerated


class Puzzle(NamedTuple):
    """One tiling; ``pieces`` are (kind, r, j) anchors in scan order."""

    n: int
    boundary: tuple  # (nw, ne, south) words
    pieces: tuple
    equivariant: tuple  # south-edge column pairs (a, c), a > c

    def conjugated_pairs(self) -> list:
        """(u, v) with u < v for the reversed-alphabet factors y_u - y_v."""
        n = self.n
        return [(n + 1 - a, n + 1 - c) for a, c in self.equivariant]


def _check_word(w: str, n: int) -> None:
    if len(w) != n or set(w) - {"0", "1"}:
        raise ParameterError(f"boundary word must be 0/1 of length {n}: {w!r}")


# Piece geometry.  Each entry lists (kind, edge assignments, covered
# cells); edges are (kind, r, j) -> label and cells are ("U"|"D", r, j).
# These describe the pieces; the search reads them through ``_catalogue``.


def _up_pieces(r: int, j: int, n: int) -> list:
    pieces = [
        ("tri0", {("A", r, j): 0, ("B", r, j): 0, ("H", r, j): 0},
         (("U", r, j),)),
        ("tri1", {("A", r, j): 1, ("B", r, j): 1, ("H", r, j): 1},
         (("U", r, j),)),
    ]
    if r < n:
        pieces.append(
            ("rhV", {("A", r, j): 1, ("B", r, j): 0,
                     ("B", r + 1, j): 0, ("A", r + 1, j + 1): 1},
             (("U", r, j), ("D", r + 1, j))))
        pieces.append(
            ("rhE", {("A", r, j): 0, ("B", r, j): 1,
                     ("B", r + 1, j): 1, ("A", r + 1, j + 1): 0},
             (("U", r, j), ("D", r + 1, j))))
    if j <= r - 1:
        pieces.append(
            ("rhR", {("A", r, j): 0, ("A", r, j + 1): 0,
                     ("H", r, j): 1, ("H", r - 1, j): 1},
             (("U", r, j), ("D", r, j))))
    return pieces


def _down_pieces(r: int, j: int) -> list:
    pieces = [
        ("tri0", {("B", r, j): 0, ("A", r, j + 1): 0, ("H", r - 1, j): 0},
         (("D", r, j),)),
        ("tri1", {("B", r, j): 1, ("A", r, j + 1): 1, ("H", r - 1, j): 1},
         (("D", r, j),)),
        ("rhL", {("B", r, j): 1, ("B", r, j + 1): 1,
                 ("H", r - 1, j): 0, ("H", r, j + 1): 0},
         (("D", r, j), ("U", r, j + 1))),
    ]
    return pieces


class _Catalogue(NamedTuple):
    """Every piece of size n, with edges and cells as integer ids.

    ``cells[pos]`` holds the pieces anchored at the pos-th cell of the
    row-major fill order, as (((edge, label), ...), covered positions,
    (kind, r, j) anchor) in the order the search tries them.
    ``boundary`` holds the edge ids of the nw, ne and south words.
    ``steps[pos]`` is the same cell for ``frontier_sums``, on its state
    bits: (covered bit, keep mask, ((forbidden, added, pair), ...)),
    pair the conjugated (u, v) of an equivariant piece and None else.
    """

    edge_count: int
    boundary: tuple
    cells: tuple
    steps: tuple


@lru_cache(maxsize=None)
def _catalogue(n: int) -> _Catalogue:
    cells = []
    for r in range(1, n + 1):
        for j in range(1, r + 1):
            cells.append(("U", r, j))
            if j < r:
                cells.append(("D", r, j))
    order = {cell: pos for pos, cell in enumerate(cells)}
    edge_ids: dict = {}

    def eid(edge) -> int:
        return edge_ids.setdefault(edge, len(edge_ids))

    boundary = (
        tuple(eid(("A", n + 1 - p, 1)) for p in range(1, n + 1)),
        tuple(eid(("B", p, p)) for p in range(1, n + 1)),
        tuple(eid(("H", n, p)) for p in range(1, n + 1)),
    )
    table = []
    for side, r, j in cells:
        shapes = _up_pieces(r, j, n) if side == "U" else _down_pieces(r, j)
        table.append(tuple(
            (tuple((eid(edge), label) for edge, label in assign.items()),
             tuple(order[c] for c in covers),
             (kind, r, j))
            for kind, assign, covers in shapes
        ))
    # frontier_sums: edge e is bits 2e, 2e+1 (00 unset, 01 label 0, 10
    # label 1) and cell pos is bit 2 * edge_count + pos, set when covered
    last = {}  # edge -> last position whose pieces read it
    for pos, pieces in enumerate(table):
        for assign, _, _ in pieces:
            for edge, _ in assign:
                last[edge] = pos
    for edge in boundary[2]:
        last[edge] = len(table)  # the south word is read off the end
    cover = [1 << 2 * len(edge_ids) + pos for pos in range(len(table))]
    steps = []
    for pos, pieces in enumerate(table):
        dead = sum(3 << 2 * e for e, at in last.items() if at == pos)
        moves = []
        for assign, spots, (kind, r, j) in pieces:
            added = sum(label + 1 << 2 * e for e, label in assign)
            # a set field conflicts exactly when it holds the other label
            forbidden = sum(2 - label << 2 * e for e, label in assign)
            if len(spots) == 2:
                added |= cover[spots[1]]
                forbidden |= cover[spots[1]]
            # (n + 1 - a, n + 1 - c) with a = j + n - r and c = j
            pair = (r + 1 - j, n + 1 - j) if kind == "rhE" else None
            moves.append((forbidden, added, pair))
        steps.append((cover[pos], ~(cover[pos] | dead), tuple(moves)))
    return _Catalogue(len(edge_ids), boundary, tuple(table), tuple(steps))


def enumerate_puzzles(nw: str, ne: str, south: str) -> list:
    """All tilings with the given boundary, in row-major fill order."""
    n = len(nw)
    for w in (nw, ne, south):
        _check_word(w, n)
    return list(_enumerate_cached(nw, ne).get(south, ()))


@lru_cache(maxsize=None)
def _enumerate_cached(nw: str, ne: str) -> MappingProxyType:
    """Read-only map south word -> tilings with the nw and ne words."""
    n = len(nw)
    catalogue = _catalogue(n)
    cells = catalogue.cells
    size = len(cells)
    south_edges = catalogue.boundary[2]
    labels = [-1] * catalogue.edge_count  # -1: not yet labelled
    for ids, word in zip(catalogue.boundary, (nw, ne)):
        for edge, letter in zip(ids, word):
            labels[edge] = int(letter)
    covered = [False] * size
    placements: list = []
    results: dict = {}

    def dfs(pos: int) -> None:
        while pos < size and covered[pos]:
            pos += 1
        if pos == size:
            south = "".join("01"[labels[edge]] for edge in south_edges)
            found = results.setdefault(south, [])
            # the puzzles of one south word share one boundary tuple
            boundary = found[0].boundary if found else (nw, ne, south)
            equiv = tuple(
                sorted((j + n - r, j) for kind, r, j in placements
                       if kind == "rhE")
            )
            found.append(Puzzle(n, boundary, tuple(placements), equiv))
            return
        for assign, spots, anchor in cells[pos]:
            # spots[0] is pos, uncovered; a rhombus's second cell is last
            if covered[spots[-1]]:
                continue
            added = []
            for edge, label in assign:
                known = labels[edge]
                if known < 0:
                    labels[edge] = label
                    added.append(edge)
                elif known != label:
                    break
            else:
                for s in spots:
                    covered[s] = True
                placements.append(anchor)
                dfs(pos + 1)
                placements.pop()
                for s in spots:
                    covered[s] = False
            for edge in added:
                labels[edge] = -1

    dfs(0)
    return MappingProxyType(
        {south: tuple(found) for south, found in results.items()}
    )


def max_equivariant_pieces(n: int) -> int:
    """n(n - 1)/2, the cells of size n that anchor an equivariant piece.

    No partial tiling carries more, so this bounds the degree of every
    frontier weight; the factors and sums of ``frontier_sums`` are
    packed with ``_packer(nvars, max_equivariant_pieces(n))``.
    """
    return n * (n - 1) // 2


def frontier_sums(nw: str, ne: str, factors: dict) -> dict:
    """Map south word -> sum over the tilings with the nw and ne words of
    the product of factors[(u, v)] over their equivariant pieces.

    ``factors`` maps every conjugated pair u < v to a packed integer
    term map, all packed alike for degrees up to
    ``max_equivariant_pieces(n)``; a tiling without equivariant pieces
    adds 1, the packed monomial 0.  The sums are packed the same way,
    without zero terms.  Every south word some tiling reaches is a key,
    also when its sum cancels to zero.
    """
    n = len(nw)
    for w in (nw, ne):
        _check_word(w, n)
    catalogue = _catalogue(n)
    packed = {pair: list(f.items()) for pair, f in factors.items()}
    start = 0
    for ids, word in zip(catalogue.boundary, (nw, ne)):
        for edge, letter in zip(ids, word):
            start |= int(letter) + 1 << 2 * edge
    states = {start: {0: 1}}
    for cover, keep, moves in catalogue.steps:
        reached: dict = {}
        fresh = set()  # keys whose weight dict belongs to this step

        def add(key, weight):
            known = reached.get(key)
            if known is None:
                reached[key] = weight
                return
            if key not in fresh:
                known = reached[key] = dict(known)
                fresh.add(key)
            get = known.get
            for e, c in weight.items():
                known[e] = get(e, 0) + c

        for state, weight in states.items():
            if state & cover:
                add(state & keep, weight)
                continue
            for forbidden, added, pair in moves:
                if state & forbidden:
                    continue
                if pair is not None:
                    product: dict = {}
                    get = product.get
                    for e1, c1 in weight.items():
                        for e2, c2 in packed[pair]:
                            e = e1 + e2
                            product[e] = get(e, 0) + c1 * c2
                    add((state | added) & keep, product)
                else:
                    add((state | added) & keep, weight)
        states = reached
    # only the south edges are left in the final states
    return {
        "".join("01"[(state >> 2 * e & 3) - 1] for e in catalogue.boundary[2]):
        {e: c for e, c in weight.items() if c}
        for state, weight in states.items()
    }


def symbol_sums(
    k: int, n: int, i: int, j: int, factors: dict, nvars: int
) -> dict:
    """Map q -> frontier sum over the puzzles of (i, j; q), reversed words.

    ``factors`` are packed in ``nvars`` variables as ``frontier_sums``
    asks, and so are the sums.  Checks every reached q: it must
    dominate both inputs, and every packed key of its sum must have
    degree dim(i) + dim(j) - dim(q), the piece-count balance, as long
    as every factor is homogeneous of degree 1.
    """
    lat = symbols.lattice(k, n)
    lat.check_index(i, j)
    rev = [symbols.sigma_r_word(w) for w in lat.words]
    index = {w: q for q, w in enumerate(rev)}
    upper = set(lat.upper_set(i, j))
    pack, _ = _packer(nvars, max_equivariant_pieces(n))
    out = {}
    for south, total in frontier_sums(rev[i], rev[j], factors).items():
        q = index.get(south)
        if q not in upper:
            raise InternalInconsistencyError(
                "puzzle found outside the dominance region"
            )
        lowest, highest = _degree_range(
            pack, nvars, lat.d[i] + lat.d[j] - lat.d[q]
        )
        if not all(lowest <= key <= highest for key in total):
            raise InternalInconsistencyError(
                "piece count violates the dimension balance"
            )
        out[q] = total
    return out


def puzzles_for(k: int, n: int, i: int, j: int, l: int) -> list:
    """Puzzles on the reversed words of the symbol triple (i, j; l).

    The raw-orientation puzzles of (i, j; l), on the words as they are,
    are the puzzles of the sigma_r image of the triple.
    """
    lat = symbols.lattice(k, n)
    lat.check_index(i, j, l)
    words = [symbols.sigma_r_word(lat.words[t]) for t in (i, j, l)]
    return enumerate_puzzles(words[0], words[1], words[2])


@lru_cache(maxsize=None)
def conjugated_product(k: int, n: int, i: int, j: int) -> dict:
    """Map l -> sum of conjugated weights over Delta^{rev w_l}_{rev w_i, rev w_j}.

    One frontier pass with the factors y_u - y_v; ``symbol_sums``
    checks dominance and the piece-count balance.
    """
    pack, unpack = _packer(n, max_equivariant_pieces(n))
    unit = [pack(tuple(int(s == v) for s in range(n))) for v in range(n)]
    factors = {
        (u, v): {unit[u - 1]: 1, unit[v - 1]: -1}
        for u in range(1, n) for v in range(u + 1, n + 1)
    }
    sums = symbol_sums(k, n, i, j, factors, n)
    return {
        l: _build(n, {unpack(key): c for key, c in total.items()})
        for l, total in sorted(sums.items()) if total
    }


def conjugated_constants(k: int, n: int) -> dict:
    """Conjugated table (i, j, l) -> polynomial; the downstream orientation."""
    m1 = symbols.count(k, n)
    if m1 > TABLE_LIMIT:
        raise CapacityError(
            f"full puzzle tables need C(n, k) <= {TABLE_LIMIT}, got {m1}"
        )
    table = {}
    for i in range(m1):
        for j in range(m1):
            for l, poly in conjugated_product(k, n, i, j).items():
                table[(i, j, l)] = poly
    return table


def render_ascii(puz: Puzzle) -> str:
    """Rough row-by-row dump of the tiling, for debugging."""
    lines = [f"size {puz.n}  boundary {puz.boundary}"]
    for kind, r, j in puz.pieces:
        lines.append(f"  {kind} at row {r}, position {j}")
    if puz.equivariant:
        pairs = ", ".join(f"(a={a}, c={c})" for a, c in puz.equivariant)
        lines.append(f"  equivariant pieces: {pairs}")
    return "\n".join(lines)
