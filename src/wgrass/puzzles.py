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
the first search or sweep of that size, and cached per n, as one move
table: every edge gets an integer id, and every cell position the
moves of the pieces anchored there on the frontier state described
under "Transfer matrix", with their (kind, r, j) anchors alongside.
The depth-first search and the sweep walk that one table in the same
order.  The south word touches only the edges H(n, .) of the last row,
so one search per (nw, ne) pair serves every south word: the search
starts from the state with the nw and ne edges set, each leaf reads
its south word off its final state, and the search, cached per (nw,
ne), buckets the tilings by south word.  A fixed south word would only
prune the same tree, so each bucket keeps the fill order.  The search
serves the ``puzzles`` command and the tests; the structure constants
never build a tiling.

Transfer matrix.  ``sweep`` walks the same cells in the same order for
many (nw, ne) pairs of one size at once.  A state is one int: 2 bits
per edge (unset, 0 or 1) and one bit per cell, set when a rhombus
placed earlier covers it.  An edge is cleared after the last cell whose
pieces read it, except the south edges, so partial tilings that differ
only behind the frontier reach the same state, also across pairs.  A
forward pass collects the states every step reaches from the pairs'
start states, as ints only.  A backward pass then keeps, per state of
one step, the sums over its completions to the last step of the
products of their piece factors, one sum per final state, and adds
those of each state's successors, so every pair that reaches a state
shares its future.  A weight is a packed integer term map
(``polynomial.Packing``); an equivariant piece multiplies it by a
factor the caller gives per conjugated pair (u, v), packed for degrees
up to ``max_equivariant_pieces(n)``.  Sums that cancel to zero are
kept, so the final states of a pair, which hold only the south edges,
are exactly the south words some tiling reaches.  ``symbol_sums`` maps
them to symbols and checks dominance and the piece-count balance on the
packed keys for every pair; the sums stay packed for the contraction in
``structure``.

Orientation.  ``puzzles_for`` has one orientation: the boundary of the
symbol triple (i, j; l) is the reversed words of the three symbols.
The raw orientation, on the words as they are, needs no second path:
reversing a word is sigma_r on its symbol, so the raw puzzles of
(i, j; l) are ``puzzles_for`` at (sigma_r i, sigma_r j; sigma_r l), the
same cached objects.  ``conjugated_product`` sums conjugated weights,
the factors y_u - y_v, by one sweep per call.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from . import symbols
from .errors import InternalInconsistencyError, ParameterError
from .polynomial import packing


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
    """Every piece of size n, as moves on the frontier state bits.

    Edge e is bits 2e, 2e + 1 (00 unset, 01 label 0, 10 label 1), and
    the pos-th cell of the row-major fill order is bit 2 E + pos (E the
    number of edges), set when a rhombus placed earlier covers it.
    ``steps[pos]`` is (covered bit, keep mask, ((forbidden, added,
    pair), ...)) with one move per piece anchored at the cell, in the
    order both walks try them; pair is the conjugated (u, v) of an
    equivariant piece and None else.  ``anchors[pos]`` holds the (kind,
    r, j) of those moves, in the same order.  ``boundary`` holds the
    edge ids of the nw, ne and south words.
    """

    boundary: tuple
    steps: tuple
    anchors: tuple


@lru_cache(maxsize=8, typed=True)
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
    anchors = tuple(tuple(anchor for _, _, anchor in pieces) for pieces in table)
    return _Catalogue(boundary, tuple(steps), anchors)


def _south_word(catalogue: _Catalogue, state: int) -> str:
    """The south word of a final state, which holds only the south edges."""
    return "".join("01"[(state >> 2 * e & 3) - 1] for e in catalogue.boundary[2])


def enumerate_puzzles(nw: str, ne: str, south: str) -> list:
    """All tilings with the given boundary, in row-major fill order."""
    n = len(nw)
    for w in (nw, ne, south):
        _check_word(w, n)
    return list(_enumerate_cached(nw, ne).get(south, ()))


@lru_cache(maxsize=256)  # each entry holds every tiling of its pair
def _enumerate_cached(nw: str, ne: str) -> MappingProxyType:
    """Read-only map south word -> tilings with the nw and ne words."""
    n = len(nw)
    catalogue = _catalogue(n)
    steps, anchors = catalogue.steps, catalogue.anchors
    size = len(steps)
    placements: list = []
    results: dict = {}

    def dfs(pos: int, state: int) -> None:
        while pos < size and state & steps[pos][0]:  # covered cells
            state &= steps[pos][1]
            pos += 1
        if pos == size:
            south = _south_word(catalogue, state)
            found = results.setdefault(south, [])
            # the puzzles of one south word share one boundary tuple
            boundary = found[0].boundary if found else (nw, ne, south)
            equiv = tuple(
                sorted((j + n - r, j) for kind, r, j in placements
                       if kind == "rhE")
            )
            found.append(Puzzle(n, boundary, tuple(placements), equiv))
            return
        _, keep, moves = steps[pos]
        for (forbidden, added, _), anchor in zip(moves, anchors[pos]):
            if not state & forbidden:
                placements.append(anchor)
                dfs(pos + 1, (state | added) & keep)
                placements.pop()

    dfs(0, _start_state(catalogue, nw, ne))
    return MappingProxyType(
        {south: tuple(found) for south, found in results.items()}
    )


def max_equivariant_pieces(n: int) -> int:
    """n(n - 1)/2, the cells of size n that anchor an equivariant piece.

    No partial tiling carries more, so this bounds the degree of every
    frontier weight; the factors and sums of ``sweep`` are packed by
    ``packing(nvars, max_equivariant_pieces(n))``.
    """
    return n * (n - 1) // 2


def _start_state(catalogue: _Catalogue, nw: str, ne: str) -> int:
    """The frontier state with the nw and ne words set, nothing covered."""
    start = 0
    for ids, word in zip(catalogue.boundary, (nw, ne)):
        for edge, letter in zip(ids, word):
            start |= int(letter) + 1 << 2 * edge
    return start


def sweep(pairs, factors: dict) -> dict:
    """Map (nw, ne) -> {south word: sum over the tilings with the nw and
    ne words of the product of factors[(u, v)] over their equivariant
    pieces} for every pair.

    ``factors`` maps every conjugated pair u < v to a packed integer
    term map, all packed alike for degrees up to
    ``max_equivariant_pieces(n)``; a tiling without equivariant pieces
    adds 1, the packed monomial 0.  The sums are packed the same way,
    without zero terms.  Every south word some tiling reaches is a key,
    also when its sum cancels to zero.

    The words of all pairs have one length.  One forward pass collects
    the states every step reaches from the start states of all pairs,
    as ints only; one backward pass then fills, from the last step up,

        F(t, s) = {final state: sum over the completions of s from step
                   t on of the product of their piece factors},

    with F(T, s) = {s: 1}, sharing F(t, s) among all pairs that reach s
    at step t.  A pair's sums are F(0, start).  Only two steps of F are
    held at a time, and each step's states are freed once read.
    """
    pairs = list(pairs)
    if not pairs:
        return {}
    n = len(pairs[0][0])
    for nw, ne in pairs:
        _check_word(nw, n)
        _check_word(ne, n)
    catalogue = _catalogue(n)
    packed = {pair: tuple(f.items()) for pair, f in factors.items()}
    starts = {pair: _start_state(catalogue, *pair) for pair in pairs}
    levels = [set(starts.values())]
    for cover, keep, moves in catalogue.steps:
        reached = set()
        for state in levels[-1]:
            if state & cover:
                reached.add(state & keep)
                continue
            for forbidden, added, _ in moves:
                if not state & forbidden:
                    reached.add((state | added) & keep)
        levels.append(reached)
    # only the south edges are left in the final states
    future = {state: {state: {0: 1}} for state in levels.pop()}  # 0 packs 1
    for cover, keep, moves in reversed(catalogue.steps):
        current = {}
        for state in levels.pop():
            if state & cover:
                current[state] = future[state & keep]
                continue
            parts = []
            for forbidden, added, pair in moves:
                if not state & forbidden:
                    part = future[(state | added) & keep]
                    if part:
                        parts.append((part, pair))
            if len(parts) == 1 and parts[0][1] is None:
                current[state] = parts[0][0]  # shared, never written
                continue
            total: dict = {}
            for part, pair in parts:
                for final, weight in part.items():
                    acc = total.get(final)
                    if acc is None:
                        acc = total[final] = {}
                    get = acc.get
                    if pair is None:
                        for e, c in weight.items():
                            acc[e] = get(e, 0) + c
                        continue
                    for e1, c1 in weight.items():
                        for e2, c2 in packed[pair]:
                            e = e1 + e2
                            acc[e] = get(e, 0) + c1 * c2
            for acc in total.values():  # drop the terms that cancelled
                for e in [e for e, c in acc.items() if not c]:
                    del acc[e]
            current[state] = total
        future = current
    return {
        pair: {
            # pairs may share futures: each gets its own maps
            _south_word(catalogue, final): dict(weight)
            for final, weight in future[start].items()
        }
        for pair, start in starts.items()
    }


def symbol_sums(k: int, n: int, pairs, factors: dict, nvars: int) -> dict:
    """Map (i, j) -> {q: frontier sum over the puzzles of (i, j; q)} on the
    reversed words, for every symbol pair, by one ``sweep``.

    ``factors`` are packed in ``nvars`` variables as ``sweep`` asks, and
    so are the sums.  Checks every reached q of every pair: it must
    dominate both inputs, and every packed key of its sum must
    have degree dim(i) + dim(j) - dim(q), the piece-count balance, as
    long as every factor is homogeneous of degree 1.
    """
    lat = symbols.lattice(k, n)
    pairs = list(pairs)
    for i, j in pairs:
        lat.check_index(i, j)
    rev = [symbols.sigma_r_word(w) for w in lat.words]
    index = {w: q for q, w in enumerate(rev)}
    pk = packing(nvars, max_equivariant_pieces(n))
    swept = sweep(dict.fromkeys((rev[i], rev[j]) for i, j in pairs), factors)
    out = {}
    for i, j in pairs:
        upper = set(lat.upper_set(i, j))
        sums = out[(i, j)] = {}
        for south, total in swept[(rev[i], rev[j])].items():
            q = index.get(south)
            if q not in upper:
                raise InternalInconsistencyError(
                    "puzzle found outside the dominance region"
                )
            if not pk.homogeneous(total, lat.d[i] + lat.d[j] - lat.d[q]):
                raise InternalInconsistencyError(
                    "piece count violates the dimension balance"
                )
            sums[q] = total
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


def _conjugated(k: int, n: int, pairs) -> dict:
    """Map (i, j) -> ``conjugated_product(k, n, i, j)``, by one sweep with
    the factors y_u - y_v; ``symbol_sums`` checks dominance and the
    piece-count balance."""
    pk = packing(n, max_equivariant_pieces(n))
    unit = pk.units
    factors = {
        (u, v): {unit[u - 1]: 1, unit[v - 1]: -1}
        for u in range(1, n) for v in range(u + 1, n + 1)
    }
    return {
        pair: {
            l: pk.poly(total)
            for l, total in sorted(sums.items()) if total
        }
        for pair, sums in symbol_sums(k, n, pairs, factors, n).items()
    }


# products kept per process, so that a long-lived process asking for
# many stays bounded
PRODUCT_CACHE_SIZE = 256


@lru_cache(maxsize=PRODUCT_CACHE_SIZE, typed=True)
def conjugated_product(k: int, n: int, i: int, j: int) -> dict:
    """Map l -> sum of conjugated weights over Delta^{rev w_l}_{rev w_i, rev w_j}."""
    return _conjugated(k, n, [(i, j)])[(i, j)]


def render_ascii(puz: Puzzle) -> str:
    """Rough row-by-row dump of the tiling, for debugging."""
    lines = [f"size {puz.n}  boundary {puz.boundary}"]
    for kind, r, j in puz.pieces:
        lines.append(f"  {kind} at row {r}, position {j}")
    if puz.equivariant:
        pairs = ", ".join(f"(a={a}, c={c})" for a, c in puz.equivariant)
        lines.append(f"  equivariant pieces: {pairs}")
    return "\n".join(lines)
