"""
Schubert symbols for Gr(k, n) and their order combinatorics.

A Schubert symbol is a strictly increasing k-tuple of integers in [1, n],
written here as a plain tuple.  Symbols are enumerated in lexicographic
order, which refines the componentwise partial order

    lam <= mu   iff   lam_i <= mu_i for every i.

Each symbol also has a 0/1 word of length n carrying ones exactly at the
symbol's entries; the word form is the canonical boundary datum for
puzzle enumeration.

For a symbol lam the module computes

- ``dim(lam)``: the cell dimension sum_i (lam_i - i),
- the reversal set R(lam): symbols obtained by replacing an entry by a
  smaller value not in lam (these sit strictly below lam),
- covering arrows: mu is an arrow of lam when lam <= mu and
  dim(mu) = dim(lam) + 1, that is, mu raises one entry s of lam to
  s + 1 (a one-box step).

``SymbolLattice`` precomputes this once per (k, n) and memoizes
saturated descending chains.  The chains spell out the chain-sum
formulas of ``structure`` term by term, as an independent reference;
the pipeline itself takes Pieri steps along ``arrows``.  Order queries
(``leq_idx``, ``upper_set``) compare the symbols themselves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import CapacityError, ParameterError

Symbol = tuple  # strictly increasing tuple of ints


def check_kn(k: int, n: int) -> None:
    if not (type(k) is int and type(n) is int and 1 <= k < n):  # no bool
        raise ParameterError(f"need integers 1 <= k < n, got k={k!r}, n={n!r}")


def count(k: int, n: int) -> int:
    """Number of Schubert symbols, C(n, k), without building them."""
    check_kn(k, n)
    return comb(n, k)


def count_upto(k: int, n: int, limit: int):
    """C(n, k) when it is at most limit, else None.

    The partial counts C(n, j) grow with j up to min(k, n - k), so the
    product stops once one passes limit: a huge (k, n) costs a few
    steps, not the exact count, whose digits str() may refuse to print.
    """
    check_kn(k, n)
    value = 1
    for j in range(1, min(k, n - k) + 1):
        value = value * (n - j + 1) // j
        if value > limit:
            return None
    return value


def check_count(k: int, n: int, limit: int, what: str) -> int:
    """C(n, k), or CapacityError once it passes limit; the message names
    (k, n), never a count past the limit."""
    m1 = count_upto(k, n, limit)
    if m1 is None:
        raise CapacityError(f"{what} <= {limit}, got (k, n) = ({k}, {n})")
    return m1


def enumerate_symbols(k: int, n: int) -> list[Symbol]:
    """All Schubert symbols for (k, n) in lexicographic order."""
    check_kn(k, n)
    return [tuple(c) for c in combinations(range(1, n + 1), k)]


def dim(sym: Symbol) -> int:
    """Cell dimension sum_i (sym_i - i)."""
    return sum(e - i for i, e in enumerate(sym, start=1))


def word(sym: Symbol, n: int) -> str:
    """0/1 word of length n with ones at the symbol's entries."""
    chars = ["0"] * n
    for e in sym:
        chars[e - 1] = "1"
    return "".join(chars)


def leq(a: Symbol, b: Symbol) -> bool:
    """Componentwise partial order a <= b."""
    return all(x <= y for x, y in zip(a, b))


def reversal_pairs(sym: Symbol) -> list[tuple[int, int]]:
    """Pairs (s, s') with s in sym, s' not in sym, s' < s."""
    inside = set(sym)
    return [(s, sp) for s in sym for sp in range(1, s) if sp not in inside]


def exchange(sym: Symbol, s: int, sp: int) -> Symbol:
    """Replace entry s by sp and re-sort."""
    return tuple(sorted(set(sym) - {s} | {sp}))


def reversal_set(sym: Symbol) -> set:
    return {exchange(sym, s, sp) for s, sp in reversal_pairs(sym)}


def sigma_r(sym: Symbol, n: int) -> Symbol:
    """The involution sending entry i to n+1-i (sorted)."""
    return tuple(sorted(n + 1 - e for e in sym))


def sigma_r_word(w: str) -> str:
    """On words, the involution is string reversal."""
    return w[::-1]


class SymbolLattice:
    """All Schubert symbols of one (k, n) with their order data.

    Symbols are referred to by their lexicographic index 0..m where
    m + 1 = C(n, k).  All attribute lists are indexed accordingly:

    - ``d[i]``: dimension of symbol i,
    - ``R[i]``: the reversal set as an index list (sorted),
    - ``arrows[i]``: up-covers (j with lam_i <= lam_j, d_j = d_i + 1),
      the one-box steps of lam_i (sorted),
    - ``down_covers[i]``: the opposite covers, read off ``arrows``,
    - ``sigma_r_index[i]``: index of the sigma_r image of symbol i.

    Instances are immutable after construction and cached per (k, n).
    """

    def __init__(self, k: int, n: int):
        check_kn(k, n)
        self.k = k
        self.n = n
        self.symbols = enumerate_symbols(k, n)
        self.m = len(self.symbols) - 1
        self.index = {sym: i for i, sym in enumerate(self.symbols)}
        self.words = [word(sym, n) for sym in self.symbols]
        self.d = [dim(sym) for sym in self.symbols]
        self.R = [
            sorted(self.index[t] for t in reversal_set(sym)) for sym in self.symbols
        ]
        # A cover adds exactly one to sum(mu_t - lam_t), so it raises
        # one entry s to s + 1, which must be free.
        self.arrows = [
            sorted(
                self.index[sym[:t] + (s + 1,) + sym[t + 1:]]
                for t, s in enumerate(sym)
                if s < n and s + 1 not in sym
            )
            for sym in self.symbols
        ]
        self.down_covers = [[] for _ in self.symbols]
        for i, ups in enumerate(self.arrows):
            for j in ups:
                self.down_covers[j].append(i)
        self.sigma_r_index = [
            self.index[sigma_r(sym, n)] for sym in self.symbols
        ]
        self._chains: dict = {}

    def leq_idx(self, i: int, j: int) -> bool:
        return leq(self.symbols[i], self.symbols[j])

    def check_index(self, *idxs) -> None:
        """Raise ParameterError unless every index names a symbol, 0..m
        (an int, not a bool)."""
        for idx in idxs:
            if not (type(idx) is int and 0 <= idx <= self.m):
                raise ParameterError(f"symbol index {idx} out of range")

    def upper_set(self, *idxs: int) -> list[int]:
        """Indices q with lam_q >= lam_i for every given i, ascending.

        The entrywise maximum of the given symbols is again a symbol and
        is their join, so each candidate takes one comparison.
        """
        join = tuple(map(max, zip(*(self.symbols[i] for i in idxs))))
        return [q for q, sym in enumerate(self.symbols) if leq(join, sym)]

    def chains(self, start: int, end: int) -> tuple:
        """Saturated descending chains start -> ... -> end through covers.

        Each chain is a tuple of indices beginning with ``start`` and
        ending with ``end``; consecutive entries drop the dimension by
        exactly one.  Returns () when end is not below start.
        """
        key = (start, end)
        cached = self._chains.get(key)
        if cached is not None:
            return cached
        if start == end:
            result: tuple = ((start,),)
        elif not self.leq_idx(end, start) or self.d[end] >= self.d[start]:
            result = ()
        else:
            acc = []
            for nxt in self.down_covers[start]:
                for tail in self.chains(nxt, end):
                    acc.append((start,) + tail)
            result = tuple(acc)
        self._chains[key] = result
        return result

    def __repr__(self):
        return f"SymbolLattice(k={self.k}, n={self.n}, size={self.m + 1})"


@lru_cache(maxsize=32, typed=True)  # typed: True never gets the lattice of 1
def lattice(k: int, n: int) -> SymbolLattice:
    """Cached lattice for (k, n)."""
    return SymbolLattice(k, n)


def symmetric_table(m1: int, cell) -> dict:
    """{(i, j): cell(i, j)} over 0 <= i, j < m1 in row-major order.

    Products of basis classes commute, so ``cell`` is called only for
    i <= j and its result is shared by (j, i).
    """
    upper = {(i, j): cell(i, j) for i in range(m1) for j in range(i, m1)}
    return {
        (i, j): upper[(i, j) if i <= j else (j, i)]
        for i in range(m1)
        for j in range(m1)
    }
