"""Small exact linear algebra helpers over Fraction."""

from __future__ import annotations

from fractions import Fraction


def _copy(mat) -> list:
    return [[Fraction(x) for x in row] for row in mat]


def rref(mat) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = _copy(mat)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def invert(mat):
    """Inverse of a square matrix, or None when singular."""
    n = len(mat)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]

