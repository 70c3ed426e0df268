"""Small exact linear algebra helpers over Fraction, and an integer determinant."""

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


def det(mat) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination.

    After step c every entry below and right of the pivot is a (c+2)-minor
    of the input, so each division by the previous pivot is exact.
    """
    rows = [list(row) for row in mat]
    n = len(rows)
    if not n:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        if not rows[c][c]:
            pivot = next((i for i in range(c + 1, n) if rows[i][c]), None)
            if pivot is None:
                return 0
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        top = rows[c]
        pv = top[c]
        for i in range(c + 1, n):
            row = rows[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * pv - f * top[j]) // prev
        prev = pv
    return sign * rows[n - 1][n - 1]
