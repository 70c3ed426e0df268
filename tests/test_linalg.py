"""Exact linear algebra helpers."""

import random
from fractions import Fraction

from wgrass import linalg


def _fraction_det(mat):
    # reference: plain Gaussian elimination over Fraction
    rows = [[Fraction(x) for x in row] for row in mat]
    n = len(rows)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def test_det_matches_fraction_elimination():
    rng = random.Random(5)
    cases = [
        [],
        [[7]],
        [[0]],
        [[0, 2], [3, 4]],  # zero first pivot: one swap
        [[1, 1, 2], [1, 1, 5], [2, 3, 1]],  # pivot vanishes at the second step
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # singular, dependent rows
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # singular, zero column
    ]
    for _ in range(200):
        size = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.25:
            mat[rng.randrange(size)][:] = [0] * size
        elif rng.random() < 0.25 and size > 1:
            i, j = rng.sample(range(size), 2)
            f = rng.randint(-3, 3)
            mat[i] = [f * x for x in mat[j]]
        elif rng.random() < 0.5:
            mat[0][0] = 0
        cases.append(mat)
    swaps = singular = 0
    for mat in cases:
        got = linalg.det(mat)
        assert type(got) is int
        assert got == _fraction_det(mat)
        singular += got == 0
        swaps += bool(mat) and mat[0][0] == 0 and got != 0
    assert singular > 20 and swaps > 10
