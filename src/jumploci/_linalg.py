"""Exact linear algebra over fields, shared by the invariant computations.

Works generically over any field whose elements support +, -, *, / and are
falsy exactly when zero (Fraction and CyclotomicElement both qualify).
"""

from __future__ import annotations

__all__ = [
    "rank",
    "row_reduce",
    "mat_vec",
    "mat_mul",
    "int_det",
]


def row_reduce(rows):
    """Reduced row-echelon form; returns (reduced nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots = []
    reduced = []
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        pivot_row = None
        for i, r in enumerate(work):
            if r[col]:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        row = work.pop(pivot_row)
        inv = row[col]
        row = [x / inv for x in row]
        for other in reduced:
            if other[col]:
                c = other[col]
                for j in range(col, ncols):
                    other[j] = other[j] - c * row[j]
        for other in work:
            if other[col]:
                c = other[col]
                for j in range(col, ncols):
                    other[j] = other[j] - c * row[j]
        reduced.append(row)
        pivots.append(col)
        col += 1
    return reduced, pivots


def rank(rows):
    _, pivots = row_reduce(rows)
    return len(pivots)


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def int_det(matrix):
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1
