"""Exact linear algebra over fields, shared by the invariant computations.

Works generically over any field whose elements support +, -, *, / and are
falsy exactly when zero (Fraction and CyclotomicElement both qualify).
Every elimination over a field goes through the sparse kernel
`echelon_insert`, and `kernel` reads the nullspace of a rational system off
its reduced rows; `int_det` works over Z.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "rank",
    "echelon_insert",
    "kernel",
    "mat_vec",
    "mat_mul",
    "int_det",
]


def _sub_scaled(target, c, row):
    """target -= c * row in place, dropping entries that cancel."""
    for k, v in row.items():
        s = target.get(k, 0) - c * v
        if s:
            target[k] = s
        else:
            del target[k]


def echelon_insert(basis, vec):
    """Reduce a sparse row against a reduced echelon basis; insert it if new.

    `vec` maps ordered keys (column indices, tensor words, ...) to nonzero
    entries.  `basis` maps each pivot key to its row; every row holds 1 at its
    pivot and no other row's pivot, so one pass decides dependence and the
    reduction needs no division.  An independent `vec` is normalized at its
    pivot `min(vec)`, cleared from the other rows and inserted; its pivot is
    returned.  A dependent `vec` leaves `basis` unchanged and gives None.
    """
    vec = dict(vec)
    for pivot, row in basis.items():
        c = vec.get(pivot)
        if c:
            _sub_scaled(vec, c, row)
    if not vec:
        return None
    pivot = min(vec)
    inv = vec[pivot]
    vec = {k: v / inv for k, v in vec.items()}
    for row in basis.values():
        c = row.get(pivot)
        if c:
            _sub_scaled(row, c, vec)
    basis[pivot] = vec
    return pivot


def rank(rows):
    """Rank of a matrix given as dense rows."""
    basis = {}
    for row in rows:
        echelon_insert(basis, {j: x for j, x in enumerate(row) if x})
    return len(basis)


def kernel(basis, n):
    """Nullspace over Q of a reduced echelon system on columns 0..n-1.

    `basis` is as kept by `echelon_insert`.  Each free column f gives one
    vector: 1 at f, -row[f] at each pivot, 0 elsewhere; these vectors form a
    basis of the nullspace, returned in free-column order.  The rows must be
    rational (as `echelon_insert` leaves `Fraction` rows); the 0 and 1
    entries are `Fraction` too, so reducing the vectors again stays exact.
    """
    vecs = []
    for f in range(n):
        if f in basis:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for pivot, row in basis.items():
            c = row.get(f)
            if c:
                v[pivot] = -c
        vecs.append(tuple(v))
    return vecs


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
