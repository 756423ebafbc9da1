"""The field elimination kernel against sympy's reduced row echelon form and nullspace."""

import random
from fractions import Fraction

import pytest

from jumploci._linalg import echelon_insert, kernel, rank


def _rational(rng, bound=3):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def _random_matrix(rng, nrows, ncols):
    """Sparse random entries, or a product of two factors (rank at most k)."""
    if rng.random() < 0.5:
        return [[_rational(rng) if rng.random() < 0.4 else Fraction(0)
                 for _ in range(ncols)] for _ in range(nrows)]
    k = rng.randint(0, min(nrows, ncols))
    left = [[_rational(rng) for _ in range(k)] for _ in range(nrows)]
    right = [[_rational(rng) for _ in range(ncols)] for _ in range(k)]
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
            for row in left]


def _matrices():
    rng = random.Random(2008)
    shapes = [(1, 1), (3, 3), (4, 9), (2, 7), (8, 3), (6, 6), (5, 12)]
    out = [[[Fraction(0)] * 4 for _ in range(3)]]
    for nrows, ncols in shapes:
        out.extend(_random_matrix(rng, nrows, ncols) for _ in range(8))
    return out


def _kernel_rref(rows, ncols):
    basis = {}
    for row in rows:
        echelon_insert(basis, {j: x for j, x in enumerate(row) if x})
    pivots = sorted(basis)
    return [[basis[p].get(j, 0) for j in range(ncols)] for p in pivots], pivots


def test_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    for rows in _matrices():
        ncols = len(rows[0])
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in rows])
        ref, ref_pivots = m.rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)]
                    for i in range(len(ref_pivots))]
        assert _kernel_rref(rows, ncols) == (expected, list(ref_pivots))
        assert rank(rows) == m.rank() == len(ref_pivots)


def test_kernel_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    for rows in _matrices():
        ncols = len(rows[0])
        basis = {}
        for row in rows:
            echelon_insert(basis, {j: x for j, x in enumerate(row) if x})
        vecs = kernel(basis, ncols)
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in rows])
        expected = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in m.nullspace()]
        assert vecs == expected
        assert all(type(x) is Fraction for v in vecs for x in v)


def test_kernel_of_empty_system_is_the_unit_basis():
    assert kernel({}, 3) == [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    assert kernel({}, 0) == []


def test_dependent_row_leaves_basis_unchanged():
    basis = {}
    assert echelon_insert(basis, {(0, 1): Fraction(2), (1, 0): Fraction(-2)}) == (0, 1)
    assert echelon_insert(basis, {(1, 0): Fraction(3), (1, 1): Fraction(1)}) == (1, 0)
    # every row holds 1 at its pivot and no other row's pivot
    assert basis == {
        (0, 1): {(0, 1): 1, (1, 1): Fraction(1, 3)},
        (1, 0): {(1, 0): 1, (1, 1): Fraction(1, 3)},
    }
    before = {p: dict(row) for p, row in basis.items()}
    combo = {(0, 1): Fraction(2), (1, 0): Fraction(-5), (1, 1): Fraction(-1)}
    assert echelon_insert(basis, combo) is None
    assert basis == before
    assert echelon_insert(basis, {}) is None


def test_rank_of_no_rows():
    assert rank([]) == 0
