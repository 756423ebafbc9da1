"""The elimination kernel against sympy's reduced row echelon form, rank and nullspace."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from jumploci import Character, CyclotomicElement, parse_presentation
from jumploci._linalg import echelon_insert, kernel, rank, reduced
from jumploci.alexander import alexander_matrix


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


def _basis(rows):
    basis = {}
    for row in rows:
        echelon_insert(basis, {j: x for j, x in enumerate(row) if x})
    return basis


def _assert_primitive_rows(basis):
    """Every stored rational row is a primitive integer row led by a positive pivot."""
    for pivot, row in basis.items():
        assert min(row) == pivot
        assert row[pivot] > 0
        assert all(type(x) is int and x for x in row.values())
        g = 0
        for x in row.values():
            g = gcd(g, x)
        assert g == 1


def test_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    for rows in _matrices():
        ncols = len(rows[0])
        basis = _basis(rows)
        _assert_primitive_rows(basis)
        red = reduced(basis)
        pivots = list(red)
        got = [[red[p].get(j, 0) for j in range(ncols)] for p in pivots]
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in rows])
        ref, ref_pivots = m.rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)]
                    for i in range(len(ref_pivots))]
        assert (got, pivots) == (expected, list(ref_pivots))
        assert sorted(basis) == pivots
        assert all(type(x) is Fraction for row in red.values() for x in row.values())
        assert rank(rows) == m.rank() == len(ref_pivots)


@pytest.mark.parametrize("n", [30, 40])
def test_dense_integer_rank_matches_sympy(n):
    # a full-rank matrix and one of rank n - 5, as a product of two factors
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(n)
    full = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    left = [[rng.randint(-3, 3) for _ in range(n - 5)] for _ in range(n)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 5)]
    low = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    for rows in (full, low):
        expected = DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ).rank()
        assert rank(rows) == expected
        _assert_primitive_rows(_basis(rows))


def test_kernel_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    for rows in _matrices():
        ncols = len(rows[0])
        vecs = kernel(_basis(rows), ncols)
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in rows])
        expected = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in m.nullspace()]
        assert vecs == expected
        assert all(type(x) is Fraction for v in vecs for x in v)


def test_kernel_unchanged_on_the_seeded_matrices():
    # sha256 of repr() of the 57 nullspaces, recorded with the earlier
    # kernel, which kept Fraction rows in reduced echelon form
    vecs = [kernel(_basis(rows), len(rows[0])) for rows in _matrices()]
    assert len(vecs) == 57
    assert hashlib.sha256(repr(vecs).encode()).hexdigest() == (
        "404aee327f834de2d2db7feec5babbd0ef0fd2c277fbdb83e7ceefe47604a395")


def test_kernel_of_empty_system_is_the_unit_basis():
    assert kernel({}, 3) == [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    assert kernel({}, 0) == []


def test_dependent_row_leaves_basis_unchanged():
    basis = {}
    assert echelon_insert(basis, {(0, 1): Fraction(2), (1, 0): Fraction(-2)}) == (0, 1)
    assert echelon_insert(basis, {(1, 0): Fraction(3), (1, 1): Fraction(1)}) == (1, 0)
    # primitive integer rows; the first row keeps its entry at the second pivot
    assert basis == {
        (0, 1): {(0, 1): 1, (1, 0): -1},
        (1, 0): {(1, 0): 3, (1, 1): 1},
    }
    assert all(type(x) is int for row in basis.values() for x in row.values())
    before = {p: dict(row) for p, row in basis.items()}
    combo = {(0, 1): Fraction(2), (1, 0): Fraction(-5), (1, 1): Fraction(-1)}
    assert echelon_insert(basis, combo) is None
    assert basis == before
    assert echelon_insert(basis, {}) is None


def test_rank_of_no_rows():
    assert rank([]) == 0


def test_cyclotomic_rows_hold_one_at_their_pivot():
    # the Alexander matrix of the trefoil at a primitive sixth root of unity
    # has rank 0; at a cube root it has rank 1, and a random Q(zeta_12)
    # system checks the stored form on more rows
    trefoil = alexander_matrix(parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>"))
    assert rank(trefoil.evaluated(Character(6, (1,)))) == 0
    assert rank(trefoil.evaluated(Character(3, (1,)))) == 1
    rng = random.Random(12)
    rows = [[CyclotomicElement(12, [rng.randint(-2, 2) for _ in range(4)]) for _ in range(6)]
            for _ in range(5)]
    basis = _basis(rows)
    assert len(basis) == 5
    one = CyclotomicElement.one(12)
    for pivot, row in basis.items():
        assert min(row) == pivot
        assert row[pivot] == one
        assert all(isinstance(x, CyclotomicElement) and x for x in row.values())
    # a combination of two rows is dependent and leaves the basis unchanged
    before = {p: dict(row) for p, row in basis.items()}
    zeta = CyclotomicElement.root_power(12, 1)
    combo = [a * zeta + b for a, b in zip(rows[0], rows[3])]
    assert echelon_insert(basis, {j: x for j, x in enumerate(combo) if x}) is None
    assert basis == before


def test_cyclotomic_pivot_is_inverted_once_per_stored_row(monkeypatch):
    calls = []
    real = CyclotomicElement.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CyclotomicElement, "inverse", counting)
    rng = random.Random(10)
    # (order, rows, columns, rank): products of random factors of rank k,
    # plus a rank-0 and a rank-1 trefoil evaluation
    for m, nrows, ncols, k in ((12, 5, 6, 5), (7, 6, 5, 3), (8, 4, 8, 2)):
        def elt():
            return CyclotomicElement(m, [rng.randint(-2, 2) for _ in range(3)])

        left = [[elt() for _ in range(k)] for _ in range(nrows)]
        right = [[elt() for _ in range(ncols)] for _ in range(k)]
        rows = [[sum((a * b for a, b in zip(row, col)), CyclotomicElement.zero(m))
                 for col in zip(*right)] for row in left]
        calls.clear()
        basis = _basis(rows)
        assert len(basis) == k
        assert len(calls) == k
        assert all(row[p] == CyclotomicElement.one(m) for p, row in basis.items())
    trefoil = alexander_matrix(parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>"))
    for order, expected in ((6, 0), (3, 1), (12, 1)):
        calls.clear()
        assert rank(trefoil.evaluated(Character(order, (1,)))) == expected
        assert len(calls) == expected
