"""The elimination kernel against sympy's reduced row echelon form, rank and nullspace."""

import hashlib
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from jumploci import Character, euler_phi, evaluate, parse_presentation
from jumploci import _linalg
from jumploci._linalg import echelon_insert, kernel, rank, reduced
from jumploci.alexander import alexander_matrix, sample_characters, twisted_h1_dim

from _corpus import (
    cross_validation_corpus,
    field_add,
    field_mul,
    random_field_matrix,
    regular_representation,
)


def _brute_moebius(d):
    """mu(d) from the primes found by trial division."""
    primes = [q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))]
    return 0 if any(d % (q * q) == 0 for q in primes) else (-1) ** len(primes)


def test_moebius_lists_mu_on_the_divisors():
    for m in range(1, 501):
        pairs = _linalg._moebius(m)
        want = {d: _brute_moebius(d) for d in range(1, m + 1) if m % d == 0}
        assert len(pairs) == len({d for _, d in pairs}), m
        assert {d: s for s, d in pairs} == {d: mu for d, mu in want.items() if mu}, m


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


def _reference_reduced(basis):
    """Reduced echelon form by back-substitution in `Fraction` rows with pivot entry 1."""
    out = {}
    for p in sorted(basis, reverse=True):
        row = basis[p]
        a = row[p]
        r = {k: Fraction(v, a) for k, v in row.items()}
        for q in [k for k in r if k != p and k in out]:
            c = r.get(q)
            if c:
                for k, v in out[q].items():
                    s = r.get(k, 0) - c * v
                    if s:
                        r[k] = s
                    else:
                        del r[k]
        out[p] = r
    return {p: out[p] for p in sorted(out)}


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


def _assert_reduced(red):
    """Primitive integer rows with a positive pivot and 0 at every other pivot, in pivot order."""
    _assert_primitive_rows(red)
    assert list(red) == sorted(red)
    for p, row in red.items():
        assert not any(q in row for q in red if q != p)


def test_reduced_matches_the_fraction_back_substitution():
    rng = random.Random(30)
    shapes = [(1, 1), (2, 2), (3, 5), (4, 4), (5, 3), (6, 9), (8, 8)]
    checked = 0
    for _ in range(40):
        for nrows, ncols in shapes:
            basis = _basis(_random_matrix(rng, nrows, ncols))
            red = reduced(basis)
            _assert_reduced(red)
            scaled = {p: {k: Fraction(v, row[p]) for k, v in row.items()}
                      for p, row in red.items()}
            assert scaled == _reference_reduced(basis)
            # a stored row that meets another pivot has to be cleared there
            checked += any(q in row for p, row in basis.items() for q in basis if q != p)
    assert checked >= 120


def test_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    for rows in _matrices():
        ncols = len(rows[0])
        basis = _basis(rows)
        _assert_primitive_rows(basis)
        red = reduced(basis)
        _assert_reduced(red)
        pivots = list(red)
        got = [[Fraction(red[p].get(j, 0), red[p][p]) for j in range(ncols)] for p in pivots]
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in rows])
        ref, ref_pivots = m.rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)]
                    for i in range(len(ref_pivots))]
        assert (got, pivots) == (expected, list(ref_pivots))
        assert sorted(basis) == pivots
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


def test_cyclotomic_rank_matches_the_regular_representation():
    # the Alexander matrix of the trefoil at a primitive sixth root of unity
    # has rank 0, at a cube root rank 1; seeded Q(zeta_m) matrices for every
    # m <= 60, products of two factors among them, have phi(m) times their
    # rank as the rank over Q of their regular representation
    trefoil = alexander_matrix(parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>"))
    for m, expected in ((6, 0), (3, 1)):
        chi = Character(m, (1,))
        rows = [[evaluate(e, chi) for e in row] for row in trefoil.entries]
        assert rank(rows, order=m) == expected
    rng = random.Random(60)
    deficient = 0
    for m in range(1, 61):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        k = rng.randint(0, min(nrows, ncols) - 1) if m % 2 else None
        rows = random_field_matrix(rng, m, nrows, ncols, k)
        r = rank(rows, order=m)
        assert euler_phi(m) * r == rank(regular_representation(m, rows)), (m, rows)
        deficient += r < min(nrows, ncols)
    assert deficient >= 20
    # over Q(zeta_1) = Q(zeta_2) = Q the rank is the rational rank
    for m in (1, 2):
        rows = [[(1,), (2,)], [(3,), (6,)], [(0,), (5,)]]
        assert rank(rows, order=m) == 2
        assert rank(rows[:2], order=m) == 1
        assert rank([[(0,), (0,)]], order=m) == 0


def test_a_dependent_column_dropped_keeps_the_cyclotomic_rank():
    # twisted_h1_dim drops a column that is a Z[zeta_m]-combination of the
    # others; with it dropped or kept the rank is the one the regular
    # representation gives, and a narrower matrix of full column rank lets
    # the certificate stop at its first prime
    rng = random.Random(61)
    stopped = 0
    for m in range(1, 41):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 3)
        k = rng.randint(0, min(nrows, ncols))
        rows = random_field_matrix(rng, m, nrows, ncols, k)
        u = random_field_matrix(rng, m, 1, ncols)[0]
        extra = []
        for row in rows:
            acc = (0,) * euler_phi(m)
            for a, b in zip(row, u):
                acc = field_add(acc, field_mul(m, a, b))
            extra.append(acc)
        j = rng.randint(0, ncols)
        wide = [row[:j] + [x] + row[j:] for row, x in zip(rows, extra)]
        r = rank(rows, order=m)
        assert euler_phi(m) * r == rank(regular_representation(m, rows)), (m, rows)
        assert rank(wide, order=m) == r, (m, wide)
        stopped += r == ncols < nrows
    assert stopped >= 5


def test_twisted_h1_dim_reads_the_full_rank_on_the_corpus():
    # by the fundamental formula of Fox calculus the evaluated Alexander
    # matrix has rank at most g - 1 at chi != 1, and dropping the avoided
    # column, as twisted_h1_dim does, keeps that rank
    rng = random.Random(62)
    checked = 0
    for p in cross_validation_corpus():
        a = alexander_matrix(p)
        for chi in sample_characters(a.num_vars, 6, rng.randrange(1000)):
            full = rank([[evaluate(e, chi) for e in row] for row in a.entries], order=chi.order)
            assert full <= a.num_generators - 1
            assert twisted_h1_dim(a, chi) == a.num_generators - 1 - full
            checked += 1
    assert checked == 6 * len(cross_validation_corpus())


def test_dropped_column_saves_the_hadamard_certificate(monkeypatch):
    # Z^4 at an order-1021 character: the 6 x 4 matrix has rank 3 = g - 1,
    # which the 6 x 3 matrix left after the avoided column is dropped
    # reaches at the first prime
    drawn = []
    real = _linalg._modular_root
    monkeypatch.setattr(_linalg, "_modular_root", lambda m, i: drawn.append(i) or real(m, i))
    gens = ["x1", "x2", "x3", "x4"]
    rels = [f"[{a},{b}]" for i, a in enumerate(gens) for b in gens[i + 1:]]
    a = alexander_matrix(parse_presentation(f"<{', '.join(gens)} | {', '.join(rels)}>"))
    chi = Character(1021, (1, 2, 3, 4))
    assert twisted_h1_dim(a, chi) == 0
    assert set(drawn) == {0}


def _small_roots(m, count):
    """(p, w) for the first `count` primes p = 1 (mod m) above 2m, w of order m in F_p."""
    out = []
    p = 2 * m + 1
    while len(out) < count:
        if all(p % q for q in range(2, isqrt(p) + 1)):
            w = next(w for w in range(1, p) if pow(w, m, p) == 1
                     and all(pow(w, e, p) != 1 for e in range(1, m)))
            out.append((p, w))
        p += m
    return out


def test_hadamard_certificate_across_several_small_primes(monkeypatch):
    # with primes below a few hundred, a rank-deficient matrix is settled only
    # once the norms of the primes used pass its Hadamard bound, which takes
    # several primes; each answer must still match the regular representation
    drawn = []

    def small(m, i):
        drawn.append(i)
        return roots[i]

    monkeypatch.setattr(_linalg, "_modular_root", small)
    rng = random.Random(5)
    primes_used = []
    for m in (3, 5, 8, 12):
        roots = _small_roots(m, 200)
        for _ in range(3):
            rows = random_field_matrix(rng, m, 4, 5, k=3)
            drawn.clear()
            r = rank(rows, order=m)
            assert euler_phi(m) * r == rank(regular_representation(m, rows))
            assert r < 4
            primes_used.append(len(set(drawn)))
    assert sum(n >= 4 for n in primes_used) >= 8, primes_used


def test_zero_cyclotomic_matrix_needs_no_prime(monkeypatch):
    def refuse(m, i):
        raise AssertionError("a prime was drawn for the zero matrix")

    monkeypatch.setattr(_linalg, "_modular_root", refuse)
    zero = (0, 0, 0, 0)
    assert rank([[zero] * 3 for _ in range(4)], order=12) == 0
    assert rank([[(0,) * 6]], order=7) == 0
    assert rank([], order=7) == 0


def test_kernel_refuses_malformed_cyclotomic_rows():
    # an entry of Z[zeta_m] is a tuple of exactly phi(m) ints: a short or a
    # long vector is refused, not cut short, and so is any other entry
    one = (1, 0, 0, 0)
    with pytest.raises(TypeError):
        echelon_insert({}, {0: one})
    with pytest.raises(TypeError):
        rank([[one, 1]])
    with pytest.raises(TypeError):
        rank([[1, one]])
    for bad in ((1, 0, 0), (1, 0, 0, 0, 0), [1, 0, 0, 0], (1, 0, 0, 0.0), (1, 0, 0, True),
                (Fraction(1), 0, 0, 0), 1):
        for rows in ([[one, bad]], [[bad, one]], [[one], [bad]]):
            with pytest.raises(TypeError):
                rank(rows, order=5)
    assert rank([[one, (0, 1, 0, 0)]], order=5) == 1