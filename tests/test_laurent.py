"""Laurent ring arithmetic, normalization, gcd, and cyclotomic evaluation."""

import random
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import pytest

from jumploci import laurent
from jumploci import (
    Character,
    LaurentPoly,
    cyclotomic_polynomial,
    euler_phi,
    evaluate,
    fold,
    gcd_all,
    normalize_unit,
    poly_to_string,
    try_divide,
)

from _corpus import field_add, field_mul, random_poly, random_unit_monomial


def t(n=1, i=0):
    return LaurentPoly.variable(n, i)


def _int_poly_divexact(a, b):
    """Exact division of integer coefficient lists (ascending powers)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c % b[-1]:
            raise ArithmeticError("not exactly divisible")
        q[i] = c // b[-1]
        for j, bc in enumerate(b):
            a[i + j] -= q[i] * bc
    if any(a):
        raise ArithmeticError("not exactly divisible")
    return q


@lru_cache(maxsize=None)
def _recursive_cyclotomic(m):
    """Reference Phi_m: x^m - 1 divided by every Phi_d with d | m, d < m, by long division."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _int_poly_divexact(poly, list(_recursive_cyclotomic(d)))
    return tuple(poly)


class TestRingOps:
    def test_additive_inverse(self):
        t2 = LaurentPoly.variable(2, 1)
        assert (1 - t2) + (t2 - 1) == LaurentPoly.zero(2)

    def test_difference_of_squares(self):
        x = t()
        assert (x - 1) * (x + 1) == x * x - 1

    def test_unit_cancellation(self):
        x_inv = LaurentPoly.monomial(1, (-1,))
        assert x_inv * t() == LaurentPoly.one(1)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            t(1) + t(2)
        with pytest.raises(ValueError):
            t(1) * t(2)

    def test_ring_laws_random(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(0, 3)
            a, b, c = (random_poly(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + LaurentPoly.zero(n) == a
            assert a * LaurentPoly.one(n) == a
            assert a + (-a) == LaurentPoly.zero(n)

    def test_canonical_no_zero_terms(self):
        p = LaurentPoly(1, {(0,): 3, (1,): 0})
        assert (0,) not in dict(p.terms).values()
        assert all(c != 0 for c in p.terms.values())


class TestNormalizeUnit:
    def test_monomial_unit_associate(self):
        # -t1^-1 t2 (t1 - 1) = -t2 + t1^-1 t2, an associate of t1 - 1
        t1 = LaurentPoly.variable(2, 0)
        t2 = LaurentPoly.variable(2, 1)
        u = LaurentPoly.monomial(2, (-1, 1), -1)
        assert normalize_unit(u * (t1 - 1)) == t1 - 1

    def test_already_normal(self):
        x = t()
        p = x * x - x + 1
        assert normalize_unit(p) == p

    def test_zero(self):
        assert normalize_unit(LaurentPoly.zero(3)) == LaurentPoly.zero(3)

    def test_idempotent_and_unit_invariant(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 3)
            p = random_poly(rng, n)
            u = random_unit_monomial(rng, n)
            assert normalize_unit(u * p) == normalize_unit(p)
            assert normalize_unit(normalize_unit(p)) == normalize_unit(p)


POOL_1V = None
POOL_2V = None


def _pools():
    global POOL_1V, POOL_2V
    if POOL_1V is None:
        x = t()
        POOL_1V = [x - 1, x + 1, x * x + 1, x * x - x + 1, x - 2]
        t1 = LaurentPoly.variable(2, 0)
        t2 = LaurentPoly.variable(2, 1)
        POOL_2V = [t1 - 1, t2 - 1, t1 + 1, t1 * t2 - 1, t1 - t2]
    return POOL_1V, POOL_2V


def _enumerate_divisor_candidates(pool, contents=(1, 2, 3, 4)):
    """All products of pool subsets times an integer content (brute force)."""
    n = pool[0].num_vars
    for c in contents:
        for size in range(len(pool) + 1):
            for subset in combinations(pool, size):
                d = LaurentPoly.constant(n, c)
                for f in subset:
                    d = d * f
                yield d


class TestGcd:
    def test_coprime_linear_factors(self):
        t1 = LaurentPoly.variable(2, 0)
        t2 = LaurentPoly.variable(2, 1)
        # witnesses: each evaluates to zero where the other does not
        chi_a = Character(3, (0, 1))
        chi_b = Character(3, (1, 0))
        assert not any(evaluate(t1 - 1, chi_a))
        assert any(evaluate(1 - t2, chi_a))
        assert not any(evaluate(1 - t2, chi_b))
        assert any(evaluate(t1 - 1, chi_b))
        assert gcd_all([1 - t2, t1 - 1]) == LaurentPoly.one(2)

    def test_single_element(self):
        x = t()
        p = x * x - x + 1
        assert gcd_all([p]) == p

    def test_integer_content_retained(self):
        x = t()
        assert gcd_all([2 * (x - 1), 4 * (x - 1) ** 2]) == 2 * (x - 1)

    def test_all_zero(self):
        assert gcd_all([LaurentPoly.zero(2), LaurentPoly.zero(2)]) == LaurentPoly.zero(2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gcd_all([])

    def test_divides_inputs(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 2)
            ps = [random_poly(rng, n) for _ in range(rng.randint(1, 3))]
            g = gcd_all(ps)
            if g.is_zero:
                assert all(p.is_zero for p in ps)
                continue
            for p in ps:
                assert try_divide(p, g) is not None

    def test_order_independent(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 2)
            common = random_poly(rng, n, max_terms=3)
            ps = [common * random_poly(rng, n) for _ in range(rng.randint(2, 5))]
            ps.append(LaurentPoly.zero(n))
            expected = gcd_all(ps)
            for _ in range(3):
                rng.shuffle(ps)
                assert gcd_all(ps) == expected
                # splitting the list anywhere gives the same gcd
                i = rng.randint(1, len(ps) - 1)
                assert gcd_all([gcd_all(ps[:i]), gcd_all(ps[i:])]) == expected

    def test_unit_stops_early(self, monkeypatch):
        x = t()
        big = (x - 1) ** 40 * (x + 2) ** 40
        seen = []
        real = laurent._poly_gcd

        def spy(a, b, n):
            seen.append((a, b))
            return real(a, b, n)

        monkeypatch.setattr(laurent, "_poly_gcd", spy)
        assert gcd_all([big, LaurentPoly.constant(1, -1)]) == LaurentPoly.one(1)
        assert seen and all(len(a) <= 1 and len(b) <= 1 for a, b in seen)

    @pytest.mark.parametrize("num_vars", [1, 2])
    def test_product_property_with_divisor_oracle(self, num_vars):
        pool1, pool2 = _pools()
        pool = pool1 if num_vars == 1 else pool2
        rng = random.Random(17 + num_vars)
        half = len(pool) // 2
        pool_q, pool_r = pool[:half], pool[half:]
        for _ in range(12):
            q = LaurentPoly.one(num_vars)
            for f in pool_q:
                if rng.random() < 0.6:
                    q = q * f
            r = LaurentPoly.one(num_vars)
            for f in pool_r:
                if rng.random() < 0.6:
                    r = r * f
            p = LaurentPoly.constant(num_vars, rng.choice((1, 2, 3)))
            for f in pool:
                if rng.random() < 0.4:
                    p = p * f
            assert gcd_all([q, r]) == LaurentPoly.one(num_vars)
            g = gcd_all([p * q, p * r])
            assert g == normalize_unit(p)
            # brute-force oracle: every enumerated common divisor divides g
            assert try_divide(p * q, g) is not None and try_divide(p * r, g) is not None
            for d in _enumerate_divisor_candidates(pool):
                if try_divide(p * q, d) is not None and try_divide(p * r, d) is not None:
                    assert try_divide(g, d) is not None


class TestDivision:
    def test_try_divide_roundtrip(self):
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 2)
            a = random_poly(rng, n)
            b = random_poly(rng, n)
            if b.is_zero:
                continue
            q = try_divide(a * b, b)
            assert q is not None
            assert q * b == a * b

    def test_non_divisible(self):
        x = t()
        assert try_divide(x + 1, x - 1) is None


class TestCyclotomic:
    def test_small_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_phi(self):
        assert [euler_phi(m) for m in (1, 2, 3, 4, 5, 6, 8, 12)] == [1, 1, 2, 2, 4, 2, 4, 4]

    def test_phi_counts_the_residues_prime_to_m(self):
        for m in range(1, 501):
            assert euler_phi(m) == sum(gcd(k, m) == 1 for k in range(m)), m

    def test_matches_the_recursive_construction(self):
        """The Moebius product equals x^m - 1 divided by every Phi_d, d | m, d < m."""
        for m in [*range(1, 301), 720, 840, 960, 1008, 1020, 1024]:
            phi_m = cyclotomic_polynomial(m)
            assert phi_m == _recursive_cyclotomic(m), m
            assert phi_m[-1] == 1 and len(phi_m) == euler_phi(m) + 1, m
            assert all(type(c) is int for c in phi_m), m

    def test_matches_sympy_at_large_orders(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(47)
        for m in [3960, 4096, *rng.sample(range(1025, 4097), 8)]:
            want = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="ZZ").all_coeffs()[::-1]
            assert cyclotomic_polynomial(m) == tuple(int(c) for c in want), m

    def test_root_power_order(self):
        # t -> zeta_m: t^k - 1 vanishes exactly when m divides k
        for m in (1, 2, 3, 4, 5, 6, 8, 12):
            for k in range(3 * m):
                assert any(evaluate(t() ** k - 1, Character(m, (1,)))) == (k % m != 0)


class TestEvaluate:
    def test_identity_character(self):
        assert evaluate(t() - 1, Character(1, (0,))) == (0,)

    def test_zeta6_root(self):
        x = t()
        assert evaluate(x * x - x + 1, Character(6, (1,))) == (0, 0)

    def test_minus_one(self):
        t2 = LaurentPoly.variable(2, 1)
        v = evaluate(1 - t2, Character(2, (0, 1)))
        assert v == (2,)

    def test_ring_homomorphism(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 3)
            p = random_poly(rng, n)
            q = random_poly(rng, n)
            m = rng.choice((2, 3, 4, 6, 8, 12))
            chi = Character(m, tuple(rng.randrange(m) for _ in range(n)))
            assert evaluate(p * q, chi) == field_mul(m, evaluate(p, chi), evaluate(q, chi))
            assert evaluate(p + q, chi) == field_add(evaluate(p, chi), evaluate(q, chi))

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            Character(0, (1,))

    def test_exponent_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(t(), Character(3, (1, 0)))

    def test_matches_sympy_remainder(self):
        """evaluate(p, chi) is the remainder of p(zeta -> x) modulo Phi_m, by sympy.

        The value is a tuple of exactly phi(m) ints: the remainder's
        coefficients, ascending, padded with zeros.
        """
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(41)
        for m in range(1, 61):
            phi_m = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="ZZ")
            for n in range(1, 5):
                p = random_poly(rng, n, max_terms=6, exp_bound=3, coeff_bound=9)
                chi = Character(m, tuple(rng.randint(-m, m) for _ in range(n)))
                ks = {e: sum(a * b for a, b in zip(e, chi.exponents)) for e in p.terms}
                # x^m = 1 modulo Phi_m, so a shift by a multiple of m clears
                # the negative powers without changing the class
                shift = m * -(min(ks.values(), default=0) // m)
                image = sum((c * x ** (ks[e] + shift) for e, c in p.terms.items()), sympy.S(0))
                rem = sympy.Poly(image, x, domain="ZZ").rem(phi_m).all_coeffs()[::-1]
                want = tuple(int(c) for c in rem)
                want += (0,) * (euler_phi(m) - len(want))
                value = evaluate(p, chi)
                assert type(value) is tuple and len(value) == euler_phi(m), (p, chi)
                assert all(type(c) is int for c in value), (p, chi)
                assert value == want, (p, chi)


class TestIntegerReduction:
    def test_integer_input_stays_integer(self):
        rng = random.Random(43)
        for m in range(1, 61):
            coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 3 * m))]
            r = laurent._reduce_mod_cyclotomic(m, coeffs)
            assert type(r) is tuple and len(r) == euler_phi(m)
            assert all(type(c) is int for c in r)
            # coeffs - r is an exact multiple of Phi_m, so r is the remainder
            padded = coeffs + [0] * (len(r) - len(coeffs))
            diff = [c - (r[i] if i < len(r) else 0) for i, c in enumerate(padded)]
            _int_poly_divexact(diff, cyclotomic_polynomial(m))

    def test_evaluate_sums_integers_before_the_element(self, monkeypatch):
        seen = []
        real = laurent._reduce_mod_cyclotomic

        def spy(order, coeffs):
            seen.append(list(coeffs))
            return real(order, coeffs)

        monkeypatch.setattr(laurent, "_reduce_mod_cyclotomic", spy)
        p = LaurentPoly(1, {(7,): 1, (-2,): -3, (0,): 5})
        # 5 - 3 zeta + zeta^4, and zeta^4 = -1 - zeta - zeta^2 - zeta^3
        assert evaluate(p, Character(5, (2,))) == (4, -4, -1, -1)
        assert seen and all(type(c) is int for coeffs in seen for c in coeffs)


class TestFold:
    def test_fold_agrees_at_every_character_of_order_m(self):
        """Exhaustive over all characters of order m <= 12 on (C*)^1 and (C*)^2."""
        rng = random.Random(47)
        for n in (1, 2):
            for _ in range(3):
                p = random_poly(rng, n, max_terms=8, exp_bound=40, coeff_bound=9)
                for m in range(1, 13):
                    f = fold(p, m)
                    assert all(0 <= e < m for exps in f.terms for e in exps)
                    for exps in product(range(m), repeat=n):
                        chi = Character(m, exps)
                        assert evaluate(f, chi) == evaluate(p, chi), (p, m, exps)

    def test_fold_combines_and_cancels_terms(self):
        p = LaurentPoly(1, {(5,): 1, (-1,): -1, (3,): 2, (0,): 4})
        assert fold(p, 4) == LaurentPoly(1, {(3,): 1, (1,): 1, (0,): 4})
        assert fold(p, 3) == fold(p, 1) == LaurentPoly.constant(1, 6)
        assert fold(LaurentPoly.zero(2), 4).is_zero

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            fold(t(), 0)


class TestTextForm:
    def test_frozen_strings(self):
        x = t()
        assert poly_to_string(x * x - x + 1) == "t^2 - t + 1"
        assert poly_to_string(LaurentPoly.zero(2)) == "0"
        t1 = LaurentPoly.variable(2, 0)
        t2_inv = LaurentPoly.monomial(2, (0, -1))
        assert poly_to_string(2 * t1 * t1 * t2_inv - t1 + 3) == "2*t1^2*t2^-1 - t1 + 3"

    def test_roundtrip_random(self):
        """sympy reads the printed form back as the same polynomial."""
        sympy = pytest.importorskip("sympy")
        names = sympy.symbols("t t1 t2 t3")
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(1, 3)
            p = random_poly(rng, n)
            syms = names[:1] if n == 1 else names[1:n + 1]
            read = sympy.sympify(poly_to_string(p).replace("^", "**"),
                                 locals={str(x): x for x in syms})
            built = sympy.Add(*(c * sympy.Mul(*(x ** e for x, e in zip(syms, exps)))
                                for exps, c in p.terms.items()))
            assert sympy.expand(read - built) == 0, p
