"""Resonance membership, genericity, isotropy search, and classification."""

import json
import math
import operator
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from jumploci import cli, resonance
from jumploci import (
    LaurentPoly,
    MalcevKind,
    Subspace,
    ThreeForm,
    classify_malcev,
    contraction_matrix,
    corank_of_class,
    holonomy_from_threeform,
    in_r1,
    is_generic,
    is_isotropic,
    isotropy_lower_bound,
    lie_ranks,
    r1_fullness,
    restriction_rank,
    try_divide,
    zero_vector_in_r1,
)
from jumploci._linalg import rank
from jumploci.resonance import (
    R1FullnessReport,
    _lattice,
    _pair_masks,
)

from _corpus import (
    int_det,
    isotropy_corpus,
    mat_mul,
    mat_vec,
    random_invertible_matrix,
    random_nonzero_vector,
    random_threeform,
    random_unimodular_matrix,
    random_vector,
)

VOL = ThreeForm.volume()
PROD_2 = ThreeForm.product_form(2)  # n = 5 model form
PADDED = ThreeForm(5, {(0, 1, 2): 1})  # degenerate: volume form padded to n = 5


def unit(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


class TestThreeForm:
    def test_antisymmetry_of_value(self):
        f = ThreeForm(4, {(0, 1, 2): 2, (1, 2, 3): -3})
        assert f.value(0, 1, 2) == 2
        assert f.value(1, 0, 2) == -2
        assert f.value(2, 0, 1) == 2
        assert f.value(1, 1, 2) == 0

    def test_rejects_repeated_indices(self):
        with pytest.raises(ValueError):
            ThreeForm(3, {(0, 0, 1): 1})

    def test_accumulates_to_canonical(self):
        f = ThreeForm(3, {(1, 0, 2): 1})
        assert f.value(0, 1, 2) == -1

    def test_transform_composes_with_evaluation(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.choice((3, 4, 5))
            eta = random_threeform(rng, n)
            t = random_invertible_matrix(rng, n)
            pulled = eta.transform(t)
            x, y, z = (random_vector(rng, n) for _ in range(3))
            assert pulled.evaluate(x, y, z) == eta.evaluate(
                mat_vec(t, x), mat_vec(t, y), mat_vec(t, z)
            )

    def test_transform_rejects_a_ragged_row(self):
        with pytest.raises(ValueError, match=r"3x3, got 3x2/3"):
            ThreeForm.volume().transform([[1, 0, 0], [0, 1], [0, 0, 1]])

    def test_transform_rejects_an_extra_row(self):
        with pytest.raises(ValueError, match=r"3x3, got 4x3"):
            ThreeForm.volume().transform([[1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]])

    def test_transform_rejects_a_missing_row(self):
        with pytest.raises(ValueError, match=r"3x3, got 2x3"):
            ThreeForm.volume().transform([[1, 0, 0], [0, 1, 0]])

    @staticmethod
    def _reference_pullback(eta, t):
        """eta(t_a, t_b, t_c) on each sorted triple, summed in Fractions by `_reference_pair`."""
        n = eta.n
        cols = [tuple(t[i][a] for i in range(n)) for a in range(n)]
        coeffs = {}
        for a, b, c in combinations(range(n), 3):
            val = sum(map(operator.mul, _reference_pair(eta, cols[a], cols[b]), cols[c]))
            if val:
                coeffs[(a, b, c)] = val
        return coeffs

    def test_transform_matches_reference_pullback(self):
        rng = random.Random(15)
        fractional = 0
        for trial in range(60):
            n = rng.randint(0, 7)
            eta = random_threeform(rng, n, density=rng.choice((0.2, 0.5, 1.0)))
            fractional += any(c.denominator > 1 for c in eta.coeffs.values())
            if trial % 2:
                t = random_invertible_matrix(rng, n) if n else []
            else:
                t = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
                     for _ in range(n)]
            pulled = eta.transform(t)
            ref = self._reference_pullback(eta, t)
            assert pulled.coeffs == ref
            assert list(pulled.coeffs) == list(ref)  # same canonical order
            assert all(isinstance(c, Fraction) for c in pulled.coeffs.values())
        assert fractional >= 30

    @staticmethod
    def _seeded_matrix(rng, n, kind):
        """An n x n matrix of ints, of Fractions, or of ints with a dependent last column."""
        if kind == "fraction":
            return [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n)]
        t = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if kind == "singular" and n:
            weights = [rng.randint(-2, 2) for _ in range(n - 1)]
            for row in t:
                row[-1] = sum(map(operator.mul, weights, row))
        return t

    def test_transform_matches_the_minor_kernel(self):
        rng = random.Random(16)
        for trial in range(150):
            n = trial % 10
            eta = random_threeform(rng, n, density=rng.choice((0.2, 0.5, 1.0)))
            t = self._seeded_matrix(rng, n, ("int", "fraction", "singular")[trial // 10 % 3])
            pulled = eta.transform(t).coeffs
            ref = _minor_kernel_pullback(eta, t)
            assert pulled == ref
            assert list(pulled) == list(ref)

    def test_transform_is_a_right_action(self):
        rng = random.Random(17)
        kinds = ("int", "fraction", "singular")
        for trial in range(60):
            n = rng.randint(0, 7)
            eta = random_threeform(rng, n)
            s = self._seeded_matrix(rng, n, kinds[trial % 3])
            t = self._seeded_matrix(rng, n, kinds[trial // 3 % 3])
            assert eta.transform(s).transform(t) == eta.transform(mat_mul(s, t))


def _minor_kernel_pullback(eta, t):
    """The coefficients of eta.transform(t) by a route that shares no code with A(x).

    The coefficient on (a, b, c) is the sum of mu_ijk times the 3x3 minor of
    the scaled t on rows (i, j, k) and columns (a, b, c).  Each minor is
    expanded along its first row i, and the terms sharing the trailing rows
    (j, k) combine into one weighted row sum of t.
    """
    n = eta.n
    flat, t_den = resonance._int_vec([x for row in t for x in row], n * n)
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    weighted = {}
    for (i, j, k), mu in eta._coeffs.items():
        acc = weighted.setdefault((j, k), [0] * n)
        for a, x in enumerate(m[i]):
            acc[a] += mu * x
    pairs = list(combinations(range(n), 2))
    pos = {p: q for q, p in enumerate(pairs)}
    triples = [(a, b, c, pos[b, c], pos[a, c], pos[a, b])
               for a, b, c in combinations(range(n), 3)]
    totals = [0] * len(triples)
    for (j, k), w in weighted.items():
        rj, rk = m[j], m[k]
        minor2 = [rj[b] * rk[c] - rj[c] * rk[b] for b, c in pairs]
        for q, (a, b, c, bc, ac, ab) in enumerate(triples):
            totals[q] += w[a] * minor2[bc] - w[b] * minor2[ac] + w[c] * minor2[ab]
    scale = eta._den * t_den ** 3
    return {(a, b, c): Fraction(s, scale) for (a, b, c, *_), s in zip(triples, totals) if s}


def _reference_sort_triple(i, j, k, c):
    idx = [i, j, k]
    sign = 1
    for a in range(2):
        for b in range(2 - a):
            if idx[b] > idx[b + 1]:
                idx[b], idx[b + 1] = idx[b + 1], idx[b]
                sign = -sign
    return (idx[0], idx[1], idx[2]), sign * c


def _reference_threeform(n, coeffs):
    """(`_coeffs`, `_den`) as the constructor built them with a loop per check and a bubble sort."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("dimension must be non-negative")
    clean = {}
    rational = False
    for (i, j, k), c in (coeffs or {}).items():
        if type(c) is not int:
            if isinstance(c, Fraction):
                rational = True
            elif isinstance(c, int):
                c = int(c)
            else:
                raise TypeError(f"3-form coefficients must be int or Fraction, got {c!r}")
        i, j, k = operator.index(i), operator.index(j), operator.index(k)
        if len({i, j, k}) != 3:
            raise ValueError(f"indices in a 3-form term must be distinct: {(i, j, k)}")
        if not all(0 <= t < n for t in (i, j, k)):
            raise ValueError(f"index out of range in {(i, j, k)} for dimension {n}")
        key, val = _reference_sort_triple(i, j, k, c)
        total = clean[key] + val if key in clean else val
        if total:
            clean[key] = total
        else:
            clean.pop(key, None)
    den = 1
    if rational:
        den = math.lcm(*(c.denominator for c in clean.values()))
        clean = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
    return clean, den


class TestConstructorReference:
    """The straight-line constructor stores what the loop-per-check one stored."""

    @staticmethod
    def _random_terms(rng, n):
        terms = {}
        for _ in range(rng.randint(0, 14)):
            kind = rng.choice(("int", "int", "fraction", "bool"))
            if kind == "int":
                c = rng.randint(-4, 4)
            elif kind == "fraction":
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            else:
                c = rng.random() < 0.5
            terms[tuple(rng.sample(range(n), 3))] = c  # any of the 6 orders
        for (i, j, k), c in list(terms.items())[:2]:
            terms[(j, i, k)] = c  # an odd permutation of a term: the two cancel
            terms[(k, i, j)] = c  # an even one: the same key again, adding up
        return terms

    def test_random_terms_match_reference(self):
        rng = random.Random(2024)
        orders, kinds, cancelled = set(), set(), 0
        for _ in range(400):
            n = rng.randint(3, 7)
            terms = self._random_terms(rng, n)
            eta = ThreeForm(n, terms)
            clean, den = _reference_threeform(n, terms)
            assert list(eta._coeffs.items()) == list(clean.items())
            assert eta._den == den
            orders.update(tuple(sorted(range(3), key=key.__getitem__)) for key in terms)
            kinds.update(type(c) for c in terms.values())
            cancelled += len({tuple(sorted(key)) for key in terms}) > len(clean)
        assert len(orders) == 6
        assert kinds == {int, Fraction, bool}
        assert cancelled

    @pytest.mark.parametrize("terms, exc, message", [
        ({(0, 0, 1): 1}, ValueError, "indices in a 3-form term must be distinct: (0, 0, 1)"),
        ({(0, 1, 3): 1}, ValueError, "index out of range in (0, 1, 3) for dimension 3"),
        ({(0.0, 1, 2): 1}, TypeError, "'float' object cannot be interpreted as an integer"),
        ({(0, 1, 2): "1"}, TypeError, "3-form coefficients must be int or Fraction, got '1'"),
        # each check in its order: coefficient, then indices, distinctness, range
        ({(0.0, 0, 5): "1"}, TypeError, "3-form coefficients must be int or Fraction, got '1'"),
        ({(0, 0, 2.5): 1}, TypeError, "'float' object cannot be interpreted as an integer"),
        ({(5, 5, 1): 1}, ValueError, "indices in a 3-form term must be distinct: (5, 5, 1)"),
        ({(0, 1, 2): 1, (2, 1, -1): 1}, ValueError,
         "index out of range in (2, 1, -1) for dimension 3"),
    ], ids=["repeated-index", "out-of-range", "float-index", "string-coefficient",
            "coefficient-first", "index-before-distinct", "distinct-before-range",
            "second-term"])
    def test_refusals(self, terms, exc, message):
        for build in (ThreeForm, _reference_threeform):
            with pytest.raises(exc) as info:
                build(3, terms)
            assert str(info.value) == message


def _form_json(n, terms):
    return {"n": n, "terms": [{"i": i + 1, "j": j + 1, "k": k + 1, "c": c}
                              for (i, j, k), c in terms]}


def _reference_pair(eta, x, y):
    """eta(x, y, .) summed term by term in Fractions from `coeffs`."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    out = [Fraction(0)] * eta.n
    for (a, b, c), mu in eta.coeffs.items():
        out[c] += mu * (x[a] * y[b] - x[b] * y[a])
        out[b] += mu * (x[c] * y[a] - x[a] * y[c])
        out[a] += mu * (x[b] * y[c] - x[c] * y[b])
    return tuple(out)


class TestSharedIntegerForm:
    """Each form keeps one integer coefficient vector over one denominator."""

    @staticmethod
    def _loaded_forms():
        rng = random.Random(31)
        for trial in range(40):
            n = rng.randint(3, 8)
            kind = ("int", "p/q", "p/q", "mixed")[trial % 4]
            terms = []
            for _ in range(rng.randint(0, 12)):
                triple = tuple(rng.sample(range(n), 3))  # permuted indices
                if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                    c = rng.randint(-4, 4)
                else:
                    c = f"{rng.randint(-6, 6)}/{rng.randint(1, 6)}"
                terms.append((triple, c))
            if terms and trial % 5 == 0:  # cancelling: the first term again, two indices swapped
                (i, j, k), c = terms[0]
                terms.append(((j, i, k), c))
            yield cli.threeform_from_json(_form_json(n, terms))

    def test_stored_vector_over_its_denominator_is_coeffs(self):
        seen_den = set()
        for eta in self._loaded_forms():
            den, stored = eta._den, eta._coeffs
            assert type(den) is int and den >= 1
            assert all(type(mu) is int and mu for mu in stored.values())
            assert math.gcd(den, *stored.values()) == 1
            assert {key: Fraction(mu, den) for key, mu in stored.items()} == eta.coeffs
            assert list(stored) == list(eta.coeffs)
            assert all(i < j < k for i, j, k in stored)
            seen_den.add(den > 1)
        assert seen_den == {True, False}

    def test_consumers_match_a_fraction_reference(self):
        rng = random.Random(32)
        forms = list(self._loaded_forms())
        forms += [random_threeform(rng, n) for n in (3, 5, 7)]
        for eta in forms:
            n = eta.n
            x = random_vector(rng, n)
            y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))
            assert eta.contract_pair(x, y) == _reference_pair(eta, x, y)
            assert eta.contract_pair([int(v) for v in x], y) == _reference_pair(eta, x, y)
            cols = [_reference_pair(eta, unit(n, i), y) for i in range(n)]
            a = contraction_matrix(eta, y)
            assert a == [[sum(eta.value(i, j, k) * y[k] for k in range(n)) for j in range(n)]
                         for i in range(n)]
            assert a == [[-cols[i][j] for j in range(n)] for i in range(n)]
            basis = [unit(n, i) for i in range(rng.randint(1, n))]
            basis += [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
                      for _ in range(2)]
            basis = basis if rank(basis) == len(basis) else basis[:-2]
            ref = [_reference_pair(eta, u, v) for u, v in combinations(basis, 2)]
            assert restriction_rank(eta, Subspace(n, basis)) == (rank(ref) if ref else 0)

    # (n, density, seed) -> (full, number of rank tests, the last point drawn), as
    # found by the Fraction-draw loop this replaces; the symbolic and the sampled
    # report each follow from `full`.  A full form in symbolic mode then tests
    # every point of the lattice S_k, in order, and nothing else
    FULLNESS_PINS = [
        ((5, 0.5, 1), (False, 1, (-3, 4, -4, -1, -4))),
        ((5, 0.2, 2), (True, 40, (-1, -5, -3, -3, -3))),
        ((7, 0.5, 3), (False, 1, (-2, 4, 3, -3, 0, 4, 2))),
        ((7, 0.08, 4), (True, 40, (-4, 2, 3, -1, 4, -3, -5))),
        ((9, 0.08, 6), (True, 40, (1, -2, 4, -1, -4, 2, -4, 4, -5))),
        ((11, 0.08, 7), (False, 1, (0, -3, 1, 5, -5, -4, 3, -4, 0, 4, -5))),
        ((11, 0.06, 10), (True, 40, (3, -1, -5, 5, -3, 5, 1, -2, -4, 3, 5))),
    ]

    @pytest.mark.parametrize("key, expected", FULLNESS_PINS,
                             ids=[f"n{k[0]}-s{k[2]}" for k, _ in FULLNESS_PINS])
    def test_fullness_reports_and_draws_unchanged(self, monkeypatch, key, expected):
        n, density, seed = key
        full, count, last = expected
        eta = random_threeform(random.Random(3000 + 10 * n + seed), n, density=density)
        real = resonance._integer_contraction
        drawn = []

        def recording(form, x):
            drawn.append(tuple(x))
            return real(form, x)

        monkeypatch.setattr(resonance, "_integer_contraction", recording)
        lattice = [tuple(x) for x in _lattice(n, max((n - 3) // 2, 1))]
        for threshold, report in (
            (n, R1FullnessReport(full=full, mode="symbolic", trials=40, seed=seed)),
            (n - 2, R1FullnessReport(full=full, mode="sampled", trials=40, seed=seed)),
        ):
            drawn.clear()
            assert r1_fullness(eta, symbolic_threshold=threshold, trials=40, seed=seed) == report
            on_lattice = full and report.mode == "symbolic"
            assert drawn[count:] == (lattice if on_lattice else [])
            assert (len(drawn[:count]), drawn[count - 1]) == (count, last)
            assert all(type(v) is int for x in drawn for v in x)


class TestUnimodularInvariance:
    """A GL_n(Z) change of basis leaves every invariant of the form unchanged."""

    @staticmethod
    def _invariants(eta, with_isotropy):
        verdict = classify_malcev(eta)
        full = r1_fullness(eta).full
        ranks = lie_ranks(holonomy_from_threeform(eta), 4).ranks
        isotropy = isotropy_lower_bound(eta).dimension if with_isotropy else None
        return (full, verdict.kind, verdict.genus, verdict.corank, ranks, isotropy)

    @staticmethod
    def _forms(seed):
        rng = random.Random(seed)
        # every form with n = 5 has a linear factor; at n = 7 omega ^ e_7 has one
        yield random_threeform(rng, 5), True
        yield random_threeform(rng, 5, density=0.3), True
        yield random_threeform(rng, 7, density=0.3), False
        omega = {(i, j, 6): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for i, j in combinations(range(6), 2) if rng.random() < 0.5}
        yield ThreeForm(7, {k: c for k, c in omega.items() if c}), True

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_survive_a_unimodular_change_of_basis(self, seed):
        for eta, with_isotropy in self._forms(seed):
            t = random_unimodular_matrix(random.Random(100 + seed), eta.n)
            assert abs(int_det(t)) == 1
            moved = eta.transform(t)
            assert self._invariants(moved, with_isotropy) == self._invariants(
                eta, with_isotropy), f"seed {seed}, n = {eta.n}, t = {t}"


class TestContraction:
    def test_volume_form_matrix(self):
        a = contraction_matrix(VOL, (0, 0, 1))
        assert a == [
            [0, 1, 0],
            [-1, 0, 0],
            [0, 0, 0],
        ]

    def test_zero_form(self):
        z = ThreeForm.zero(4)
        for _ in range(3):
            assert contraction_matrix(z, (1, 2, 3, 4)) == [[0] * 4 for _ in range(4)]

    def test_skew_and_kernel(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 6)
            eta = random_threeform(rng, n)
            x = random_vector(rng, n)
            a = contraction_matrix(eta, x)
            for i in range(n):
                for j in range(n):
                    assert a[i][j] == -a[j][i]
            assert all(v == 0 for v in mat_vec(a, x))

    def test_entries_are_contractions(self):
        # A(x)[i][j] = eta(e_i, e_j, x), entry by entry, for rational eta and x
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(3, 6)
            eta = random_threeform(rng, n)
            x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))
            a = contraction_matrix(eta, x)
            assert a == [[sum(eta.value(i, j, k) * x[k] for k in range(n)) for j in range(n)]
                         for i in range(n)]
            assert all(type(v) is Fraction for row in a for v in row)

    def test_symbolic_matrix_at_integer_points(self):
        # the reference's symbolic matrix, evaluated at an integer x, is the integer A(x)
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(3, 9)
            eta = random_threeform(rng, n, density=rng.choice((0.2, 0.5, 0.9)))
            entries = _symbolic_contraction(eta)
            for _ in range(3):
                x = [rng.randint(-6, 6) for _ in range(n)]
                at_x = [[sum(c * math.prod(v ** e for v, e in zip(x, exps))
                             for exps, c in p.terms.items()) for p in row] for row in entries]
                assert at_x == resonance._integer_contraction(eta, x)[0]


class TestInR1:
    def test_volume_basis_vector_not_resonant(self):
        assert not in_r1(VOL, (0, 0, 1))

    def test_even_dimension_always_resonant(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.choice((2, 4, 6))
            eta = random_threeform(rng, n)
            x = random_nonzero_vector(rng, n)
            assert in_r1(eta, x)

    def test_zero_form_resonant(self):
        z = ThreeForm.zero(3)
        assert in_r1(z, (1, 0, 0))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            in_r1(VOL, (0, 0, 0))

    def test_zero_vector_convention(self):
        assert zero_vector_in_r1(1)
        assert zero_vector_in_r1(5)
        assert not zero_vector_in_r1(0)


def _grid_generic_oracle(eta, radius=2):
    """Brute force: search a rational grid for x with rank A(x) = n - 1."""
    n = eta.n
    for x in product(range(-radius, radius + 1), repeat=n):
        if not any(x):
            continue
        if rank(contraction_matrix(eta, x)) == n - 1:
            return True
    return False


class TestFullnessAndGenericity:
    def test_volume_not_full(self):
        assert not r1_fullness(VOL).full
        assert is_generic(VOL)

    def test_even_is_full(self):
        rng = random.Random(7)
        for _ in range(20):
            eta = random_threeform(rng, 4)
            assert r1_fullness(eta).full

    def test_model_form_generic(self):
        assert is_generic(PROD_2)

    def test_padded_not_generic(self):
        assert not is_generic(PADDED)

    def test_zero_form_full(self):
        assert r1_fullness(ThreeForm.zero(3)).full

    def test_even_rejected_by_is_generic(self):
        with pytest.raises(ValueError):
            is_generic(ThreeForm.zero(4))

    def test_grid_oracle_agreement(self):
        rng = random.Random(8)
        forms = [VOL, PROD_2, PADDED, ThreeForm.zero(3), ThreeForm.zero(5)]
        forms += [random_threeform(rng, 3) for _ in range(10)]
        forms += [random_threeform(rng, 5, density=0.4, bound=2) for _ in range(5)]
        for eta in forms:
            symbolic = not r1_fullness(eta).full
            oracle = _grid_generic_oracle(eta)
            if oracle:
                # grid found a witness: the symbolic answer must see it too
                assert symbolic
            else:
                # the grid is only a heuristic witness search; at radius 2 it
                # is decisive for these small forms
                assert not symbolic

    def test_sampled_mode_report(self):
        rep = r1_fullness(PROD_2, symbolic_threshold=3, trials=100, seed=4)
        assert rep.mode == "sampled"
        assert not rep.full
        rep2 = r1_fullness(PADDED, symbolic_threshold=3, trials=50, seed=4)
        assert rep2.mode == "sampled"
        assert rep2.full
        assert rep2.trials == 50

    def test_parity_mode_report(self):
        rep = r1_fullness(ThreeForm.zero(4))
        assert rep.mode == "parity" and rep.full


def _symbolic_contraction(eta):
    """A(x) with x symbolic, times eta's common denominator: integer linear forms in x_1..x_n.

    A(x) = sum_k x_k A(e_k), so the coefficient of x_k in entry (i, j) is
    entry (i, j) of the integer A(e_k).  With `_pfaffian`, the exact expansion
    that decided fullness before the lattice test, kept as its reference.
    """
    n = eta.n
    units = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    slices = [resonance._integer_contraction(eta, u)[0] for u in units]
    return [[LaurentPoly(n, {u: a[i][j] for u, a in zip(units, slices) if a[i][j]})
             for j in range(n)] for i in range(n)]


def _pfaffian(entries, idx, memo):
    """The Pfaffian of the principal submatrix on `idx`, expanded along its first row."""
    if not idx:
        nvars = entries[0][0].num_vars if entries else 0
        return LaurentPoly.one(nvars)
    cached = memo.get(idx)
    if cached is not None:
        return cached
    i0 = idx[0]
    rest = idx[1:]
    acc = LaurentPoly.zero(entries[0][0].num_vars)
    for pos, j in enumerate(rest):
        a = entries[i0][j]
        if a.is_zero:
            continue
        term = a * _pfaffian(entries, rest[:pos] + rest[pos + 1:], memo)
        acc = acc + term if pos % 2 == 0 else acc - term
    memo[idx] = acc
    return acc


def _sub_pfaffians(eta):
    """All n principal (n-1)-sub-Pfaffians of the symbolic contraction matrix."""
    n = eta.n
    entries = _symbolic_contraction(eta)
    memo = {}
    return [_pfaffian(entries, tuple(j for j in range(n) if j != i), memo) for i in range(n)]


def _expansion_full(eta):
    """Fullness decided by expanding every sub-Pfaffian, the reference."""
    return all(pf.is_zero for pf in _sub_pfaffians(eta))


def _scrambled_product(rng, g):
    return ThreeForm.product_form(g).transform(random_invertible_matrix(rng, 2 * g + 1))


class TestWitnessFirstFullness:
    """A rank-(n-1) point settles non-fullness before the lattice is reached."""

    @staticmethod
    def _corpus():
        rng = random.Random(11)
        forms = [VOL, PROD_2, PADDED, ThreeForm.zero(5)]
        for n in (5, 7, 9):
            forms += [random_threeform(rng, n) for _ in range(2)]
            forms += [random_threeform(rng, n, density=0.08) for _ in range(3)]
        forms.append(random_threeform(rng, 11))
        forms += [random_threeform(rng, 11, density=0.08) for _ in range(3)]
        return forms

    def test_matches_expansion(self):
        forms = self._corpus()
        fulls = []
        for eta in forms:
            full = _expansion_full(eta)
            fulls.append(full)
            rep = r1_fullness(eta, symbolic_threshold=eta.n)
            assert rep == R1FullnessReport(full=full, mode="symbolic", trials=200)
        # the corpus exercises both answers, at n = 11 too
        assert True in fulls and False in fulls
        assert {eta.n for eta, f in zip(forms, fulls) if f} >= {5, 7, 9, 11}

    def test_one_sub_pfaffian_decides(self):
        # with no draws the lattice S_k alone decides; the all-n expansion is
        # the reference.  Each sub-Pfaffian is (-1)^i x_i lambda(x) for one
        # polynomial lambda, of degree (n - 3)/2 <= k
        rng = random.Random(13)
        forms = [VOL, PROD_2, PADDED, ThreeForm.zero(5)]
        for n in (3, 5, 7, 9, 11):
            forms += [random_threeform(rng, n, density=d) for d in (0.1, 0.05)]
            if n < 11:  # a dense n = 11 expansion takes seconds
                forms += [_scrambled_product(rng, n // 2), random_threeform(rng, n)]
        fulls = set()
        for eta in forms:
            n = eta.n
            pfs = _sub_pfaffians(eta)
            full = all(pf.is_zero for pf in pfs)
            fulls.add((n, full))
            report = r1_fullness(eta, symbolic_threshold=n, trials=0)
            assert report == R1FullnessReport(full=full, mode="symbolic"), eta
            quotients = [try_divide(pf, LaurentPoly.variable(n, i)) for i, pf in enumerate(pfs)]
            assert all(q == (-1) ** i * quotients[0] for i, q in enumerate(quotients)), eta
        assert {(n, f) for n in (3, 5, 7, 9, 11) for f in (True, False)} <= fulls

    def test_lattice_skipped_for_generic_forms(self, monkeypatch):
        calls = []
        real = resonance._lattice

        def counting(n, k):
            # a generator: the call is recorded when the first point is taken
            calls.append((n, k))
            yield from real(n, k)

        monkeypatch.setattr(resonance, "_lattice", counting)
        rng = random.Random(5)
        for eta in (_scrambled_product(rng, 3), _scrambled_product(rng, 4)):
            assert not r1_fullness(eta, symbolic_threshold=eta.n).full
        dense = random_threeform(rng, 11)
        assert r1_fullness(dense, symbolic_threshold=11) == R1FullnessReport(
            full=False, mode="symbolic", trials=200
        )
        assert calls == []
        assert r1_fullness(PADDED) == R1FullnessReport(full=True, mode="symbolic", trials=200)
        assert calls == [(5, 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lattice_points(self, n):
        # S_k has C(n + k - 1, k) distinct points, each non-negative with sum k
        for k in range(5):
            points = [tuple(x) for x in _lattice(n, k)]
            assert len(set(points)) == len(points) == comb(n + k - 1, k)
            assert all(len(x) == n and min(x) >= 0 and sum(x) == k for x in points)

    def test_sparse_forms_match_expansion(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def sparse_forms(draw):
            n = draw(st.sampled_from((3, 5, 7, 9)))
            triples = draw(st.lists(st.sampled_from(list(combinations(range(n), 3))),
                                    max_size=n, unique=True))
            coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                                   min_size=len(triples), max_size=len(triples)))
            return ThreeForm(n, dict(zip(triples, coeffs)))

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(sparse_forms())
        def check(eta):
            report = r1_fullness(eta, symbolic_threshold=eta.n, trials=0)
            assert report.full == _expansion_full(eta)

        check()

    def test_sampled_mode_uses_the_same_witnesses(self):
        rng = random.Random(12)
        for n in (5, 7, 9):
            for density in (0.5, 0.08):
                eta = random_threeform(rng, n, density=density)
                exact = r1_fullness(eta, symbolic_threshold=n, trials=30, seed=3)
                sampled = r1_fullness(eta, symbolic_threshold=n - 2, trials=30, seed=3)
                assert sampled == R1FullnessReport(
                    full=exact.full, mode="sampled", trials=30, seed=3
                )

    def test_classify_echoes_the_witness_draws(self, capsys, tmp_path):
        f = tmp_path / "scrambled.form"
        eta = _scrambled_product(random.Random(6), 3)
        f.write_text(json.dumps({
            "n": eta.n,
            "terms": [
                {"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c)}
                for (i, j, k), c in eta.coeffs.items()
            ],
        }))
        assert cli.main(["--seed", "7", "--trials", "40", "classify", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "ZxSurface"
        assert out["genericity_mode"] == {"mode": "symbolic", "trials": 40, "seed": 7}


class TestRestrictionRank:
    def test_zero_isotropic_plane(self):
        w = Subspace.coordinate(5, (0, 2))
        assert restriction_rank(PROD_2, w) == 0
        assert is_isotropic(PROD_2, w)

    def test_one_isotropic_plane(self):
        w = Subspace.coordinate(5, (0, 1))
        assert restriction_rank(PROD_2, w) == 1
        assert not is_isotropic(PROD_2, w)

    def test_line_is_isotropic(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 5)
            eta = random_threeform(rng, n)
            w = Subspace(n, [random_nonzero_vector(rng, n)])
            assert restriction_rank(eta, w) == 0

    def test_full_space_on_volume(self):
        w = Subspace.coordinate(3, (0, 1, 2))
        assert not is_isotropic(VOL, w)

    def test_zero_form_everything_isotropic(self):
        z = ThreeForm.zero(4)
        w = Subspace.coordinate(4, (0, 1, 2, 3))
        assert is_isotropic(z, w)

    def test_full_space_never_rank_one(self):
        rng = random.Random(10)
        for _ in range(200):
            n = rng.randint(3, 6)
            eta = random_threeform(rng, n)
            w = Subspace.coordinate(n, tuple(range(n)))
            assert restriction_rank(eta, w) != 1

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(3, [(1, 0, 0), (2, 0, 0)])

    def test_dim_zero_rejected(self):
        with pytest.raises(ValueError):
            restriction_rank(VOL, Subspace(3, ()))


class TestGLEquivariance:
    def test_rank_and_membership(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.choice((3, 4, 5))
            eta = random_threeform(rng, n)
            t = random_invertible_matrix(rng, n)
            pulled = eta.transform(t)
            x = random_nonzero_vector(rng, n)
            tx = mat_vec(t, x)
            assert rank(contraction_matrix(pulled, x)) == rank(
                contraction_matrix(eta, tx)
            )
            if any(tx):
                assert in_r1(pulled, x) == in_r1(eta, tx)

    def test_classification_invariant(self):
        rng = random.Random(13)
        forms = [VOL, PROD_2, PADDED, ThreeForm.zero(4), ThreeForm(4, {(0, 1, 2): 1})]
        for eta in forms:
            for _ in range(5):
                t = random_invertible_matrix(rng, eta.n)
                a = classify_malcev(eta)
                b = classify_malcev(eta.transform(t))
                assert (a.kind, a.rank, a.genus, a.corank, a.isotropy_index) == (
                    b.kind, b.rank, b.genus, b.corank, b.isotropy_index
                )


def _contraction_pair_masks(eta):
    n = eta.n
    bad = [0] * n
    for i, j in combinations(range(n), 2):
        if any(eta.contract_pair(unit(n, i), unit(n, j))):
            bad[i] |= 1 << j
            bad[j] |= 1 << i
    return bad


# Pinned witnesses on seeded random forms with non-integer coefficients:
# (rng seed, n, search seed) -> (dimension, method, basis).
ISOTROPY_GOLDENS = [
    ((1006, 6, 0), (2, "coordinate-subsets", ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)))),
    ((1007, 7, 1), (2, "coordinate-subsets", ((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)))),
    ((1008, 8, 2), (2, "linear-extension", ((1, 0, 0, 0, 0, 0, 0, 0),
                                            (0, Fraction(-1, 2), 0, 0, 0, 0, Fraction(-1, 3), 1)))),
    ((1009, 9, 3), (1, "coordinate-subsets", ((1, 0, 0, 0, 0, 0, 0, 0, 0),))),
]

# forms on which no coordinate subset reaches the isotropy index 2:
# (form, search seed, method, basis)
RANDOM_BASIS_GOLDENS = [
    (ThreeForm(4, {(0, 1, 2): Fraction(3, 2), (0, 1, 3): 1, (0, 2, 3): 1, (1, 2, 3): 1}),
     11, "linear-extension", ((1, 0, 0, 0), (0, Fraction(2, 3), Fraction(-2, 3), 1))),
    (ThreeForm(5, {(0, 1, 2): Fraction(1, 3), (0, 2, 4): Fraction(-2, 3), (0, 3, 4): 1,
                   (1, 2, 3): -1, (1, 2, 4): -2, (1, 3, 4): -2, (2, 3, 4): Fraction(3, 2)}),
     12, "linear-factor", ((2, 1, 0, 0, 0), (3, 0, 0, 1, 0))),
]

# isotropy_lower_bound(eta, seed=0).dimension of the previous search (coordinate
# subsets plus 25 seeded random basis changes) on `isotropy_corpus()`, in order;
# the exact search must never fall below it.
PREVIOUS_ISOTROPY_DIMS = (
    3, 3, 3, 3, 1, 1, 3, 3, 1, 1, 3, 1,  # random n = 3: densities 0.15..1.0 x seeds 0..2
    4, 2, 4, 4, 2, 4, 2, 2, 1, 1, 2, 1,  # random n = 4
    5, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1,  # random n = 5
    4, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1,  # random n = 6
    2, 3, 4, 2, 2, 4, 1, 1, 2, 1, 1, 1,  # random n = 7
    4, 3, 4, 2, 3, 2, 1, 1, 1, 1, 1, 1,  # random n = 8
    3, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1,  # random n = 9
    4, 3, 2, 2, 2, 2, 1, 2, 1, 1, 1, 1,  # random n = 10
    3, 3, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1,  # random n = 11
    4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1,  # random n = 12
    1, 1, 1, 1,  # product g = 1: standard, 3 scrambles
    2, 1, 1, 1,  # product g = 2
    3, 1, 2, 1,  # product g = 3
    4, 1, 1, 1,  # product g = 4
    5, 1, 1, 1,  # product g = 5
    0, 1, 2, 3, 4, 5, 6,  # zero n = 0..6
    1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 2, 1,  # decomposable n = 3..8, 2 each
)


class TestIsotropySearch:
    def test_pair_masks_match_contractions(self):
        rng = random.Random(16)
        for _ in range(40):
            n = rng.randint(0, 7)
            eta = random_threeform(rng, n, density=rng.choice((0.1, 0.3, 0.6)))
            pulled = eta.transform(random_invertible_matrix(rng, n) if n else [])
            for form in (eta, pulled):
                assert _pair_masks(form) == _contraction_pair_masks(form)

    @pytest.mark.parametrize("key, expected", ISOTROPY_GOLDENS,
                             ids=[f"n{k[1]}" for k, _ in ISOTROPY_GOLDENS])
    def test_golden_witnesses(self, key, expected):
        rng_seed, n, seed = key
        eta = random_threeform(random.Random(rng_seed), n)
        res = isotropy_lower_bound(eta, seed=seed)
        assert (res.dimension, res.method, res.witness.basis) == expected

    @pytest.mark.parametrize("eta, seed, method, basis", RANDOM_BASIS_GOLDENS,
                             ids=[f"n{g[0].n}" for g in RANDOM_BASIS_GOLDENS])
    def test_golden_random_basis_witnesses(self, eta, seed, method, basis):
        res = isotropy_lower_bound(eta, seed=seed)
        assert (res.dimension, res.method, res.witness.basis) == (2, method, basis)
        assert is_isotropic(eta, res.witness)

    def test_zero_form_full_dimension(self):
        res = isotropy_lower_bound(ThreeForm.zero(4), seed=0)
        assert res.dimension == 4

    def test_product_forms_reach_genus(self):
        for g in (1, 2, 3):
            eta = ThreeForm.product_form(g)
            res = isotropy_lower_bound(eta, seed=0)
            assert res.dimension == g
            assert is_isotropic(eta, res.witness)

    def test_volume_form_line_only(self):
        res = isotropy_lower_bound(VOL, seed=0)
        assert res.dimension == 1

    def test_witness_never_exceeds_corank(self):
        for eta in (ThreeForm.zero(4), VOL, PROD_2, ThreeForm.product_form(3)):
            verdict = classify_malcev(eta)
            res = isotropy_lower_bound(eta, seed=3)
            assert res.dimension <= corank_of_class(verdict)

    def test_scrambled_form_witness_verified_and_bounded(self):
        # after a basis scramble the exact index is still g = 2, and the
        # search reaches it with a verified, reproducible witness
        rng = random.Random(14)
        base = ThreeForm.product_form(2)
        t = random_invertible_matrix(rng, 5)
        eta = base.transform(t)
        res = isotropy_lower_bound(eta, seed=5)
        assert res.dimension == 2
        assert is_isotropic(eta, res.witness)
        again = isotropy_lower_bound(eta, seed=5)
        assert (again.method, again.witness.basis) == (res.method, res.witness.basis)

    @pytest.mark.parametrize("g", range(1, 6))
    def test_index_equals_corank_on_scrambled_product_forms(self, g):
        base = ThreeForm.product_form(g)
        rng = random.Random(70 + g)
        for _ in range(3):
            eta = base.transform(random_invertible_matrix(rng, 2 * g + 1))
            res = isotropy_lower_bound(eta)
            assert res.dimension == corank_of_class(classify_malcev(eta)) == g
            assert is_isotropic(eta, res.witness)

    def test_greedy_coordinate_start_above_subset_limit(self):
        # n = 13 has 2^13 > SUBSET_LIMIT coordinate subsets, so the subset
        # start is greedy; it finds the genus in standard coordinates, and
        # the linear-factor start finds it after a scramble
        base = ThreeForm.product_form(6)
        assert 2 ** base.n > resonance.SUBSET_LIMIT
        scrambled = base.transform(random_invertible_matrix(random.Random(0), base.n))
        for eta, method in ((base, "coordinate-subsets"), (scrambled, "linear-factor")):
            res = isotropy_lower_bound(eta, seed=0)
            assert (res.dimension, res.method) == (6, method)
            assert is_isotropic(eta, res.witness)

    def test_index_equals_corank_on_zero_and_volume_forms(self):
        scrambled_vol = VOL.transform(random_invertible_matrix(random.Random(3), 3))
        for eta in [ThreeForm.zero(n) for n in range(1, 8)] + [VOL, scrambled_vol]:
            res = isotropy_lower_bound(eta)
            assert res.dimension == corank_of_class(classify_malcev(eta))
            assert is_isotropic(eta, res.witness)
        assert isotropy_lower_bound(ThreeForm.zero(0)).dimension == 0

    def test_never_below_previous_search(self):
        corpus = isotropy_corpus()
        for (label, eta), previous in zip(corpus, PREVIOUS_ISOTROPY_DIMS, strict=True):
            res = isotropy_lower_bound(eta)
            assert res.dimension >= previous, label
            assert res.dimension < 2 or is_isotropic(eta, res.witness), label

    def test_linear_factor_start_is_exact(self):
        # a linear factor makes the result the isotropy index: n - 2 for a
        # decomposable form, and the corank for n <= 5 classified forms
        rng = random.Random(41)
        for n in range(3, 9):
            t = random_invertible_matrix(rng, n)
            eta = ThreeForm(n, {(0, 1, 2): 1}).transform(t)
            assert isotropy_lower_bound(eta).dimension == n - 2
        for _ in range(10):
            eta = random_threeform(rng, 5, density=0.7)
            verdict = classify_malcev(eta)
            if verdict.kind is not MalcevKind.OBSTRUCTED:
                assert isotropy_lower_bound(eta).dimension == corank_of_class(verdict)

    def test_seed_only_echoed(self):
        rng = random.Random(23)
        forms = [random_threeform(rng, n, density=0.4) for n in (5, 7, 9)]
        forms.append(ThreeForm.product_form(3).transform(random_invertible_matrix(rng, 7)))
        for eta in forms:
            results = [isotropy_lower_bound(eta, seed=seed) for seed in (0, 1, 99)]
            assert [r.seed for r in results] == [0, 1, 99]
            assert len({(r.dimension, r.method, r.witness.basis) for r in results}) == 1

    def test_no_budget_knob(self):
        assert not hasattr(resonance, "IsotropySearchBudget")
        assert not hasattr(resonance, "_random_invertible")
        with pytest.raises(TypeError):
            isotropy_lower_bound(VOL, budget=None)


class TestClassify:
    def test_free_4(self):
        c = classify_malcev(ThreeForm.zero(4))
        assert c.kind is MalcevKind.FREE
        assert c.rank == 4 and c.corank == 4 and c.isotropy_index == 4

    def test_trivial(self):
        c = classify_malcev(ThreeForm.zero(0))
        assert c.kind is MalcevKind.TRIVIAL
        assert c.corank == 0 and c.isotropy_index == 0

    def test_volume(self):
        c = classify_malcev(VOL)
        assert c.kind is MalcevKind.Z_X_SURFACE
        assert c.genus == 1 and c.corank == 1

    def test_model_form(self):
        c = classify_malcev(PROD_2)
        assert c.kind is MalcevKind.Z_X_SURFACE
        assert c.genus == 2 and c.corank == 2 and c.isotropy_index == 2

    def test_even_nonzero_obstructed(self):
        c = classify_malcev(ThreeForm(4, {(0, 1, 2): 1}))
        assert c.kind is MalcevKind.OBSTRUCTED
        assert c.reason == "even b1 with nonzero cup form"

    def test_odd_nongeneric_obstructed(self):
        c = classify_malcev(PADDED)
        assert c.kind is MalcevKind.OBSTRUCTED
        assert "non-generic" in c.reason

    def test_corank_of_class(self):
        assert corank_of_class(classify_malcev(ThreeForm.zero(7))) == 7
        assert corank_of_class(classify_malcev(ThreeForm.product_form(3))) == 3
        assert corank_of_class(classify_malcev(ThreeForm.zero(0))) == 0
        with pytest.raises(ValueError):
            corank_of_class(classify_malcev(PADDED))

    def test_corank_equals_isotropy_index(self):
        for eta in (ThreeForm.zero(4), ThreeForm.zero(0), VOL, PROD_2):
            c = classify_malcev(eta)
            assert c.corank == c.isotropy_index

    def test_fullness_computed_once(self, monkeypatch):
        calls = []
        real = resonance.r1_fullness

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(resonance, "r1_fullness", counting)
        # also catch a second call made through a name imported into the CLI
        monkeypatch.setattr(cli, "r1_fullness", counting, raising=False)
        out = cli.run_classify(PROD_2, cli.RunConfig())
        assert len(calls) == 1
        assert out["genericity_mode"] == {"mode": "symbolic", "trials": 100, "seed": 0}

    def test_fullness_report_attached(self):
        c = classify_malcev(PADDED)
        assert c.fullness == r1_fullness(PADDED)
        assert classify_malcev(VOL).fullness is None
        # the report takes no part in equality of verdicts
        assert c == replace(c, fullness=None)
