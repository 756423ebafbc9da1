"""Holonomy Lie algebra ranks against Witt-formula and bracket-closure oracles."""

import hashlib
import random
import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from jumploci import (
    QuadraticData,
    ThreeForm,
    holonomy_from_threeform,
    lie_ranks,
    lyndon_words,
    wedge_basis,
)
from jumploci import holonomy
from jumploci._linalg import echelon_insert, rank
from jumploci.seifert import LimitError

from _corpus import random_threeform


# -- independent oracles -------------------------------------------------------

def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(n, d):
    """Number of degree-d basis elements of the free Lie algebra on n letters."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(d // e) * n ** e
    return total // d


def one_relator_rank(n, d):
    """Degree-d rank of a one-relator quadratic Lie algebra on n generators.

    From prod_d (1 - t^d)^phi_d = 1 - n t + t^2 (Labute 1985): the power
    sums p_m = a^m + b^m of the roots (a + b = n, ab = 1) satisfy
    sum_{e | m} e phi_e = p_m, so phi_d is their Moebius inversion.
    """
    p = [2, n]
    while len(p) <= d:
        p.append(n * p[-1] - p[-2])
    total = sum(_mobius(d // e) * p[e] for e in range(1, d + 1) if d % e == 0)
    return total // d


def surface_lcs_rank(g, d):
    """Rank of the d-th LCS quotient of the genus-g surface group (d >= 2)."""
    return one_relator_rank(2 * g, d)


def _tensor_bracket(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for w, c in ((wa + wb, ca * cb), (wb + wa, -ca * cb)):
                s = out.get(w, 0) + c
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
    return out


def _closure_ideal_dimension(n, relation_vecs, d):
    """Brute force: span of all bracketings of a relation with generators.

    Enumerates every binary bracket tree of total degree d having exactly one
    relation leaf, in every position, rather than only left-normed towers.
    """
    pairs = wedge_basis(n)
    gens = [{(i,): 1} for i in range(n)]
    rel_tensors = []
    for vec in relation_vecs:
        t = {}
        for (i, j), c in zip(pairs, vec):
            if c:
                for w, v in (((i, j), c), ((j, i), -c)):
                    t[w] = t.get(w, 0) + v
        rel_tensors.append({k: v for k, v in t.items() if v})

    def lie_elements(e):
        if e == 1:
            return gens
        out = []
        for a in range(1, e):
            for x in lie_elements(a):
                for y in lie_elements(e - a):
                    b = _tensor_bracket(x, y)
                    if b:
                        out.append(b)
        return out

    def ideal_elements(e):
        if e == 2:
            return list(rel_tensors)
        out = []
        for a in range(1, e - 1):
            for x in lie_elements(a):
                for y in ideal_elements(e - a):
                    b = _tensor_bracket(x, y)
                    if b:
                        out.append(b)
        return out

    vectors = ideal_elements(d)
    if not vectors:
        return 0
    keys = sorted({w for v in vectors for w in v})
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors]
    return rank(rows)


def _reference_ad_generator(i, vec):
    out = {}
    for w, c in vec.items():
        for key, val in (((i,) + w, c), (w + (i,), -c)):
            s = out.get(key, 0) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def reference_lie_ranks(q, up_to):
    """The same elimination keyed by tuple words, as `lie_ranks` ran before words became ints."""
    n = q.n
    ranks = [n]
    pairs = wedge_basis(n)
    basis, rows = {}, []
    for r in q.relations:
        den = lcm(*(c.denominator for c in r))
        vec = {p: c.numerator * (den // c.denominator) for p, c in zip(pairs, r) if c}
        if echelon_insert(basis, vec) is not None and up_to > 2:
            rows.append({**vec, **{(j, i): -c for (i, j), c in vec.items()}})
    for d in range(2, up_to + 1):
        if d > 2:
            lyndon = set(lyndon_words(n, d)) if rows else ()
            prev, basis, rows = rows, {}, []
            for b in prev:
                for i in range(n):
                    v = _reference_ad_generator(i, b)
                    coords = {w: c for w, c in v.items() if w in lyndon}
                    if echelon_insert(basis, coords) is not None and d < up_to:
                        rows.append(v)
        ranks.append(witt_dimension(n, d) - len(basis))
    return tuple(ranks)


# -- tests ----------------------------------------------------------------------

class TestLyndon:
    def test_counts_match_witt(self):
        for n in (2, 3, 4):
            for d in range(1, 7):
                assert len(lyndon_words(n, d)) == witt_dimension(n, d) == holonomy._witt(n, d)

    def test_witt_at_three_prime_factors(self):
        # 30 = 2*3*5 and 42 = 2*3*7: eight squarefree divisors, four of each sign of mu
        for n in range(1, 6):
            for d in (30, 42):
                assert holonomy._witt(n, d) == witt_dimension(n, d), (n, d)

    def test_explicit_words(self):
        assert lyndon_words(2, 1) == [(0,), (1,)]
        assert lyndon_words(2, 2) == [(0, 1)]
        assert lyndon_words(2, 3) == [(0, 0, 1), (0, 1, 1)]

    def test_lexicographic_order_matches_brute_force(self):
        # a Lyndon word is smaller than every proper rotation of itself, and
        # product() lists the words in lexicographic order
        for n in range(1, 4):
            for d in range(1, 7):
                brute = [w for w in product(range(n), repeat=d)
                         if all(w < w[k:] + w[:k] for k in range(1, d))]
                assert lyndon_words(n, d) == brute, (n, d)


class TestFreeRanks:
    def test_free_n2_through_degree_5(self):
        q = QuadraticData(2, ())
        assert lie_ranks(q, 5).ranks == (2, 1, 2, 3, 6)

    def test_free_matches_witt(self):
        for n in (2, 3, 4):
            q = QuadraticData(n, ())
            ranks = lie_ranks(q, 6).ranks
            assert ranks == tuple(witt_dimension(n, d) for d in range(1, 7))


class TestQuotients:
    def test_z2_ranks(self):
        q = QuadraticData(2, ((Fraction(1),),))
        assert lie_ranks(q, 4).ranks == (2, 0, 0, 0)

    def test_z2_matches_closure_oracle(self):
        rel = (Fraction(1),)
        q = QuadraticData(2, (rel,))
        ranks = lie_ranks(q, 4).ranks
        for d in range(2, 5):
            ideal_dim = _closure_ideal_dimension(2, [rel], d)
            assert ranks[d - 1] == witt_dimension(2, d) - ideal_dim

    def test_surface_genus_2_degree_2(self):
        sym = [Fraction(0)] * 6
        pairs = wedge_basis(4)
        sym[pairs.index((0, 1))] = Fraction(1)
        sym[pairs.index((2, 3))] = Fraction(1)
        q = QuadraticData(4, (tuple(sym),))
        assert lie_ranks(q, 2).ranks[1] == 5

    def test_random_quotients_match_closure_oracle(self):
        rng = random.Random(71)
        cases = [(rng.choice((2, 3)), 4, 1) for _ in range(10)] + [(4, 5, 4)] * 2
        for n, top, den in cases:
            m = n * (n - 1) // 2
            rels = []
            for _ in range(rng.randint(1, 2)):
                vec = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, den)) for _ in range(m))
                if any(vec):
                    rels.append(vec)
            if not rels:
                continue
            q = QuadraticData(n, tuple(rels))
            ranks = lie_ranks(q, top).ranks
            for d in range(2, top + 1):
                ideal_dim = _closure_ideal_dimension(n, rels, d)
                assert ranks[d - 1] == witt_dimension(n, d) - ideal_dim

    def test_monotone_under_extra_relations(self):
        rng = random.Random(72)
        for _ in range(10):
            n = rng.choice((2, 3))
            m = n * (n - 1) // 2
            base_rels = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))]
            extra = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
            smaller = lie_ranks(QuadraticData(n, tuple(base_rels)), 5).ranks
            larger = lie_ranks(QuadraticData(n, tuple(base_rels + [extra])), 5).ranks
            assert all(b <= a for a, b in zip(smaller, larger))

    def test_respanning_invariance(self):
        rng = random.Random(73)
        pairs = wedge_basis(3)
        rels = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in pairs) for _ in range(2)
        ]
        q1 = QuadraticData(3, tuple(rels))
        # replace the relations by an invertible combination of themselves
        a, b, c, d = Fraction(1), Fraction(2), Fraction(1), Fraction(3)  # det = 1
        mixed = [
            tuple(a * x + b * y for x, y in zip(rels[0], rels[1])),
            tuple(c * x + d * y for x, y in zip(rels[0], rels[1])),
        ]
        q2 = QuadraticData(3, tuple(mixed))
        assert lie_ranks(q1, 5).ranks == lie_ranks(q2, 5).ranks


class TestOneRelator:
    DEGREES = {2: 6, 3: 6, 4: 6, 5: 6, 6: 5, 7: 5}

    def test_one_relation_gives_labute_ranks(self):
        rng = random.Random(77)
        for n, top in self.DEGREES.items():
            pairs = wedge_basis(n)
            cases = [tuple(Fraction(rng.randint(-3, 3)) for _ in pairs) for _ in range(2)]
            for _ in range(2):
                bracket = [Fraction(0)] * len(pairs)
                bracket[rng.randrange(len(pairs))] = Fraction(rng.choice((-2, 1, 3)))
                cases.append(tuple(bracket))
            for rel in cases:
                assert any(rel)
                ranks = lie_ranks(QuadraticData(n, (rel,)), top).ranks
                assert ranks == tuple(one_relator_rank(n, d) for d in range(1, top + 1)), rel

    def test_dense_relation_on_seven_generators_at_degree_6(self):
        ranks = lie_ranks(QuadraticData(7, ((1,) * 21,)), 6).ranks
        assert ranks == (7, 20, 105, 540, 3024, 17220)
        assert ranks == tuple(one_relator_rank(7, d) for d in range(1, 7))


class TestIntegerCodes:
    """Base-n word codes give the ranks that tuple words gave."""

    @staticmethod
    def _random_relations(rng, n, dense, fractions):
        pairs = wedge_basis(n)
        rels = []
        for _ in range(rng.randint(1, 3)):
            rel = [0] * len(pairs)
            support = range(len(pairs))
            for idx in (support if dense else rng.sample(support, min(2, len(support)))):
                rel[idx] = rng.randint(-3, 3)
            if fractions:
                rel = [Fraction(c, rng.randint(1, 4)) for c in rel]
            rels.append(tuple(rel))
        return QuadraticData(n, tuple(rels))

    def test_codes_increase_with_the_words(self):
        for n in range(1, 5):
            for d in range(1, 7):
                codes = holonomy._lyndon_codes(n, d)
                assert codes == [sum(x * n ** (d - 1 - k) for k, x in enumerate(w))
                                 for w in lyndon_words(n, d)]
                assert all(a < b for a, b in zip(codes, codes[1:])), (n, d)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_random_relations_match_tuple_reference(self, n):
        rng = random.Random(80 + n)
        for dense in (False, True):
            for fractions in (False, True):
                for _ in range(2):
                    q = self._random_relations(rng, n, dense, fractions)
                    assert lie_ranks(q, 5).ranks == reference_lie_ranks(q, 5), q

    def test_product_forms_match_tuple_reference(self):
        for g in (1, 2, 3):
            q = holonomy_from_threeform(ThreeForm.product_form(g))
            assert lie_ranks(q, 5).ranks == reference_lie_ranks(q, 5)

    def test_zero_and_one_generator(self):
        # base 0 and base 1 codes degenerate: no words, or one word per length
        for n in (0, 1):
            q = QuadraticData(n, ((),) if n == 1 else ())
            for top in (1, 2, 5):
                assert lie_ranks(q, top).ranks == reference_lie_ranks(q, top)
            assert lie_ranks(q, 5).ranks == (n, 0, 0, 0, 0)


class TestLyndonProjection:
    """The one-pass Lyndon coordinates of [e_i, b] equal the filtered full bracket."""

    @staticmethod
    def _filtered(i, b, n, size, lyndon):
        return {w: c for w, c in holonomy._ad_generator(i, b, n, size).items() if w in lyndon}

    @staticmethod
    def _colliding_row(rng, i, n, size):
        """A random row with pairs w, w' whose images (i, w) = (w', i) meet."""
        coeffs = (-3, -2, -1, 1, 2, 3)
        b = {w: rng.choice(coeffs) for w in rng.sample(range(size), min(size, 12))}
        for _ in range(3):
            w = rng.randrange(size // n) * n + i  # ends in i
            other = i * (size // n) + w // n  # i followed by w without its last letter
            c = rng.choice(coeffs)
            b[w] = c
            b[other] = c if rng.random() < 0.5 else rng.choice(coeffs)
        return b

    @pytest.mark.parametrize("n", range(1, 5))
    def test_random_rows_match_filtered_bracket(self, n):
        rng = random.Random(240 + n)
        cancelled = 0
        for d in range(3, 7):
            size = n ** (d - 1)
            lyndon = set(holonomy._lyndon_codes(n, d))
            for _ in range(40):
                i = rng.randrange(n)
                b = self._colliding_row(rng, i, n, size)
                full = holonomy._ad_generator(i, b, n, size)
                cancelled += sum(i * size + w not in full for w in b)
                got = holonomy._ad_lyndon(i, b, n, size, lyndon)
                assert got == self._filtered(i, b, n, size, lyndon), (n, d, i, b)
                assert all(got.values())
        assert cancelled  # the full bracket did cancel entries that the projection never meets

    def test_one_generator_cancels_everything(self):
        # over one letter the two images of a word coincide and cancel
        assert holonomy._ad_generator(0, {0: 5}, 1, 1) == {}
        for d in (2, 3, 6):
            lyndon = set(holonomy._lyndon_codes(1, d))
            assert lyndon == set()
            assert holonomy._ad_lyndon(0, {0: 5}, 1, 1, lyndon) == {}

    @staticmethod
    def _count_full_brackets(monkeypatch):
        built = []
        ad_generator = holonomy._ad_generator

        def counted(*args):
            built.append(args)
            return ad_generator(*args)

        monkeypatch.setattr(holonomy, "_ad_generator", counted)
        return built

    @pytest.mark.parametrize("up_to", [2, 3])
    def test_no_full_bracket_at_the_top_degree(self, monkeypatch, up_to):
        built = self._count_full_brackets(monkeypatch)
        for g in (1, 2, 3):
            q = holonomy_from_threeform(ThreeForm.product_form(g))
            assert lie_ranks(q, up_to).ranks == reference_lie_ranks(q, up_to)
        rng = random.Random(31)
        for n in (0, 1, 2, 4):
            relations = tuple(tuple(rng.randint(-2, 2) for _ in wedge_basis(n)) for _ in range(2))
            q = QuadraticData(n, relations)
            assert lie_ranks(q, up_to).ranks == reference_lie_ranks(q, up_to)
        assert built == []

    def test_full_brackets_only_for_independent_rows(self, monkeypatch):
        built = self._count_full_brackets(monkeypatch)
        q = holonomy_from_threeform(ThreeForm.product_form(3))
        ranks = lie_ranks(q, 5).ranks
        assert ranks == reference_lie_ranks(q, 5)
        # one full bracket per independent bracket of degree 3 and 4
        assert len(built) == sum(witt_dimension(7, d) - ranks[d - 1] for d in (3, 4))


class TestDimensionLimit:
    def test_witt_formula_counts_lyndon_words(self, monkeypatch):
        for n in range(6):
            for d in range(1, 8):
                assert holonomy._witt(n, d) == len(lyndon_words(n, d)), (n, d)
        # the ranks no longer list the words
        monkeypatch.setattr(holonomy, "lyndon_words", None)
        assert lie_ranks(QuadraticData(10, ()), 5).ranks[-1] == 19998

    def test_refused_before_any_work(self):
        # 300 letters give about 2 * 10^9 Lyndon words of length 4
        with pytest.raises(LimitError, match="MAX_LIE_DIMENSION"):
            lie_ranks(QuadraticData(300, ()), 4)
        with pytest.raises(LimitError, match="dimension 32208 in degree 5"):
            lie_ranks(QuadraticData(11, ()), 5)
        assert holonomy._witt(7, 6) == 19544 <= holonomy.MAX_LIE_DIMENSION


class TestDegreeCap:
    def test_cap_enforced(self):
        q = QuadraticData(2, ())
        with pytest.raises(ValueError):
            lie_ranks(q, 7)
        assert lie_ranks(q, 7, degree_cap=7).ranks[6] == witt_dimension(2, 7)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            lie_ranks(QuadraticData(2, ()), 0)


class TestFromThreeForm:
    def test_zero_form_gives_free(self):
        q = holonomy_from_threeform(ThreeForm.zero(2))
        assert q.relations == ()
        assert lie_ranks(q, 4).ranks == (2, 1, 2, 3)

    def test_torus_form_kills_degree_two(self):
        q = holonomy_from_threeform(ThreeForm.volume())
        assert len(q.relations) == 3
        assert lie_ranks(q, 4).ranks == (3, 0, 0, 0)

    def test_surface_direction_relation(self):
        for g in (1, 2, 3):
            eta = ThreeForm.product_form(g)
            n = eta.n
            q = holonomy_from_threeform(eta)
            pairs = wedge_basis(n)
            surface_pairs = [idx for idx, (i, j) in enumerate(pairs) if j < 2 * g]
            sym = [Fraction(0)] * len(pairs)
            for i in range(g):
                sym[pairs.index((2 * i, 2 * i + 1))] = Fraction(1)
            rows = [list(r) for r in q.relations]
            # the symplectic class lies in the relation span
            assert rank(rows) == rank(rows + [sym])
            # and spans exactly the part supported in the surface directions
            supported = [
                r for r in rows if all(r[idx] == 0 for idx in range(len(pairs))
                                       if idx not in surface_pairs)
            ]
            assert len(supported) == 1
            scaled = supported[0]
            ratio = next(c for c in scaled if c)
            assert [Fraction(c, ratio) for c in scaled] == sym

    def test_relation_count_for_product_forms(self):
        # contractions of the product form span a space of dimension 2g + 1
        for g in (1, 2, 3):
            q = holonomy_from_threeform(ThreeForm.product_form(g))
            assert len(q.relations) == 2 * g + 1

    def test_product_forms_give_surface_ranks_to_degree_6(self):
        # h(Sigma_g x S^1) is h(Sigma_g) times a line in degree 1
        for g in (2, 3):
            ranks = lie_ranks(holonomy_from_threeform(ThreeForm.product_form(g)), 6).ranks
            assert ranks == (2 * g + 1,) + tuple(surface_lcs_rank(g, d) for d in range(2, 7))
        assert surface_lcs_rank(3, 6) == 6496
        assert [surface_lcs_rank(2, d) for d in range(2, 7)] == [5, 16, 45, 144, 440]

    def test_random_forms_round_trip_span(self):
        rng = random.Random(74)
        for _ in range(10):
            n = rng.choice((3, 4, 5))
            eta = random_threeform(rng, n)
            q = holonomy_from_threeform(eta)
            pairs = wedge_basis(n)
            raw = []
            for k in range(n):
                row = [eta.value(i, j, k) for i, j in pairs]
                if any(row):
                    raw.append(row)
            rows = [list(r) for r in q.relations]
            assert rank(rows) == len(rows)
            assert rank(rows + raw) == len(rows)

    def test_scaled_form_gives_equal_data(self):
        # scaling eta by 3 scales every contraction, leaving their span and
        # hence the reduced echelon basis unchanged
        rng = random.Random(75)
        forms = [ThreeForm.product_form(2), ThreeForm.volume()]
        forms += [random_threeform(rng, n) for n in (3, 4, 5, 6, 7)]
        for eta in forms:
            scaled = ThreeForm(eta.n, {t: 3 * c for t, c in eta.coeffs.items()})
            assert holonomy_from_threeform(scaled) == holonomy_from_threeform(eta)


class TestCanonicalSpan:
    """`QuadraticData` keeps the canonical integer basis of the relation span."""

    @staticmethod
    def _respellings(rng, rels):
        m = len(rels[0])
        scales = [Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4)) for _ in rels]
        yield [tuple(s * c for c in r) for s, r in zip(scales, rels)]
        yield rng.sample(rels, len(rels))
        yield rels + [rng.choice(rels)]
        yield rels[:1] + [(0,) * m] + rels[1:]

    def test_equal_spans_give_equal_data(self):
        rng = random.Random(90)
        for n in (2, 3, 4, 5):
            m = n * (n - 1) // 2
            for _ in range(4):
                rels = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 3))]
                q = QuadraticData(n, rels)
                for other in self._respellings(rng, rels):
                    assert QuadraticData(n, other) == q, (rels, other)

    def test_rows_are_the_reduced_primitive_basis(self):
        rng = random.Random(91)
        for n in (3, 4, 5, 6):
            m = n * (n - 1) // 2
            rels = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m))
                    for _ in range(rng.randint(1, 4))]
            q = QuadraticData(n, rels)
            rows = [list(r) for r in q.relations]
            assert rank(rows) == len(rows) == rank([list(r) for r in rels])
            assert rank(rows + [list(r) for r in rels]) == len(rows)
            pivots = [next(k for k, c in enumerate(r) if c) for r in rows]
            assert pivots == sorted(pivots)
            for r, p in zip(rows, pivots):
                assert all(type(c) is int for c in r)
                assert r[p] > 0 and gcd(*r) == 1
                assert all(other[p] == 0 for other in rows if other is not r)

    def test_rational_rows_keep_their_integer_basis(self):
        # relations computed by the earlier intake, which reduced in Fraction
        # rows and cleared them to integers; the third row below is the sum
        # of the first two
        rows = [["1/2", "2/3", "-2/3", 1, 0, "3/4"], [0, "5/6", 1, "-1/3", 2, 0],
                ["1/2", "3/2", "1/3", "2/3", 2, "3/4"]]
        q = QuadraticData(4, [tuple(Fraction(c) for c in r) for r in rows])
        assert q.relations == ((30, 0, -88, 76, -96, 45), (0, 5, 6, -2, 12, 0))
        rng = random.Random(30)
        out = []
        for n in (3, 4, 5, 6, 7):
            m = n * (n - 1) // 2
            for _ in range(6):
                rels = [tuple(Fraction(f"{rng.randint(-4, 4)}/{rng.randint(1, 6)}")
                              if rng.random() < 0.6 else 0 for _ in range(m))
                        for _ in range(rng.randint(1, 5))]
                rels.append(tuple(sum(c) for c in zip(*rels)))
                out.append(QuadraticData(n, rels).relations)
        assert sum(map(len, out)) == 81
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "8ec54e5034b325a5fabb8271b5e059243db860d63b0f9d4f4e2b6f9a45849ebd")

    def test_product_forms_equal_their_contraction_rows(self):
        # the 3-form route and the same contractions listed as relations meet
        for g in (1, 2, 3):
            eta = ThreeForm.product_form(g)
            raw = [[eta.value(i, j, k) for i, j in wedge_basis(eta.n)] for k in range(eta.n)]
            assert QuadraticData(eta.n, raw) == holonomy_from_threeform(eta)

    def test_degree_two_rank_is_witt_minus_relations(self):
        rng = random.Random(92)
        for n in (2, 3, 4):
            m = n * (n - 1) // 2
            rels = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(4)]
            q = QuadraticData(n, rels + rels)
            assert lie_ranks(q, 2).ranks[1] == witt_dimension(n, 2) - len(q.relations)


class TestZeroDegree:
    """A zero degree makes every higher one zero; nothing above it is bracketed."""

    def test_two_generators_one_relation_at_degree_18(self):
        start = time.perf_counter()
        ranks = lie_ranks(QuadraticData(2, ((7,),)), 18, degree_cap=18).ranks
        assert time.perf_counter() - start < 1
        assert ranks == (2,) + (0,) * 17

    def test_zero_quotients_match_reference(self, monkeypatch):
        built = TestLyndonProjection._count_full_brackets(monkeypatch)
        cases = [QuadraticData(2, ((1,),)), QuadraticData(0, ()),
                 holonomy_from_threeform(ThreeForm.volume())]
        rng = random.Random(93)
        for n in (3, 4):
            m = n * (n - 1) // 2
            rels = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(m + 1)]
            cases.append(QuadraticData(n, rels))
        for q in cases:
            assert lie_ranks(q, 5).ranks[1] == 0
            assert lie_ranks(q, 5).ranks == reference_lie_ranks(q, 5), q
        assert built == []


class TestValidation:
    def test_relation_length_checked(self):
        with pytest.raises(ValueError):
            QuadraticData(3, ((Fraction(1),),))

    def test_negative_generator_count(self):
        with pytest.raises(ValueError):
            QuadraticData(-1, ((Fraction(1),),))
