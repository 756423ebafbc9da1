"""Brieskorn Seifert data, torsion invariants, components, formality."""

import io
import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod

import pytest

from jumploci import (
    BrieskornInput,
    IntegralityError,
    Orbit,
    SeifertData,
    brieskorn_seifert,
    integer_obstruction,
    is_one_formal_link,
    tangent_cone_report,
    torsion_data,
    v1_components,
)
from jumploci import cli, seifert
from jumploci.seifert import LimitError, sweep


def orbit_multiset(s):
    return sorted((o.alpha, o.beta, o.multiplicity) for o in s.orbits)


class TestBrieskornGolden:
    def test_336(self):
        s = brieskorn_seifert((3, 3, 6))
        assert orbit_multiset(s) == [(2, 1, 3)]
        assert s.genus == 1
        assert s.euler == Fraction(-3, 2)

    def test_nilmanifold_bundles(self):
        for exps, e in (((2, 3, 6), -1), ((2, 4, 4), -2), ((3, 3, 3), -3)):
            s = brieskorn_seifert(exps)
            assert s.orbits == ()
            assert s.genus == 1
            assert s.euler == e

    def test_poincare_sphere(self):
        s = brieskorn_seifert((2, 3, 5))
        assert orbit_multiset(s) == [(2, 1, 1), (3, 1, 1), (5, 1, 1)]
        assert s.genus == 0
        assert s.euler == Fraction(-1, 30)
        assert torsion_data(s).torsion_order == 1

    def test_237(self):
        s = brieskorn_seifert((2, 3, 7))
        assert orbit_multiset(s) == [(2, 1, 1), (3, 2, 1), (7, 6, 1)]
        assert s.euler == Fraction(-1, 42)
        assert integer_obstruction(s) == -2
        assert torsion_data(s).torsion_order == 1

    def test_234_e6_link(self):
        # the E6 singularity link: H1 torsion has order 3
        s = brieskorn_seifert((2, 3, 4))
        assert orbit_multiset(s) == [(2, 1, 1), (3, 1, 2)]
        assert s.genus == 0
        assert s.euler == Fraction(-1, 6)
        assert torsion_data(s).torsion_order == 3

    def test_233_d4_link(self):
        s = brieskorn_seifert((2, 3, 3))
        assert torsion_data(s).torsion_order == 4

    def test_456(self):
        s = brieskorn_seifert((4, 5, 6))
        assert orbit_multiset(s) == [(2, 1, 1), (3, 1, 1), (5, 3, 2)]
        assert s.genus == 0
        assert s.euler == Fraction(-1, 30)
        t = torsion_data(s)
        assert (t.torsion_order, t.fiber_class_order, t.alpha) == (5, 1, 5)
        assert integer_obstruction(s) == -2

    def test_four_exponents(self):
        s = brieskorn_seifert((2, 2, 2, 3))
        assert orbit_multiset(s) == [(3, 2, 4)]
        assert s.genus == 0
        assert s.euler == Fraction(-2, 3)
        t = torsion_data(s)
        assert (t.torsion_order, t.fiber_class_order, t.alpha) == (54, 2, 27)


class TestLinearLcms:
    def test_lcm_arguments_linear_in_exponent_count(self, monkeypatch):
        args = []

        def counting(*xs):
            args.append(len(xs))
            return lcm(*xs)

        monkeypatch.setattr(seifert, "lcm", counting)
        totals = {}
        for n in (100, 400):
            args.clear()
            brieskorn_seifert((2,) * n)
            totals[n] = sum(args)
        # one lcm of two per prefix, per suffix and per exponent
        assert totals[400] <= 6 * 400 + 6
        assert totals[400] <= 4 * totals[100] + 6

    def test_orbit_orders_match_per_exponent_lcms(self):
        rng = random.Random(77)
        for _ in range(60):
            exps = tuple(rng.randint(2, 12) for _ in range(rng.randint(3, 6)))
            try:
                s = brieskorn_seifert(exps)
            except IntegralityError:
                continue
            expected = {}
            for j, aj in enumerate(exps):
                ell_j = lcm(*(exps[:j] + exps[j + 1:]))
                alpha = lcm(*exps) // ell_j
                if alpha > 1:
                    expected[alpha] = expected.get(alpha, 0) + prod(exps) // (aj * ell_j)
            got = {}
            for o in s.orbits:
                got[o.alpha] = got.get(o.alpha, 0) + o.multiplicity
            assert got == expected, exps


class TestValidation:
    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            BrieskornInput((2, 3))
        with pytest.raises(ValueError):
            BrieskornInput((1, 2, 3))

    def test_orbit_validation(self):
        with pytest.raises(ValueError):
            Orbit(alpha=4, beta=2, multiplicity=1)  # not coprime
        with pytest.raises(ValueError):
            Orbit(alpha=3, beta=3, multiplicity=1)  # out of range
        with pytest.raises(ValueError):
            Orbit(alpha=1, beta=0, multiplicity=1)

    def test_euler_sign_enforced(self):
        with pytest.raises(ValueError):
            SeifertData(orbits=(), genus=1, euler=Fraction(1, 2))

    def test_accepts_input_object(self):
        assert brieskorn_seifert(BrieskornInput((2, 3, 5))) == brieskorn_seifert((2, 3, 5))


class TestTorsion:
    def test_336_torsion(self):
        t = torsion_data(brieskorn_seifert((3, 3, 6)))
        assert t.torsion_order == 12
        assert t.fiber_class_order == 3
        assert t.alpha == 4

    def test_236_trivial(self):
        t = torsion_data(brieskorn_seifert((2, 3, 6)))
        assert (t.torsion_order, t.fiber_class_order, t.alpha) == (1, 1, 1)

    def test_circle_bundle_rule(self):
        # no exceptional orbits: |T| = ord(h) = |e| and alpha = 1
        for k in (1, 2, 3, 5):
            s = SeifertData(orbits=(), genus=2, euler=Fraction(-k))
            t = torsion_data(s)
            assert (t.torsion_order, t.fiber_class_order, t.alpha) == (k, k, 1)

    def test_group_order_identity(self):
        for exps in ((3, 3, 6), (2, 3, 4), (4, 5, 6), (2, 2, 3), (6, 10, 15)):
            t = torsion_data(brieskorn_seifert(exps))
            assert t.torsion_order == t.fiber_class_order * t.alpha

    def test_non_integral_rejected(self):
        s = SeifertData(orbits=(), genus=0, euler=Fraction(-3, 2))
        with pytest.raises(IntegralityError):
            torsion_data(s)


class TestComponents:
    def test_336_three_translated(self):
        c = v1_components(brieskorn_seifert((3, 3, 6)))
        assert c.positive_dim_count == 3
        assert c.component_dim == 2
        assert not c.includes_identity_component
        assert c.translated_count == 3

    def test_236_none(self):
        c = v1_components(brieskorn_seifert((2, 3, 6)))
        assert c.positive_dim_count == 0
        assert c.translated_count == 0

    def test_higher_genus_circle_bundle(self):
        s = SeifertData(orbits=(), genus=2, euler=Fraction(-1))
        c = v1_components(s)
        assert c.positive_dim_count == 1
        assert c.component_dim == 4
        assert c.includes_identity_component
        assert c.translated_count == 0

    def test_genus_zero_never_has_components(self):
        c = v1_components(brieskorn_seifert((2, 3, 5)))
        assert c.positive_dim_count == 0

    def test_counting_invariant(self):
        for exps in ((3, 3, 6), (2, 3, 6), (4, 4, 4), (2, 2, 2, 2)):
            c = v1_components(brieskorn_seifert(exps))
            expected = c.positive_dim_count - (1 if c.includes_identity_component else 0)
            assert c.translated_count == expected


class TestFormality:
    def test_rational_homology_sphere_formal(self):
        assert is_one_formal_link(brieskorn_seifert((2, 3, 5)))

    def test_heisenberg_not_formal(self):
        assert not is_one_formal_link(brieskorn_seifert((2, 3, 6)))

    def test_336_not_formal(self):
        assert not is_one_formal_link(brieskorn_seifert((3, 3, 6)))


class TestTangentCone:
    def test_holds_iff_genus_not_one(self):
        for g in range(6):
            s = SeifertData(orbits=(), genus=g, euler=Fraction(-1))
            rep = tangent_cone_report(s)
            assert rep.formula_holds == (g != 1)
            assert rep.r1_dim == 2 * g
            if g <= 1:
                assert rep.germ_is_identity_only
                assert rep.germ_torus_dim == 0
            else:
                assert rep.germ_torus_dim == 2 * g

    def test_236_fails(self):
        rep = tangent_cone_report(brieskorn_seifert((2, 3, 6)))
        assert not rep.formula_holds
        assert rep.r1_dim == 2


class TestBetaConvention:
    def test_downstream_inert_under_beta_change(self):
        rng = random.Random(61)
        for exps in ((3, 3, 6), (2, 3, 7), (4, 5, 6), (2, 2, 3)):
            s = brieskorn_seifert(exps)
            if not s.orbits:
                continue
            for _ in range(5):
                betas = []
                for o in s.orbits:
                    choices = [b for b in range(1, o.alpha) if gcd(b, o.alpha) == 1]
                    betas.append(rng.choice(choices))
                orbits = tuple(Orbit(o.alpha, b, o.multiplicity) for o, b in zip(s.orbits, betas))
                perturbed = SeifertData(orbits=orbits, genus=s.genus, euler=s.euler)
                assert torsion_data(perturbed) == torsion_data(s)
                assert v1_components(perturbed) == v1_components(s)
                assert is_one_formal_link(perturbed) == is_one_formal_link(s)
                assert tangent_cone_report(perturbed) == tangent_cone_report(s)

    def test_permutation_invariance(self):
        for exps in ((2, 3, 4), (3, 3, 6), (2, 4, 6), (4, 5, 6), (2, 2, 2, 3), (2, 3, 3, 4, 6)):
            base = brieskorn_seifert(exps)
            for perm in permutations(exps):
                s = brieskorn_seifert(perm)
                assert s == base, perm
                assert torsion_data(s) == torsion_data(base), perm

    def test_permutation_invariance_random_tuples(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tuples = st.lists(st.integers(2, 40), min_size=3, max_size=5)

        def outcome(exps):
            try:
                s = brieskorn_seifert(exps)
                return s, torsion_data(s)
            except (IntegralityError, LimitError) as exc:
                return type(exc)

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(tuples.flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
        def check(pair):
            exps, perm = pair
            assert outcome(perm) == outcome(exps)

        check()


class TestSweep:
    def test_small_sweep_consistency(self):
        rows = sweep(6, 3)
        assert len(rows) == 5 ** 3
        for _, record in rows:
            s = record["seifert"]
            t = record["torsion"]
            assert t.torsion_order == t.fiber_class_order * t.alpha
            # the normalization obstruction must be an integer
            assert record["obstruction"] == integer_obstruction(s)

    def test_sweep_requires_three(self):
        with pytest.raises(ValueError):
            sweep(4, 2)

    def test_permuted_rows_share_their_invariants(self):
        rows = sweep(6, 3)
        first = {}
        for exps, record in rows:
            key = tuple(sorted(exps))
            assert record is first.setdefault(key, record)
        assert len(first) == 35
        assert [exps for exps, _ in rows] == sorted(exps for exps, _ in rows)
        for key, record in first.items():
            assert record == seifert.link_invariants(key)
            assert "exponents" not in cli._brieskorn_record(record)
        report = cli.run_brieskorn_sweep(6, 3, cli.RunConfig())
        assert report["rows"] == rows
        assert len({id(record) for _, record in report["rows"]}) == 35

    def test_sweep_limit(self):
        with pytest.raises(LimitError):
            sweep(1000, 5)
        with pytest.raises(LimitError):
            sweep(12, 10**9)
        # max <= 2 still bounds n: one row of n exponents, or none
        with pytest.raises(LimitError):
            sweep(2, 17)
        with pytest.raises(LimitError):
            sweep(1, 10**9)
        assert len(sweep(2, 16)) == 1
        assert sweep(1, 3) == []


class TestTorsionOncePerRow:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the torsion_data and is_one_formal_link calls, in either module."""
        calls = []
        for name in ("torsion_data", "is_one_formal_link"):
            def counting(s, name=name, real=getattr(seifert, name)):
                calls.append(name)
                return real(s)

            monkeypatch.setattr(seifert, name, counting)
            monkeypatch.setattr(cli, name, counting, raising=False)
        return calls

    def test_single_tuple(self, calls):
        for exps in ((3, 3, 6), (2, 3, 5), (4, 6, 8, 10)):
            calls.clear()
            record = cli.run_brieskorn(exps, cli.RunConfig())
            assert sorted(calls) == ["is_one_formal_link", "torsion_data"]
            s = brieskorn_seifert(exps)
            assert record["translated"] == v1_components(s).translated_count

    def test_sweep(self, calls):
        report = cli.run_brieskorn_sweep(5, 3, cli.RunConfig())
        assert len(report["rows"]) == 64
        for fmt in ("json", "text", "csv"):
            cli.render(report, cli.RunConfig(output_format=fmt), io.StringIO())
        # once per multiset of exponents in [2, 5]^3, and none while rendering
        assert calls.count("torsion_data") == calls.count("is_one_formal_link") == 20

    def test_supplied_torsion_is_used(self):
        for exps in ((3, 3, 6), (2, 2, 2, 3), (4, 6, 8, 10), (2, 3, 5)):
            s = brieskorn_seifert(exps)
            assert v1_components(s, torsion_data(s)) == v1_components(s)


class TestInvariantBits:
    def test_doubly_exponential_torsion_refused(self):
        # 2,3,...,3 with n exponents has one orbit (2:1) of multiplicity
        # 3^(n-2), so |T| has about 3^(n-2) bits
        s = brieskorn_seifert((2,) + (3,) * 8)
        assert torsion_data(s).torsion_order.bit_length() <= seifert.MAX_INVARIANT_BITS
        for n in (10, 11, 24, 60):
            s = brieskorn_seifert((2,) + (3,) * (n - 1))
            assert s.orbits == (Orbit(2, 1, 3 ** (n - 2)),)
            with pytest.raises(LimitError, match="MAX_INVARIANT_BITS = 8192"):
                torsion_data(s)

    def test_euler_number_counts_toward_the_bound(self):
        t = torsion_data(SeifertData(orbits=(), genus=2, euler=-(1 << 8191)))
        assert t.torsion_order.bit_length() == seifert.MAX_INVARIANT_BITS
        with pytest.raises(LimitError, match="MAX_INVARIANT_BITS"):
            torsion_data(SeifertData(orbits=(), genus=2, euler=-(1 << 8192)))

    def test_exponent_bits_refused(self):
        assert len(brieskorn_seifert((2,) * 4096).orbits) == 0
        with pytest.raises(LimitError, match="MAX_INVARIANT_BITS"):
            BrieskornInput((2,) * 4097)
        with pytest.raises(LimitError, match="MAX_INVARIANT_BITS"):
            brieskorn_seifert((2, 3, 1 << 8190))

    def test_largest_links_tuples_stay_within_the_bound(self):
        # the largest |T| of tuples with n = 3, 4, 5 and exponents up to 30,
        # 20 and 12, the ranges the links benchmark draws from
        for exps in ((29, 30, 30), (19, 20, 20, 20), (11, 12, 12, 12, 12)):
            s = brieskorn_seifert(exps)
            t = torsion_data(s)
            assert t.torsion_order.bit_length() <= seifert.MAX_INVARIANT_BITS
            str(t.torsion_order)

    def test_sweep_names_the_refused_multiset(self):
        with pytest.raises(LimitError, match="exponents 2,3,3,3,3,3,3,3,3,3: .*MAX_INVARIANT_BITS"):
            sweep(3, 10)
