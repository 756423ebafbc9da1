"""Alexander matrices, ideals, polynomials, and jump-locus membership."""

import random
from collections import Counter

import pytest

from jumploci import _linalg, alexander, cli, laurent, seifert
from jumploci import (
    Character,
    IdentityCharacterError,
    LaurentPoly,
    alexander_matrix,
    almost_principal_sampled,
    elementary_ideal,
    elementary_ideal_vanishes_at,
    evaluate,
    in_vd,
    normalize_unit,
    Presentation,
    parse_presentation,
    sample_characters,
    twisted_h1_dim,
    Word,
    word_image,
)
from jumploci.presentation import format_presentation, smith_normal_form

from _corpus import (
    DOUBLE_COMM,
    FIGURE_EIGHT,
    FREE_2,
    HEISENBERG,
    SURFACE_2,
    TORUS_2_5,
    TREFOIL,
    Z2,
    chain_text,
    cross_validation_corpus,
    int_det,
    mat_mul,
    random_word,
    sum_pattern_text,
)


def tvar(n, i):
    return LaurentPoly.variable(n, i)


class TestMatrix:
    def test_z2_matrix(self):
        a = alexander_matrix(Z2)
        t1, t2 = tvar(2, 0), tvar(2, 1)
        assert a.entries == ((1 - t2, t1 - 1),)

    def test_trefoil_entries_are_associates(self):
        a = alexander_matrix(TREFOIL)
        t = tvar(1, 0)
        target = t * t - t + 1
        assert len(a.entries) == 1 and len(a.entries[0]) == 2
        for e in a.entries[0]:
            assert normalize_unit(e) == target

    def test_free_group_empty_matrix(self):
        a = alexander_matrix(FREE_2)
        assert a.entries == ()
        assert a.num_generators == 2

    def test_row_fox_identity(self):
        for p in cross_validation_corpus():
            a = alexander_matrix(p)
            ab = a.abelianization
            for i, rel in enumerate(p.relators):
                total = LaurentPoly.zero(ab.b1)
                for j in range(p.num_generators):
                    tj = LaurentPoly.monomial(ab.b1, ab.gen_images[j].free)
                    total = total + a.entries[i][j] * (tj - 1)
                assert total.is_zero
                assert word_image(rel, ab) == (0,) * ab.b1

    def test_one_fox_call_per_relator(self, monkeypatch):
        calls = []
        real = alexander.fox_derivative

        def counted(word, ab):
            calls.append(word)
            return real(word, ab)

        monkeypatch.setattr(alexander, "fox_derivative", counted)
        for p in (FREE_2, Z2, TREFOIL, SURFACE_2, HEISENBERG, DOUBLE_COMM):
            calls.clear()
            a = alexander_matrix(p)
            assert calls == list(p.relators)
            assert [len(row) for row in a.entries] == [p.num_generators] * len(p.relators)


class TestElementaryIdeals:
    def test_z2_first_ideal(self):
        a = alexander_matrix(Z2)
        e1 = elementary_ideal(a, 1)
        t1, t2 = tvar(2, 0), tvar(2, 1)
        assert set(e1.generators) == {1 - t2, t1 - 1}

    def test_surface_zero_ideal(self):
        a = alexander_matrix(SURFACE_2)
        e1 = elementary_ideal(a, 1)
        assert e1.is_zero

    def test_trefoil_ideal(self):
        a = alexander_matrix(TREFOIL)
        e1 = elementary_ideal(a, 1)
        t = tvar(1, 0)
        assert {normalize_unit(g) for g in e1.generators} == {t * t - t + 1}

    def test_unit_ideal_when_d_large(self):
        a = alexander_matrix(Z2)
        e2 = elementary_ideal(a, 2)
        assert any(g.is_one for g in e2.generators)

    def test_an_ideal_beyond_the_cap_is_refused(self, monkeypatch):
        full = elementary_ideal(alexander_matrix(HEISENBERG), 1)
        assert len(full.generators) > 1
        monkeypatch.setattr(alexander, "DEFAULT_GENERATOR_CAP", 1)
        with pytest.raises(seifert.LimitError,
                           match="^listing E_1 needs more than DEFAULT_GENERATOR_CAP = 1 "):
            elementary_ideal(alexander_matrix(HEISENBERG), 1)

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError):
            elementary_ideal(alexander_matrix(Z2), -1)


class TestMinorTermLimit:
    """A Laurent product in a minor beyond MAX_MINOR_TERMS is refused before it is formed.

    The CLI's refusal of the longer chain and of `FOUR_POWERS` is tested in test_cli.
    """

    def test_chain_just_under_the_limit_answers(self):
        # the chain on k + 1 generators forms a product of 2^k terms
        k = alexander.MAX_MINOR_TERMS.bit_length() - 1
        assert alexander_matrix(parse_presentation(chain_text(k))).delta.is_one
        with pytest.raises(seifert.LimitError, match="a product of 65536 terms"):
            alexander_matrix(parse_presentation(chain_text(k + 1))).delta

    def test_folded_minors_are_not_limited(self):
        # the jump-locus route folds every product to the character's order
        a = alexander_matrix(parse_presentation(chain_text(40)))
        chi = Character(order=2, exponents=(1,))
        assert elementary_ideal_vanishes_at(a, 1, chi) is False


class TestAlexanderPolynomial:
    def test_trefoil(self):
        t = tvar(1, 0)
        assert alexander_matrix(TREFOIL).delta == t * t - t + 1

    def test_figure_eight(self):
        t = tvar(1, 0)
        assert alexander_matrix(FIGURE_EIGHT).delta == t * t - 3 * t + 1

    def test_torus_2_5(self):
        t = tvar(1, 0)
        expected = t ** 4 - t ** 3 + t * t - t + 1
        assert alexander_matrix(TORUS_2_5).delta == expected

    def test_z2_is_one(self):
        assert alexander_matrix(Z2).delta == LaurentPoly.one(2)

    def test_free_is_zero(self):
        assert alexander_matrix(FREE_2).delta.is_zero

    def test_heisenberg_is_one(self):
        assert alexander_matrix(HEISENBERG).delta == LaurentPoly.one(2)

    def test_invariance_under_relator_moves(self):
        rng = random.Random(55)
        for p in (TREFOIL, FIGURE_EIGHT, Z2):
            base = alexander_matrix(p).delta
            rel = p.relators[0]
            for _ in range(5):
                k = rng.randrange(max(len(rel), 1))
                rotated = Word(rel.letters[k:] + rel.letters[:k])
                moved = type(p)(p.generator_names, (rotated,))
                assert alexander_matrix(moved).delta == base
            inverted = type(p)(p.generator_names, (rel.inverse(),))
            assert alexander_matrix(inverted).delta == base


class TestTwistedH1:
    def test_z2_always_zero(self):
        for chi in sample_characters(2, 10, seed=1):
            assert twisted_h1_dim(Z2, chi) == 0

    def test_surface_two(self):
        for chi in sample_characters(4, 10, seed=2):
            assert twisted_h1_dim(SURFACE_2, chi) == 2

    def test_trefoil_at_zeta6(self):
        assert twisted_h1_dim(TREFOIL, Character(6, (1,))) == 1

    def test_identity_rejected(self):
        with pytest.raises(IdentityCharacterError):
            twisted_h1_dim(Z2, Character(3, (0, 0)))
        with pytest.raises(IdentityCharacterError):
            in_vd(TREFOIL, Character(2, (0,)), 1)

    def test_free_group(self):
        for chi in sample_characters(2, 5, seed=3):
            assert twisted_h1_dim(FREE_2, chi) == 1


class TestInVd:
    def test_trefoil_zeta6(self):
        assert in_vd(TREFOIL, Character(6, (1,)), 1)

    def test_trefoil_minus_one(self):
        # Delta(-1) = 3 != 0
        assert not in_vd(TREFOIL, Character(2, (1,)), 1)

    def test_z2_partial_vanishing(self):
        # 1 - t2 vanishes but t1 - 1 does not, so the rank stays 1
        assert not in_vd(Z2, Character(3, (1, 0)), 1)

    def test_d_must_be_positive(self):
        with pytest.raises(ValueError):
            in_vd(TREFOIL, Character(6, (1,)), 0)


class TestCrossValidation:
    def test_rank_vs_ideal_on_corpus(self):
        """Keystone: ideal vanishing iff g - 1 - rank >= d, 50 characters each."""
        for p in cross_validation_corpus():
            a = alexander_matrix(p)
            if a.num_vars == 0:
                continue
            for chi in sample_characters(a.num_vars, 50, seed=77):
                for d in (1, 2):
                    rank_based = in_vd(p, chi, d)
                    ideal_based = elementary_ideal_vanishes_at(a, d, chi)
                    assert rank_based == ideal_based, (p, chi, d)


class TestAlmostPrincipal:
    def test_trefoil_consistent(self):
        rep = almost_principal_sampled(alexander_matrix(TREFOIL), 100, seed=5)
        assert rep.consistent
        assert rep.trials == 100

    def test_z2_consistent(self):
        rep = almost_principal_sampled(alexander_matrix(Z2), 100, seed=6)
        assert rep.consistent

    def test_free_trivially_consistent(self):
        rep = almost_principal_sampled(alexander_matrix(FREE_2), 50, seed=7)
        assert rep.consistent

    def test_b1_zero_rejected(self):
        p = parse_presentation("<x | x^2>")
        with pytest.raises(ValueError):
            almost_principal_sampled(alexander_matrix(p), 10, seed=1)

    def test_deterministic(self):
        a = alexander_matrix(FIGURE_EIGHT)
        r1 = almost_principal_sampled(a, 40, seed=9)
        r2 = almost_principal_sampled(a, 40, seed=9)
        assert r1 == r2


def _naive_counterexamples(a, trials, seed):
    """Every sampled character, evaluated on the unfolded E_1 and Delta, no memo."""
    e1, delta = a.ideal(1), a.delta
    return tuple(
        chi
        for chi in sample_characters(a.num_vars, trials, seed)
        if (not any(any(evaluate(g, chi)) for g in e1.generators))
        != (not any(evaluate(delta, chi)))
    )


def _conjugation_presentation(rng):
    """Three relators u v u^-1 v^(+/-1) in short random words: b1 >= 2 is common."""
    rels = []
    for _ in range(3):
        u = random_word(rng, 3, rng.randint(1, 3))
        v = random_word(rng, 3, rng.randint(1, 3))
        rels.append(u * v * u.inverse() * (v.inverse() if rng.random() < 0.5 else v))
    return Presentation(("a", "b", "c"), tuple(rels))


# V(E_1) holds order-2 points where Delta = 1 does not vanish.  The first was
# built by hand (row (0, 0, t + 1) from z x z x^-1); the second is seed 17 of
# the seeded search over `_conjugation_presentation`.
NOT_ALMOST_PRINCIPAL = {
    "<x, y, z | [x,y], z x z x^-1, [y,z]>": (
        0, ("2:0,1", "4:0,2", "2:0,1", "2:0,1", "2:0,1")),
    "<a, b, c | b^-2 a b^2 a^-1, b^-1 c b c^-1, a c^2 a^-1 c^-2>": (
        17, ("4:1,2,0", "2:0,1,1", "2:1,1,0", "2:1,1,0", "4:0,2,0", "2:1,1,0",
             "2:1,0,1", "8:3,4,4", "4:1,2,0", "6:3,3,0", "2:0,1,1", "2:0,0,1",
             "2:0,1,1", "2:1,1,0", "2:1,1,1", "2:1,1,0", "2:1,1,1", "12:11,6,6",
             "2:0,1,1", "2:1,0,1")),
}


class TestSampledCheckMatchesNaiveLoop:
    """Folding once per order and deciding each distinct character once change nothing."""

    def test_corpus(self):
        for p in cross_validation_corpus() + [TREFOIL, TORUS_2_5, HEISENBERG]:
            a = alexander_matrix(p)
            if a.num_vars == 0:
                continue
            rep = almost_principal_sampled(a, 150, seed=3)
            assert rep.counterexamples == _naive_counterexamples(a, 150, 3), p

    def test_seeded_random_presentations(self):
        rng = random.Random(20250)
        nonempty = 0
        for _ in range(40):
            p = _conjugation_presentation(rng)
            a = alexander_matrix(p)
            if a.num_vars == 0:
                continue
            seed = rng.randrange(1000)
            rep = almost_principal_sampled(a, 100, seed)
            assert rep.counterexamples == _naive_counterexamples(a, 100, seed), p
            nonempty += bool(rep.counterexamples)
        assert nonempty >= 3

    @pytest.mark.parametrize("text", sorted(NOT_ALMOST_PRINCIPAL))
    def test_counterexamples_pinned_in_draw_order(self, text):
        seed, want = NOT_ALMOST_PRINCIPAL[text]
        a = alexander_matrix(parse_presentation(text))
        assert a.delta.is_one
        rep = almost_principal_sampled(a, 100, seed)
        assert tuple(map(str, rep.counterexamples)) == want
        assert rep.counterexamples == _naive_counterexamples(a, 100, seed)
        assert not rep.consistent

    def test_each_distinct_character_decided_once(self, monkeypatch):
        calls = []
        real = alexander.evaluate

        def counting(p, chi):
            calls.append(chi)
            return real(p, chi)

        monkeypatch.setattr(alexander, "evaluate", counting)
        a = alexander_matrix(TREFOIL)
        polys = len(a.ideal(1).generators) + 1  # E_1 and Delta, built before counting
        chars = sample_characters(1, 100, seed=5)
        almost_principal_sampled(a, 100, seed=5)
        counts = Counter(calls)
        assert len(set(chars)) < len(chars)
        assert set(counts) == set(chars)
        assert max(counts.values()) <= polys

    @pytest.mark.parametrize("text", sorted(NOT_ALMOST_PRINCIPAL))
    def test_one_ideal_test_per_distinct_character(self, monkeypatch, text):
        a = alexander_matrix(parse_presentation(text))
        seed = NOT_ALMOST_PRINCIPAL[text][0]
        a.delta  # Delta lists E_1 once; the check itself reads no listed generator
        monkeypatch.setattr(alexander.AlexanderMatrix, "ideal", None)
        calls = _count_calls(monkeypatch, "elementary_ideal_vanishes_at", alexander)
        chars = sample_characters(a.num_vars, 100, seed)
        almost_principal_sampled(a, 100, seed)
        assert len(set(chars)) < len(chars)
        assert calls == [(a, 1, chi) for chi in dict.fromkeys(chars)]


class TestCharacterSampling:
    def test_never_identity_and_reproducible(self):
        chars = sample_characters(3, 100, seed=11)
        assert len(chars) == 100
        assert all(not c.is_identity for c in chars)
        assert chars == sample_characters(3, 100, seed=11)

    def test_orders_from_menu(self):
        chars = sample_characters(2, 200, seed=12)
        assert {c.order for c in chars} <= {2, 3, 4, 5, 6, 8, 12}
        # the menu is fixed: orders=(1,) once made every draw the identity
        # and the loop never ended
        with pytest.raises(TypeError):
            sample_characters(1, 3, 0, orders=(1,))
        with pytest.raises(TypeError):
            almost_principal_sampled(alexander_matrix(TREFOIL), 3, 0, orders=(1,))
        rep = almost_principal_sampled(alexander_matrix(TREFOIL), 3, 0)
        assert rep.orders == alexander.CHARACTER_ORDERS


def _count_calls(monkeypatch, name, *holders):
    """Replace `name` in every holder by one counting wrapper; return its call log."""
    calls = []
    real = getattr(holders[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for holder in holders:
        monkeypatch.setattr(holder, name, counting, raising=False)
    return calls


Z3 = parse_presentation("<x, y, z | [x,y], [x,z], [y,z]>")


class TestComputeOnce:
    def test_matrix_memo(self):
        a = alexander_matrix(TREFOIL)
        assert a.ideal(1) is a.ideal(1)
        assert a.delta is a.delta
        # the memo takes no part in equality or hashing
        b = alexander_matrix(TREFOIL)
        assert a == b and hash(a) == hash(b)
        assert a.ideal(2) == elementary_ideal(b, 2)

    def test_run_alex_builds_each_invariant_once(self, monkeypatch):
        gcds = _count_calls(monkeypatch, "gcd_all", laurent, alexander, cli)
        ideals = _count_calls(monkeypatch, "elementary_ideal", alexander, cli)
        out = cli.run_alex(Z3, cli.RunConfig(trials=20), [2, 1, 2])
        assert len(gcds) == 1
        assert sorted(args[1] for args in ideals) == [1, 2]
        assert out["delta"] == "1"
        assert [e["d"] for e in out["ideals"]] == [1, 2]

    def test_run_charvar_builds_one_matrix_and_one_rank(self, monkeypatch):
        matrices = _count_calls(monkeypatch, "alexander_matrix", alexander, cli)
        ranks = _count_calls(monkeypatch, "rank", _linalg)
        out = cli.run_charvar(TREFOIL, Character(6, (1,)), 1, cli.RunConfig())
        assert len(matrices) == 1
        assert len(ranks) == 1
        assert out["twisted_h1_dim"] == 1
        assert out["rank_based"] and out["ideal_based"] and out["agree"]

    def test_twisted_h1_dim_accepts_matrix(self):
        for p, chi in ((SURFACE_2, Character(3, (1, 0, 2, 0))), (Z2, Character(3, (1, 2)))):
            assert twisted_h1_dim(alexander_matrix(p), chi) == twisted_h1_dim(p, chi)


# H_1 = Z + Z/2, and z maps to 0 in the free part, so u_0 vanishes at every
# character and the one-column route must avoid another column
TREFOIL_TORSION = parse_presentation("<z, x, y | z^2, [x, z], x y x y^-1 x^-1 y^-1>")

# Z^6 characters at which the ideal route used to read a cut-off E_d
Z6_CHARACTERS = (
    ("5:0,1,2,1,1,3", 1),
    ("5:0,1,3,3,4,2", 1),
    ("5:0,1,0,1,3,1", 1),
    ("2:0,0,0,0,0,1", 2),
    ("4:0,0,0,1,0,2", 2),
)


def _zn(n):
    gens = ", ".join(f"x{i}" for i in range(1, n + 1))
    rels = ", ".join(f"[x{i},x{j}]" for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return parse_presentation(f"<{gens} | {rels}>")


def _u_vanishes(a, j, chi):
    free = a.abelianization.gen_images[j].free
    return sum(f * e for f, e in zip(free, chi.exponents)) % chi.order == 0


def _route_cases():
    """(matrix, characters) for the corpus plus a knot-like group with torsion.

    Each gets 60 seeded characters, and every presentation with b1 >= 2 also
    gets up to 20 characters with u_0(chi) = 0.
    """
    for p in cross_validation_corpus() + [TREFOIL_TORSION]:
        a = alexander_matrix(p)
        if a.num_vars == 0:
            continue
        chars = sample_characters(a.num_vars, 60, seed=13)
        pool = sample_characters(a.num_vars, 400, seed=14)
        chars += [chi for chi in pool if _u_vanishes(a, 0, chi)][:20]
        yield a, chars


# a cap that no ideal listed in these tests reaches
LARGE_CAP = 10**6


def _listed(a, ds):
    """E_d for each d in `ds`, listed under `LARGE_CAP`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alexander, "DEFAULT_GENERATOR_CAP", LARGE_CAP)
        return {d: elementary_ideal(a, d) for d in ds}


def _vanishes(ideal, chi):
    return not any(any(evaluate(g, chi)) for g in ideal.generators)


class TestOneColumnIdealRoute:
    def test_matches_full_uncapped_ideal(self):
        avoided_later = 0
        for a, chars in _route_cases():
            full = _listed(a, (1, 2, 3))
            for chi in chars:
                j = alexander._avoided_column(a, chi)
                assert not _u_vanishes(a, j, chi)
                avoided_later += j > 0
                for d in (1, 2, 3):
                    expected = _vanishes(full[d], chi)
                    assert elementary_ideal_vanishes_at(a, d, chi) == expected, (a, chi, d)
        assert avoided_later >= 100

    def test_torsion_column_is_never_avoided(self):
        a = alexander_matrix(TREFOIL_TORSION)
        assert a.abelianization.b1 == 1 and a.abelianization.torsion == (2,)
        for chi in sample_characters(1, 20, seed=3):
            assert alexander._avoided_column(a, chi) > 0
        assert elementary_ideal_vanishes_at(a, 1, Character(6, (1,)))
        assert not elementary_ideal_vanishes_at(a, 1, Character(2, (1,)))

    def test_pruned_stream_under_a_small_cap(self, monkeypatch):
        """A cap of 1 prunes every stream longer than one minor; answers stay exact.

        A stream whose first nonzero minor vanishes at chi is refused.
        """
        monkeypatch.setattr(alexander, "DEFAULT_GENERATOR_CAP", 1)
        decided = refused = 0
        for a, chars in _route_cases():
            full = _listed(a, (1, 2))
            for chi in chars:
                for d in (1, 2):
                    expected = _vanishes(full[d], chi)
                    try:
                        got = elementary_ideal_vanishes_at(a, d, chi)
                    except seifert.LimitError as exc:
                        # refused, never answered from part of the ideal
                        assert "DEFAULT_GENERATOR_CAP = 1" in str(exc)
                        refused += 1
                        continue
                    assert got == expected, (a, chi, d)
                    decided += 1
        assert decided > 1000 and refused > 0

    def test_edge_ideals(self):
        chi = Character(6, (1,))
        a = alexander_matrix(TREFOIL)
        assert not elementary_ideal_vanishes_at(a, 2, chi)  # g - d = 0: unit ideal
        s = alexander_matrix(SURFACE_2)
        assert elementary_ideal_vanishes_at(s, 1, Character(3, (1, 0, 2, 0)))  # zero ideal
        with pytest.raises(ValueError):
            elementary_ideal_vanishes_at(a, -1, chi)

    def test_zero_ideal_needs_no_column(self, monkeypatch):
        """Fewer than g - d rows: the zero ideal, answered before a column is chosen."""
        monkeypatch.setattr(alexander, "_avoided_column", None)
        for p, chi in ((FREE_2, Character(2, (1, 1))), (SURFACE_2, Character(3, (1, 0, 2, 0)))):
            assert elementary_ideal_vanishes_at(alexander_matrix(p), 1, chi)

    def test_character_count_checked_before_identity(self):
        a = alexander_matrix(TREFOIL)
        empty = Character(6, ())
        assert empty.is_identity
        for call in (lambda: twisted_h1_dim(TREFOIL, empty),
                     lambda: elementary_ideal_vanishes_at(a, 1, empty)):
            with pytest.raises(ValueError, match="^character has 0 exponents, expected 1$"):
                call()
        with pytest.raises(IdentityCharacterError):
            elementary_ideal_vanishes_at(a, 1, Character(6, (6,)))

    def test_z6_characters_agree(self):
        z6 = _zn(6)
        for spec, d in Z6_CHARACTERS:
            out = cli.run_charvar(z6, cli.parse_character(spec), d, cli.RunConfig())
            assert out["twisted_h1_dim"] == 0
            assert out["ideal_based"] is False and out["agree"] is True, (spec, d)

    def test_run_charvar_never_lists_an_ideal(self, monkeypatch):
        ideals = _count_calls(monkeypatch, "elementary_ideal", alexander, cli)
        cases = [(TREFOIL, Character(6, (1,)), 1), (TREFOIL, Character(2, (1,)), 1),
                 (SURFACE_2, Character(3, (1, 0, 2, 0)), 2), (Z3, Character(4, (1, 0, 3)), 1),
                 (_zn(5), Character(5, (0, 1, 2, 1, 1)), 2)]
        for p, chi, d in cases:
            cli.run_charvar(p, chi, d, cli.RunConfig())
        assert ideals == []


class TestOneMinorStream:
    """Every E_d answer reads one capped stream of minors: exact or refused."""

    def test_z5_alex_is_exact(self):
        p = _zn(5)
        out = cli.run_alex(p, cli.RunConfig(trials=20), [1])
        assert out["delta"] == "1"
        [e1] = out["ideals"]
        assert e1["truncated"] is False
        full = _listed(alexander_matrix(p), (1,))[1]
        assert len(full.generators) == 625
        assert e1["generators"] == [laurent.poly_to_string(g) for g in full.generators]

    def test_listing_is_exact_or_refused(self, monkeypatch):
        cap = 3
        listed = refused = 0
        for p in cross_validation_corpus() + [TREFOIL_TORSION, _zn(4)]:
            full = _listed(alexander_matrix(p), (1, 2, 3))
            monkeypatch.setattr(alexander, "DEFAULT_GENERATOR_CAP", cap)
            a = alexander_matrix(p)
            for d in (1, 2, 3):
                try:
                    got = elementary_ideal(a, d)
                except seifert.LimitError as exc:
                    assert str(exc).startswith(
                        f"listing E_{d} needs more than DEFAULT_GENERATOR_CAP = {cap} "), exc
                    assert len(full[d].generators) > cap, (p, d)
                    refused += 1
                    continue
                assert got == full[d], (p, d)
                listed += 1
            monkeypatch.undo()
        assert listed > 10 and refused > 5

    def test_one_memo_expands_each_minor_once(self, monkeypatch):
        # one memo per order: E_d listings share the Laurent memo, and the
        # jump-locus route expands each folded minor once per order m, shared
        # by every d and every character of that order
        real = alexander._minor
        expanded = Counter()

        def counting(entries, rows, cols, memo, m=0):
            if (rows, cols) not in memo:
                expanded[m, rows, cols] += 1
            return real(entries, rows, cols, memo, m)

        monkeypatch.setattr(alexander, "_minor", counting)
        a = alexander_matrix(_zn(4))
        a.ideal(1)
        a.ideal(2)
        assert {m for m, _, _ in expanded} == {0}
        assert sum(expanded.values()) == len(a._minors)
        listed = Counter(expanded)
        specs = ("4:1,0,3,2", "4:0,1,1,0", "2:0,1,1,0", "3:0,0,1,2")
        for spec in specs:
            chi = cli.parse_character(spec)
            for d in (1, 2):
                elementary_ideal_vanishes_at(a, d, chi)
        streamed = Counter(expanded)
        for spec in specs:
            chi = cli.parse_character(spec)
            for d in (1, 2):
                elementary_ideal_vanishes_at(a, d, chi)
        assert expanded == streamed  # a second pass expands nothing
        assert max(expanded.values()) == 1
        folded = streamed - listed
        assert folded and all(m for m, _, _ in folded)
        assert sorted(a._folded_minors) == [2, 3, 4]
        for m, memo in a._folded_minors.items():
            assert sum(1 for key in expanded if key[0] == m) == len(memo)
            for key, minor in memo.items():
                # each is the image of the listed Laurent minor in Z[H_1/m]
                assert minor == laurent.fold(a._minors[key], m)


# orders at which the folded ideal route is checked against Laurent minors
FOLD_ORDERS = tuple(range(2, 13)) + (1021,)


def _oracle_presentations():
    rng = random.Random(41)
    return (cross_validation_corpus() + [TREFOIL_TORSION, _zn(5)]
            + [_conjugation_presentation(rng) for _ in range(3)]
            + [parse_presentation(sum_pattern_text(rng, 60)) for _ in range(2)])


class TestFoldedMinors:
    """The ideal route folds its minors to the character's order m."""

    def test_folded_ideal_test_matches_laurent_minors(self):
        rng = random.Random(43)
        answers = Counter()
        for p in _oracle_presentations():
            a = alexander_matrix(p)
            if a.num_vars == 0:
                continue
            ds = range(1, min(a.num_generators, 4))
            full = _listed(a, ds)
            for m in FOLD_ORDERS:
                chars = {Character(m, tuple(rng.randrange(m) for _ in range(a.num_vars)))
                         for _ in range(3)}
                for chi in chars - {Character(m, (0,) * a.num_vars)}:
                    h1 = twisted_h1_dim(a, chi)
                    for d in ds:
                        got = elementary_ideal_vanishes_at(a, d, chi)
                        # the Laurent minors evaluated at chi, and the rank route
                        assert got == _vanishes(full[d], chi), (format_presentation(p), chi, d)
                        assert got == (h1 >= d), (format_presentation(p), chi, d)
                        answers[got] += 1
            # every minor the route read is the image of the Laurent minor
            for m, memo in a._folded_minors.items():
                for key, minor in memo.items():
                    assert minor == laurent.fold(a._minors[key], m), (format_presentation(p), m)
        assert answers[True] > 100 and answers[False] > 100

    def test_cap_counts_folded_minors(self, monkeypatch):
        # at chi = (-1, 1, 1) the five nonzero 2-minors avoiding column 0 all
        # vanish, and all of them fold to 0 mod 2: read folded, the stream
        # decides under a cap of 4, where the Laurent stream is refused
        p = parse_presentation("<x, y, z | [x^2, y], [x^2, z], [y^2, z], [x^2, y^2]>")
        chi = Character(2, (1, 0, 0))
        monkeypatch.setattr(alexander, "DEFAULT_GENERATOR_CAP", 4)
        a = alexander_matrix(p)
        assert alexander._avoided_column(a, chi) == 0
        with pytest.raises(seifert.LimitError):
            list(alexander._nonzero_minors(a, 2, range(4), (1, 2), "the Laurent stream"))
        assert list(alexander._nonzero_minors(a, 2, range(4), (1, 2), "folded", 2)) == []
        assert elementary_ideal_vanishes_at(a, 1, chi) is True
        assert twisted_h1_dim(a, chi) >= 1

    def test_no_minor_no_fold(self, monkeypatch):
        # a zero or unit ideal reads no minor, so nothing is folded
        folds = _count_calls(monkeypatch, "fold", laurent, alexander)
        for p, chi, d in ((SURFACE_2, Character(3, (1, 0, 2, 0)), 1),
                          (FREE_2, Character(4, (1, 3)), 1), (TREFOIL, Character(6, (1,)), 2)):
            cli.run_charvar(p, chi, d, cli.RunConfig())
        assert folds == []


# -- Tietze moves: the group, and so Delta and each V_d, stays the same ------

def _conjugate_relator(rng, p):
    i = rng.randrange(p.num_relators)
    w = random_word(rng, p.num_generators, rng.randint(1, 3))
    rels = list(p.relators)
    rels[i] = w * rels[i] * w.inverse()
    return Presentation(p.generator_names, tuple(rels))


def _multiply_relators(rng, p):
    i, j = rng.sample(range(p.num_relators), 2)
    rels = list(p.relators)
    rels[i] = rels[i] * (rels[j] if rng.random() < 0.5 else rels[j].inverse())
    return Presentation(p.generator_names, tuple(rels))


def _add_generator(rng, p):
    # a new generator s with the defining relator s^-1 w
    g = p.num_generators
    w = random_word(rng, g, rng.randint(1, 4))
    return Presentation(p.generator_names + (f"s{g}",),
                        p.relators + (Word.generator(g, -1) * w,))


TIETZE_BASES = (TREFOIL, FIGURE_EIGHT, TORUS_2_5, Z2, Z3, HEISENBERG, DOUBLE_COMM,
                SURFACE_2, TREFOIL_TORSION)


def _left_inverse(rows):
    """An integer L with L * rows = 1, for integer rows that span Z^b.

    The Smith form's column operations V give rows^T V = (W | 0) with W
    unimodular, so L^T = V_b W^-1 for the first b columns V_b of V; W^-1
    is det(W) adj(W).
    """
    b = len(rows[0])
    snf = smith_normal_form(list(zip(*rows)))
    assert snf.diagonal == (1,) * b
    v = [row[:b] for row in snf.right]
    w = mat_mul(tuple(zip(*rows)), v)

    def minor(i, j):
        return [row[:j] + row[j + 1:] for k, row in enumerate(w) if k != i]

    det = int_det(w)
    inverse = [[(-1) ** (i + j) * det * int_det(minor(j, i)) for j in range(b)] for i in range(b)]
    return tuple(zip(*mat_mul(v, inverse)))


class TestTietzeMoves:
    def test_delta_and_jump_loci_survive_tietze_moves(self):
        """After 1-3 seeded moves, Delta agrees up to units and the change of
        basis of H_1's free part, and twisted_h1_dim and the ideal route
        agree at every transported character."""
        for seed in range(150):
            rng = random.Random(seed)
            base = rng.choice(TIETZE_BASES)
            p = base
            for _ in range(rng.randint(1, 3)):
                moves = [_conjugate_relator, _add_generator]
                if p.num_relators > 1:
                    moves.append(_multiply_relators)
                p = rng.choice(moves)(rng, p)
            a, b = alexander_matrix(base), alexander_matrix(p)
            n = a.num_vars
            assert b.num_vars == n, f"seed {seed}"
            # x_j has coordinates old_j in a's basis of H_1's free part and
            # new_j in b's: old = new * (L old) with L new = 1
            old = [img.free for img in a.abelianization.gen_images]
            new = [img.free for img in b.abelianization.gen_images[:base.num_generators]]
            lift = _left_inverse(new)
            to_old = mat_mul(lift, old)
            moved = LaurentPoly(n, {tuple(mat_mul((y,), to_old)[0]): c
                                    for y, c in b.delta.terms.items()})
            assert normalize_unit(moved) == a.delta, f"seed {seed}: {format_presentation(p)}"
            for chi in sample_characters(n, 4, seed):
                values = mat_mul(old, tuple((e,) for e in chi.exponents))
                moved_chi = Character(chi.order, tuple(e % chi.order for (e,) in
                                                       mat_mul(lift, values)))
                assert twisted_h1_dim(b, moved_chi) == twisted_h1_dim(a, chi), f"seed {seed}"
                for d in (1, 2):
                    assert (elementary_ideal_vanishes_at(b, d, moved_chi)
                            == elementary_ideal_vanishes_at(a, d, chi)), f"seed {seed}, d = {d}"
