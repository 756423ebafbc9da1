"""Acceptance suite: one criterion per test, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance here is exact (integer or rational
equality); runtime bounds are wall-clock seconds.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import wraps

from jumploci import (
    Character,
    LaurentPoly,
    ThreeForm,
    alexander_matrix,
    classify_malcev,
    corank_of_class,
    elementary_ideal,
    elementary_ideal_vanishes_at,
    in_r1,
    in_vd,
    is_generic,
    is_isotropic,
    is_one_formal_link,
    isotropy_lower_bound,
    restriction_rank,
    sample_characters,
    tangent_cone_report,
    torsion_data,
    v1_components,
)
from jumploci.cli import main
from jumploci.resonance import Subspace
from jumploci.seifert import SeifertData, brieskorn_seifert, integer_obstruction, sweep

import _corpus
from _corpus import cross_validation_corpus, random_nonzero_vector, random_threeform

import random


def criterion(number, label, limit_seconds):
    def decorate(fn):
        @wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {number} ({label}): FAIL ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)")
            assert elapsed <= limit_seconds, (
                f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
            )
        return wrapper
    return decorate


@criterion(1, "Brieskorn golden suite and exhaustive sweep", 10.0)
def test_criterion_1_brieskorn():
    golden_start = time.perf_counter()

    s336 = brieskorn_seifert((3, 3, 6))
    assert [(o.alpha, o.beta, o.multiplicity) for o in s336.orbits] == [(2, 1, 3)]
    assert s336.genus == 1 and s336.euler == Fraction(-3, 2)
    t336 = torsion_data(s336)
    assert (t336.torsion_order, t336.fiber_class_order, t336.alpha) == (12, 3, 4)
    c336 = v1_components(s336)
    assert c336.positive_dim_count == 3 and c336.component_dim == 2
    assert not c336.includes_identity_component

    for exps, e in (((2, 3, 6), -1), ((2, 4, 4), -2), ((3, 3, 3), -3)):
        s = brieskorn_seifert(exps)
        assert s.orbits == () and s.genus == 1 and s.euler == e
        assert torsion_data(s).alpha == 1
        assert v1_components(s).positive_dim_count == 0

    s235 = brieskorn_seifert((2, 3, 5))
    assert s235.genus == 0 and s235.euler == Fraction(-1, 30)
    assert is_one_formal_link(s235)

    assert time.perf_counter() - golden_start < 1.0, "golden suite must run in < 1s"

    for n in (3, 4):
        for _, record in sweep(12, n):
            t = record["torsion"]
            assert t.torsion_order == t.fiber_class_order * t.alpha
            assert record["obstruction"] == integer_obstruction(record["seifert"])


@criterion(2, "Alexander suite", 1.0)
def test_criterion_2_alexander():
    t = LaurentPoly.variable(1, 0)
    assert alexander_matrix(_corpus.TREFOIL).delta == t * t - t + 1
    assert alexander_matrix(_corpus.Z2).delta == LaurentPoly.one(2)
    assert elementary_ideal(alexander_matrix(_corpus.FREE_2), 1).is_zero
    assert elementary_ideal(alexander_matrix(_corpus.SURFACE_2), 1).is_zero


@criterion(3, "characteristic-variety cross-validation", 30.0)
def test_criterion_3_cross_validation():
    corpus = cross_validation_corpus()
    assert len(corpus) >= 10
    exceptions = 0
    for p in corpus:
        a = alexander_matrix(p)
        if a.num_vars == 0:
            continue
        for chi in sample_characters(a.num_vars, 50, seed=2024):
            for d in (1, 2):
                if in_vd(p, chi, d) != elementary_ideal_vanishes_at(a, d, chi):
                    exceptions += 1
    assert exceptions == 0


@criterion(4, "resonance suite", 10.0)
def test_criterion_4_resonance():
    rng = random.Random(404)
    # (a) even-dimensional forms: every nonzero vector resonates
    for _ in range(200):
        n = rng.choice((2, 4, 6))
        eta = random_threeform(rng, n)
        assert in_r1(eta, random_nonzero_vector(rng, n))
    # (b) the n = 5 model form is generic; its zero-padded variant is not
    assert is_generic(ThreeForm.product_form(2))
    assert not is_generic(ThreeForm(5, {(0, 1, 2): 1}))
    # (c) the full space is never 1-isotropic
    for _ in range(200):
        n = rng.randint(3, 6)
        eta = random_threeform(rng, n)
        full = Subspace.coordinate(n, tuple(range(n)))
        assert restriction_rank(eta, full) != 1
    # (d) classification of the model cases
    free4 = classify_malcev(ThreeForm.zero(4))
    assert free4.kind.value == "Free" and free4.rank == 4 and free4.corank == 4
    vol = classify_malcev(ThreeForm.volume())
    assert vol.kind.value == "ZxSurface" and vol.genus == 1 and vol.corank == 1
    model = classify_malcev(ThreeForm.product_form(2))
    assert model.kind.value == "ZxSurface" and model.genus == 2
    assert model.corank == 2 and model.isotropy_index == 2


@criterion(5, "isotropy search", 5.0)
def test_criterion_5_isotropy():
    for g in (1, 2, 3):
        eta = ThreeForm.product_form(g)
        result = isotropy_lower_bound(eta, seed=0)
        assert result.dimension == g
        assert is_isotropic(eta, result.witness)
        assert result.dimension <= corank_of_class(classify_malcev(eta))
    for n in (2, 4, 6):
        result = isotropy_lower_bound(ThreeForm.zero(n), seed=0)
        assert result.dimension == n


@criterion(6, "holonomy ranks", 20.0)
def test_criterion_6_holonomy():
    from test_holonomy import _closure_ideal_dimension, witt_dimension
    from jumploci import QuadraticData, lie_ranks, wedge_basis

    for n in (2, 3):
        ranks = lie_ranks(QuadraticData(n, ()), 6).ranks
        assert ranks == tuple(witt_dimension(n, d) for d in range(1, 7))
    pairs = wedge_basis(4)
    sym = [Fraction(0)] * len(pairs)
    sym[pairs.index((0, 1))] = Fraction(1)
    sym[pairs.index((2, 3))] = Fraction(1)
    assert lie_ranks(QuadraticData(4, (tuple(sym),)), 2).ranks[1] == 5
    rel = (Fraction(1),)
    ranks = lie_ranks(QuadraticData(2, (rel,)), 4).ranks
    assert ranks == (2, 0, 0, 0)
    for d in range(2, 5):
        assert ranks[d - 1] == witt_dimension(2, d) - _closure_ideal_dimension(2, [rel], d)


@criterion(7, "tangent-cone verdicts", 5.0)
def test_criterion_7_tangent_cone():
    for g in range(8):
        s = SeifertData(orbits=(), genus=g, euler=Fraction(-1))
        assert tangent_cone_report(s).formula_holds == (g != 1)
    assert not tangent_cone_report(brieskorn_seifert((2, 3, 6))).formula_holds
    assert tangent_cone_report(brieskorn_seifert((2, 3, 5))).formula_holds
    assert tangent_cone_report(brieskorn_seifert((6, 10, 15))).formula_holds


@criterion(8, "deterministic JSON output", 30.0)
def test_criterion_8_determinism(tmp_path_factory=None):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trefoil = tmp / "trefoil.grp"
        trefoil.write_text("<x, y | x y x y^-1 x^-1 y^-1>\n")
        surface = tmp / "surface.grp"
        surface.write_text("<x1, y1, x2, y2 | [x1,y1] [x2,y2]>\n")
        form = tmp / "model.form"
        form.write_text(json.dumps({
            "n": 5,
            "terms": [{"i": 1, "j": 2, "k": 5, "c": 1}, {"i": 3, "j": 4, "k": 5, "c": 1}],
        }))
        commands = [
            ["--seed", "7", "--trials", "25", "alex", str(trefoil)],
            ["--seed", "7", "--trials", "25", "alex", str(surface), "--ideal-d", "1", "--ideal-d", "2"],
            ["charvar", str(trefoil), "6:1", "--d", "1"],
            ["charvar", str(surface), "3:1,0,2,0", "--d", "2"],
            ["classify", str(form)],
            ["brieskorn", "3,3,6"],
            ["brieskorn", "2,3,5"],
            ["brieskorn", "sweep", "--max", "5", "--n", "3"],
            ["holonomy", str(form), "--degree", "4"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = main(argv)
                assert code == 0, argv
                outputs.append(buf.getvalue().encode())
            assert outputs[0] == outputs[1], f"non-deterministic output for {argv}"


def test_large_power_alex_budget(tmp_path):
    # x^32000 is expanded and freely reduced in one pass; a quadratic word
    # power took longer than 20 s here
    f = tmp_path / "power.grp"
    f.write_text("<x | x^32000>\n")
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = main(["alex", str(f)])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(buf.getvalue())
    assert report["b1"] == 0 and report["torsion"] == [32000]
    assert report["matrix"] == [["32000"]]
    assert elapsed < 5.0, f"alex on <x | x^32000> took {elapsed:.2f}s"
