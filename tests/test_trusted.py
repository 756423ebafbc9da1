"""Trusted constructors: every result built without checks equals a checked copy.

`LaurentPoly._of`, `Word._of`, `Character._of` and `Presentation._of` take
data the package built itself and skip the checks of the public
constructors, and `laurent._folded_mul` multiplies two folded polynomials
reducing exponents as it goes.  The property tests rebuild each result
through the checking constructor (or `fold(p * q, m)`) and compare; the
boundary test reads the sources and pins where the trusted calls may stand.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jumploci import (
    Character,
    LaurentPoly,
    Presentation,
    Word,
    fold,
    gcd_all,
    normalize_unit,
    parse_presentation,
    try_divide,
)
from jumploci.alexander import CHARACTER_ORDERS, alexander_matrix, sample_characters
from jumploci.laurent import _folded_mul
from jumploci.presentation import commutator, format_presentation, parse_word

from _corpus import cross_validation_corpus, sum_pattern_text

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jumploci"

# the modules that build data themselves and may hand it to a trusted call
TRUSTING = {"laurent", "presentation", "alexander"}


def _assert_canonical(r, n):
    """r equals its re-validated copy, with no zero coefficient and int exponents."""
    assert isinstance(r, LaurentPoly) and r.num_vars == n
    assert r == LaurentPoly(n, dict(r.terms))
    for e, c in r.terms.items():
        assert type(c) is int and c != 0
        assert type(e) is tuple and len(e) == n and all(type(x) is int for x in e)


def _assert_word(w):
    assert w == Word(w.letters)
    assert type(w.letters) is tuple
    assert all(type(g) is int and s in (1, -1) for g, s in w.letters)


def _poly(draw, st, n, max_exp=3):
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-5, 5), max_size=5))
    return LaurentPoly(n, terms)


def _folded(draw, st, n, m):
    exps = st.tuples(*[st.integers(0, m - 1)] * n)
    return LaurentPoly(n, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=6)))


def _settings(hypothesis, examples=150):
    return hypothesis.settings(max_examples=examples, deadline=None, derandomize=True,
                               suppress_health_check=list(hypothesis.HealthCheck))


def test_laurent_results_are_canonical():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @_settings(hypothesis)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(0, 3))
        p, q = _poly(data.draw, st, n), _poly(data.draw, st, n)
        shift = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
        results = [p + q, p - q, q - p, -p, p * q, p + 2, 3 - p, p * -1, p ** 2,
                   p.shift(shift), normalize_unit(p)]
        if n <= 2:  # a pseudo-remainder sequence in three variables can run long
            results.append(gcd_all([p, q]))
        if not q.is_zero:
            results.append(try_divide(p * q, q))
            assert results[-1] == p
        m = data.draw(st.integers(1, 7))
        results += [fold(p, m), fold(p * q, m)]
        for r in results:
            _assert_canonical(r, n)

    check()


def test_folded_product_equals_fold_of_the_product():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @_settings(hypothesis, examples=200)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(0, 3))
        m = data.draw(st.integers(1, 6))
        p, q = _folded(data.draw, st, n, m), _folded(data.draw, st, n, m)
        r = _folded_mul(p, q, m)
        _assert_canonical(r, n)
        assert r == fold(p * q, m)
        assert all(0 <= x < m for e in r.terms for x in e)

    check()


def test_word_results_equal_checked_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=12)

    @_settings(hypothesis)
    @hypothesis.given(letters, letters, st.integers(-4, 4))
    def check(a, b, k):
        u, v = Word(a), Word(b)
        results = {
            "product": (u * v, Word(a + b)),
            "inverse": (u.inverse(), Word([(g, -s) for g, s in reversed(a)])),
            "power": (u ** k, Word((a if k >= 0 else [(g, -s) for g, s in reversed(a)])
                                   * abs(k))),
            "commutator": (commutator(u, v), Word(u.letters + v.letters)
                           * Word(u.letters).inverse() * v.inverse()),
        }
        for name, (got, want) in results.items():
            _assert_word(got)
            assert got == want, name
        names = ("a", "b", "c")
        text = " ".join(names[g] + ("" if s == 1 else "^-1") for g, s in a) or "1"
        parsed = parse_word(text, names)
        _assert_word(parsed)
        assert parsed == u

    check()


def test_parsed_presentations_and_sampled_characters_equal_checked_copies():
    texts = [format_presentation(p) for p in cross_validation_corpus()]
    texts += ["<x, y | x^1003 y^-1>", "<a, b | [[a, b]^3, a^-2]>",
              sum_pattern_text(random.Random(3), 60)]
    for text in texts:
        p = parse_presentation(text)
        assert p == Presentation(p.generator_names, p.relators)
        assert type(p.generator_names) is tuple and type(p.relators) is tuple
        for w in p.relators:
            _assert_word(w)
        a = alexander_matrix(p)
        for row in a.entries:
            for e in row:
                _assert_canonical(e, a.num_vars)
    for n in (1, 2, 4):
        for seed in range(5):
            drawn = sample_characters(n, 30, seed)
            assert drawn == _reference_sample(n, 30, seed)
            for chi in drawn:
                assert chi == Character(chi.order, chi.exponents)
                assert hash(chi) == hash(Character(chi.order, chi.exponents))
                assert type(chi.exponents) is tuple and not chi.is_identity


def test_public_entry_points_of_trusted_paths_check_their_arguments():
    # `fold` and `shift` hand their results to `LaurentPoly._of`, so they read
    # the order and the exponent vector with `operator.index` themselves
    t = LaurentPoly.variable(1, 0)
    for call in (lambda: fold(t, 2.5), lambda: t.shift((1.5,)),
                 lambda: t.shift((Fraction(1),))):
        with pytest.raises(TypeError):
            call()
    assert fold(t ** 3, True) == LaurentPoly.constant(1, 1)


def _reference_sample(num_vars, count, seed):
    """The draw through the checking constructor, skipping the identity by its test."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.choice(CHARACTER_ORDERS)
        chi = Character(m, tuple(rng.randrange(m) for _ in range(num_vars)))
        if not chi.is_identity:
            out.append(chi)
    return out


def _trusted_calls(path):
    """(line, name) of every call of an `_of` constructor or of `_folded_mul`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name in ("_of", "_folded_mul"):
            out.append((node.lineno, name))
    return out


def test_trusted_calls_stay_inside_the_building_modules():
    calls = {path.stem: _trusted_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    outside = {module: found for module, found in calls.items()
               if found and module not in TRUSTING}
    assert outside == {}
    # the input boundary checks what it reads and never trusts it
    assert calls["cli"] == []
    # each trusting module does use the trusted path
    assert all(calls[module] for module in TRUSTING)
    assert any(name == "_folded_mul" for _, name in calls["alexander"])


def test_trusted_call_scan_sees_both_forms(tmp_path):
    f = tmp_path / "sample.py"
    f.write_text("LaurentPoly._of(1, {})\nx = _folded_mul(p, q, 3)\nWord(())\n")
    assert _trusted_calls(f) == [(1, "_of"), (2, "_folded_mul")]
