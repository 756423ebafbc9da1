"""The package is pure stdlib and exact: no float literal, call or value, no dependency.

Statically, every module under src/jumploci is parsed and searched for float
literals, calls of `float`, and imports from outside the stdlib, and
pyproject.toml must declare no dependencies.  At run time the elimination
kernel is wrapped (in `_linalg` and under the name `holonomy` imported) and a
float anywhere in a basis it keeps fails the test.  Rational rows are stored
as integer rows and reduced without division, and the kernel refuses a row
that holds a float, as the API refuses a float index, order or entry, and a
`LaurentPoly` or `Word` a float or `Fraction` exponent, coefficient or power.
"""

import ast
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jumploci import (
    Character,
    LaurentPoly,
    QuadraticData,
    ThreeForm,
    cyclotomic_polynomial,
    euler_phi,
    holonomy_from_threeform,
    is_isotropic,
    isotropy_lower_bound,
    lie_ranks,
    parse_presentation,
    smith_normal_form,
    twisted_h1_dim,
    Word,
)
from jumploci import _linalg, holonomy
from jumploci._linalg import rank
from jumploci.resonance import Subspace, contraction_matrix, in_r1
from jumploci.seifert import brieskorn_seifert

from _corpus import random_invertible_matrix, random_threeform

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "jumploci").glob("*.py"))


def _violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append(f"{path.name}:{node.lineno}: call of float")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                top = name.split(".")[0]
                if top != "jumploci" and top not in sys.stdlib_module_names:
                    out.append(f"{path.name}:{node.lineno}: non-stdlib import {name}")
    return out


def test_sources_have_no_float_and_only_stdlib_imports():
    assert MODULES
    problems = [v for path in MODULES for v in _violations(path)]
    assert problems == []


def test_static_check_catches_each_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy\nfrom scipy import linalg\nx = 0.5\ny = float(3)\n"
                   "from . import sibling\nfrom fractions import Fraction\n")
    assert [v.split(": ", 1)[1] for v in _violations(bad)] == [
        "non-stdlib import numpy", "non-stdlib import scipy",
        "float literal 0.5", "call of float",
    ]


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies\s*=\s*\[\s*\]\s*$", text, re.M)


def _floats_in(value):
    if isinstance(value, float):
        return True
    return any(isinstance(c, float) for c in getattr(value, "coeffs", ()))


@pytest.fixture
def float_guard(monkeypatch):
    """Wrap the kernel; record every basis that holds a float after an insert."""
    real = _linalg.echelon_insert
    seen = {"calls": 0, "floats": []}

    def guarded(basis, vec):
        pivot = real(basis, vec)
        seen["calls"] += 1
        for key, row in basis.items():
            if any(_floats_in(x) for x in row.values()):
                seen["floats"].append((key, dict(row)))
        return pivot

    monkeypatch.setattr(_linalg, "echelon_insert", guarded)
    monkeypatch.setattr(holonomy, "echelon_insert", guarded)
    return seen


def test_no_float_enters_a_basis(float_guard):
    rng = random.Random(7)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
            for _ in range(4)]
    rank(rows)
    for g in (2, 3):
        eta = ThreeForm.product_form(g).transform(random_invertible_matrix(rng, 2 * g + 1))
        assert is_isotropic(eta, isotropy_lower_bound(eta).witness)
    for n in (4, 6, 8):
        isotropy_lower_bound(random_threeform(rng, n, density=0.4))
    isotropy_lower_bound(ThreeForm(6, {(0, 1, 2): 1}).transform(random_invertible_matrix(rng, 6)))
    trefoil = parse_presentation("<x, y | x y x y^-1 x^-1 y^-1>")
    assert twisted_h1_dim(trefoil, Character(6, (1,))) == 1
    lie_ranks(holonomy_from_threeform(ThreeForm.product_form(2)), 4)
    lie_ranks(QuadraticData(3, ((1, 0, 0),)), 4)
    assert float_guard["calls"] > 0
    assert float_guard["floats"] == []


def test_guard_sees_an_int_vector(float_guard):
    # an int row stays an int row: no division, so no float
    basis = {}
    _linalg.echelon_insert(basis, {0: 2, 1: 1})
    _linalg.echelon_insert(basis, {0: 3, 1: 4, 2: 6})
    assert all(type(x) is int for row in basis.values() for x in row.values())
    assert float_guard["calls"] == 2
    assert float_guard["floats"] == []
    # a row that holds a float is refused before any arithmetic
    with pytest.raises(TypeError):
        _linalg.echelon_insert({}, {0: 2, 1: 0.5})
    with pytest.raises(TypeError):
        _linalg.rank([[0.1, 0.3], [0.3, 0.9]])  # exact rank 1; float elimination reads 2
    assert float_guard["floats"] == []


def test_threeform_refuses_a_float_coefficient():
    # Fraction(0.1) would keep the binary value 3602879701896397 / 2^55
    for c in (0.5, 0.1, 2.0):
        with pytest.raises(TypeError):
            ThreeForm(3, {(0, 1, 2): c})
    with pytest.raises(TypeError):
        ThreeForm(4, {(0, 1, 2): 1, (1, 2, 3): "1/2"})
    eta = ThreeForm(4, {(0, 1, 2): 2, (1, 2, 3): Fraction(1, 2)})
    assert eta.coeffs == {(0, 1, 2): 2, (1, 2, 3): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in eta.coeffs.values())


@pytest.mark.parametrize("call", [
    lambda: ThreeForm(3, {(0.9, 1, 2): 1}),  # int() reads it as the volume form
    lambda: ThreeForm(3.0, {(0, 1, 2): 1}),
    lambda: QuadraticData(2, ((0.1,),)),  # Fraction(0.1) is 3602879701896397 / 2^55
    lambda: QuadraticData(2.0, ((1,),)),
    lambda: in_r1(ThreeForm.volume(), (0.1, 0, 0)),  # not a rational point
    lambda: contraction_matrix(ThreeForm.volume(), (0.5, 0, 0)),
    lambda: ThreeForm.volume().contract_pair((1, 0, 0), (0, 0.5, 0)),
    lambda: Subspace(3, [(1, 0.5, 0)]),
    lambda: Subspace(3.0, [(1, 0, 0)]),
    lambda: Character(6, (1.5,)),  # int() reads it as exponent 1
    lambda: Character(6.0, (1,)),
    lambda: Character(6, (True,)),
    lambda: cyclotomic_polynomial(m=12) and cyclotomic_polynomial(m=12.0),  # one key if the cache is untyped
    lambda: euler_phi(12.0),
    lambda: brieskorn_seifert((2.5, 3, 5)),  # int() reads it as (2, 3, 5)
    lambda: LaurentPoly(1, {(1.5,): 1}),  # int() reads it as t
    lambda: LaurentPoly(1, {(1,): Fraction(3, 2)}),
    lambda: LaurentPoly.constant(1, 2.5),  # int() reads it as 2
    lambda: LaurentPoly.variable(2, 0) ** 2.7,  # int() reads it as t1^2
    lambda: LaurentPoly(1.9, {}),  # int() reads it as one variable
    lambda: Word.generator(0) ** 2.5,  # int() reads it as x x
    lambda: Word(((Fraction(1), 1),)),
    lambda: smith_normal_form([[2.7, 0], [0, 4.2]]),  # int() reads it as diag(2, 4)
    lambda: smith_normal_form([[Fraction(5, 2)]]),  # int() reads it as 2
    lambda: ThreeForm.volume().transform([[0.1, 0, 0], [0, 1, 0], [0, 0, 1]]),  # binary 0.1
], ids=["threeform-index", "threeform-n", "quadratic-entry", "quadratic-n", "in_r1",
        "contraction", "contract_pair", "subspace-entry", "subspace-n", "character-exponent",
        "character-order", "character-bool", "cyclotomic-order", "euler-phi-order", "brieskorn", "laurent-exponent",
        "laurent-coefficient", "laurent-constant", "laurent-power", "laurent-num-vars",
        "word-power", "word-letter", "smith-float", "smith-fraction", "transform-float"])
def test_api_refuses_a_float_index_order_or_entry(call):
    with pytest.raises(TypeError):
        call()

