"""Start-up cost: a process loads only the modules its subcommand runs.

Each case runs in a fresh interpreter, since this test process has long
imported every module.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import jumploci
from jumploci import _limits, holonomy, presentation, seifert

SRC = pathlib.Path(jumploci.__file__).parents[1]

# what `from jumploci import *` bound when the package imported every
# submodule eagerly: the six computing modules and their exports
EXPORTS = {
    "alexander": [
        "AlexanderMatrix", "AlmostPrincipalReport", "ElementaryIdeal", "IdentityCharacterError",
        "alexander_matrix", "almost_principal_sampled", "elementary_ideal",
        "elementary_ideal_vanishes_at", "in_vd", "sample_characters", "twisted_h1_dim",
    ],
    "holonomy": [
        "GradedRanks", "QuadraticData", "holonomy_from_threeform", "lie_ranks", "lyndon_words",
        "wedge_basis",
    ],
    "laurent": [
        "Character", "LaurentPoly", "cyclotomic_polynomial", "euler_phi", "evaluate", "fold",
        "gcd_all", "normalize_unit", "poly_to_string", "try_divide",
    ],
    "presentation": [
        "Abelianization", "Presentation", "PresentationParseError", "SmithNormalForm", "Word",
        "abelianization", "format_presentation", "format_word", "fox_derivative",
        "parse_presentation", "parse_word", "presentation_from_json", "smith_normal_form",
        "word_image",
    ],
    "resonance": [
        "IsotropyWitness", "MalcevClass", "MalcevKind", "R1FullnessReport", "Subspace",
        "ThreeForm", "classify_malcev", "contraction_matrix", "corank_of_class", "in_r1",
        "is_generic", "is_isotropic", "isotropy_lower_bound", "r1_fullness",
        "restriction_rank", "zero_vector_in_r1",
    ],
    "seifert": [
        "BrieskornInput", "ComponentReport", "IntegralityError", "Orbit", "SeifertData",
        "TangentConeReport", "TorsionData", "brieskorn_seifert", "integer_obstruction",
        "is_one_formal_link", "tangent_cone_report", "torsion_data", "v1_components",
    ],
}

AT_IMPORT = ["jumploci", "jumploci._limits", "jumploci.cli"]

_PRINT_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'jumploci')))\n"
)


def _probe(code):
    """Run `code` in a fresh interpreter on this package; its stdout read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def _loaded_by(argv):
    """The jumploci modules loaded once `argv` has run through `cli.main`."""
    return set(_probe(
        "import contextlib, io, jumploci.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert jumploci.cli.main({argv!r}) == 0\n" + _PRINT_LOADED))


@pytest.fixture
def inputs(tmp_path):
    trefoil = tmp_path / "trefoil.grp"
    trefoil.write_text("<x, y | x y x y^-1 x^-1 y^-1>\n")
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": 5, "terms": [{"i": 1, "j": 2, "k": 3, "c": 1},
                                                  {"i": 1, "j": 4, "k": 5, "c": "2/3"}]}))
    return str(trefoil), str(form)


def test_cli_import_loads_no_computing_module():
    assert _probe("import jumploci.cli\n" + _PRINT_LOADED) == AT_IMPORT


def test_brieskorn_loads_only_seifert():
    assert _loaded_by(["brieskorn", "2,3,7"]) == {*AT_IMPORT, "jumploci.seifert"}


@pytest.mark.parametrize("command", ["alex", "charvar"])
def test_group_commands_skip_the_form_modules(inputs, command):
    trefoil, _ = inputs
    argv = ["alex", trefoil] if command == "alex" else ["charvar", trefoil, "6:1"]
    loaded = _loaded_by(argv)
    assert {"jumploci.alexander", "jumploci.presentation"} <= loaded
    assert not loaded & {"jumploci.resonance", "jumploci.holonomy"}


@pytest.mark.parametrize("command", ["classify", "holonomy"])
def test_form_commands_skip_the_group_modules(inputs, command):
    # the fixture's form is not full, so a witness decides `classify` and no
    # Laurent polynomial is built
    _, form = inputs
    loaded = _loaded_by([command, form])
    assert "jumploci.resonance" in loaded
    assert not loaded & {"jumploci.presentation", "jumploci.alexander", "jumploci.laurent"}


def test_symbolic_expansion_loads_the_laurent_ring(tmp_path):
    # e1 e2 e3 on n = 5 is full, so no witness exists and the sub-Pfaffian is expanded
    form = tmp_path / "padded.json"
    form.write_text(json.dumps({"n": 5, "terms": [{"i": 1, "j": 2, "k": 3, "c": 1}]}))
    loaded = _loaded_by(["classify", str(form)])
    assert {"jumploci.resonance", "jumploci.laurent"} <= loaded
    assert not loaded & {"jumploci.presentation", "jumploci.alexander"}


def test_star_import_binds_the_same_names_and_objects():
    names, mismatched = _probe(
        "import importlib, json\n"
        "names = {}\n"
        "exec('from jumploci import *', names)\n"
        "del names['__builtins__']\n"
        f"exports = {EXPORTS!r}\n"
        "mismatched = []\n"
        "for module, owned in exports.items():\n"
        "    owner = importlib.import_module(f'jumploci.{module}')\n"
        "    if names[module] is not owner:\n"
        "        mismatched.append(module)\n"
        "    mismatched += [n for n in owned if names[n] is not getattr(owner, n)]\n"
        "print(json.dumps([sorted(names), mismatched]))\n")
    assert names == sorted([*EXPORTS, *(n for owned in EXPORTS.values() for n in owned)])
    assert mismatched == []


def test_dir_lists_every_export():
    assert set(jumploci.__all__) <= set(dir(jumploci))


def test_unknown_attribute_raises():
    assert _probe(
        "import json, jumploci\n"
        "try:\n"
        "    jumploci.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n") == "module 'jumploci' has no attribute 'no_such_name'"


def test_a_patched_function_is_seen_through_the_package(monkeypatch):
    def patched(*args, **kwargs):
        return None

    monkeypatch.setattr(seifert, "torsion_data", patched)
    assert jumploci.torsion_data is patched
    monkeypatch.undo()
    assert jumploci.torsion_data is seifert.torsion_data


def test_shared_names_are_the_same_objects():
    assert seifert.LimitError is _limits.LimitError
    assert seifert.IntegralityError is _limits.IntegralityError
    assert seifert.MAX_INVARIANT_BITS is _limits.MAX_INVARIANT_BITS
    assert presentation.PresentationParseError is _limits.PresentationParseError
    assert holonomy.DEFAULT_DEGREE_CAP is _limits.DEFAULT_DEGREE_CAP
    assert holonomy.MAX_DEGREE_CAP is _limits.MAX_DEGREE_CAP
