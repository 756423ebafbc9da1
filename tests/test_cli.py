"""CLI behaviour: outputs, schemas, determinism, error records."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

import jumploci
from jumploci import alexander, cli, holonomy, laurent, resonance, seifert
from jumploci.cli import MAX_CHARACTER_DIGITS, MAX_TRIALS, RunConfig, main, parse_character
from jumploci.presentation import MAX_COMMUTATOR_DEPTH, format_presentation

from _corpus import FOUR_POWERS, chain_text, cross_validation_corpus, sum_pattern_text

SCHEMA_DIR = pathlib.Path(jumploci.__file__).parent / "schemas"


def _registry():
    # imported here, so that without the schema tools (absent, or failing to
    # import) only the tests that validate a record skip, not the whole module
    referencing = pytest.importorskip("referencing", exc_type=ImportError)
    resources = []
    for f in SCHEMA_DIR.glob("*.json"):
        obj = json.loads(f.read_text())
        resources.append((obj["$id"], referencing.Resource.from_contents(obj)))
    return referencing.Registry().with_resources(resources)


def validate(name, instance):
    jsonschema = pytest.importorskip("jsonschema", exc_type=ImportError)
    schema = json.loads((SCHEMA_DIR / f"{name}.json").read_text())
    jsonschema.Draft202012Validator(schema, registry=_registry()).validate(instance)


@pytest.fixture
def trefoil_file(tmp_path):
    f = tmp_path / "trefoil.grp"
    f.write_text("<x, y | x y x y^-1 x^-1 y^-1>\n")
    return str(f)


@pytest.fixture
def z2_json_file(tmp_path):
    f = tmp_path / "z2.json"
    f.write_text(json.dumps({"generators": ["x", "y"], "relators": ["[x,y]"]}))
    return str(f)


@pytest.fixture
def t3_form_file(tmp_path):
    f = tmp_path / "t3.form"
    f.write_text(json.dumps({"n": 3, "terms": [{"i": 1, "j": 2, "k": 3, "c": 1}]}))
    return str(f)


@pytest.fixture
def model5_form_file(tmp_path):
    f = tmp_path / "model5.form"
    f.write_text(json.dumps({
        "n": 5,
        "terms": [
            {"i": 1, "j": 2, "k": 5, "c": 1},
            {"i": 3, "j": 4, "k": 5, "c": 1},
        ],
    }))
    return str(f)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlex:
    def test_trefoil_json(self, capsys, trefoil_file):
        code, out, err = run_cli(capsys, ["--seed", "1", "alex", trefoil_file])
        assert code == 0 and not err
        report = json.loads(out)
        validate("alex", report)
        assert report["delta"] == "t^2 - t + 1"
        assert report["b1"] == 1
        assert report["almost_principal"]["consistent"] is True

    def test_json_presentation_input(self, capsys, z2_json_file):
        code, out, _ = run_cli(capsys, ["alex", z2_json_file, "--ideal-d", "1", "--ideal-d", "2"])
        assert code == 0
        report = json.loads(out)
        validate("alex", report)
        assert report["delta"] == "1"
        assert [i["d"] for i in report["ideals"]] == [1, 2]

    def test_text_format(self, capsys, trefoil_file):
        code, out, _ = run_cli(capsys, ["--format", "text", "alex", trefoil_file])
        assert code == 0
        assert "delta = t^2 - t + 1" in out

    def test_z6_alex_is_refused_not_cut_off(self, capsys, tmp_path):
        # Z^6's E_1 has 7776 nonzero minors; the gcd of a cut-off list is t1 - 1, not 1
        gens = [f"x{i}" for i in range(1, 7)]
        rels = [f"[{a},{b}]" for i, a in enumerate(gens) for b in gens[i + 1:]]
        f = tmp_path / "z6.grp"
        f.write_text(f"<{', '.join(gens)} | {', '.join(rels)}>\n")
        code, out, err = run_cli(capsys, ["alex", str(f)])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {
            "type": "config",
            "message": "listing E_1 needs more than DEFAULT_GENERATOR_CAP = 1024 nonzero minors",
            "offset": None,
        }

    @pytest.mark.parametrize("text,size", [(chain_text(40), 65536), (FOUR_POWERS, 1000000)],
                             ids=["chain40", "four"])
    def test_large_minor_product_is_refused_fast(self, capsys, tmp_path, text, size):
        f = tmp_path / "big.grp"
        f.write_text(text + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["alex", str(f)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {
            "type": "config",
            "message": f"a product of {size} terms in a minor exceeds MAX_MINOR_TERMS = 32768",
            "offset": None,
        }


class TestCharvar:
    def test_zeta6_membership(self, capsys, trefoil_file):
        code, out, _ = run_cli(capsys, ["charvar", trefoil_file, "6:1", "--d", "1"])
        assert code == 0
        report = json.loads(out)
        validate("charvar", report)
        assert report["rank_based"] is True
        assert report["ideal_based"] is True
        assert report["agree"] is True

    def test_nonmember(self, capsys, trefoil_file):
        code, out, _ = run_cli(capsys, ["charvar", trefoil_file, "2:1"])
        report = json.loads(out)
        assert report["rank_based"] is False and report["agree"] is True

    def test_identity_character_is_error(self, capsys, trefoil_file):
        code, out, err = run_cli(capsys, ["charvar", trefoil_file, "2:0"])
        assert code == 1
        record = json.loads(err)
        validate("error", record)

    @pytest.mark.parametrize("spec,message", [
        ("abc", "character spec must look like 'm:e1,e2,...'"),
        ("6:x", "character exponent 'x' is not an integer"),
        ("0:1", "character order 0 is not positive"),
    ], ids=["no-colon", "exponent-not-integer", "order-zero"])
    def test_malformed_character_is_a_config_record(self, capsys, trefoil_file, spec, message):
        code, out, err = run_cli(capsys, ["charvar", trefoil_file, spec])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {"type": "config", "message": message, "offset": None}

    def test_exponent_count_mismatch_is_a_value_error(self, capsys, trefoil_file):
        code, out, err = run_cli(capsys, ["charvar", trefoil_file, "6:1,2"])
        assert code == 1
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "value"

    def test_empty_exponent_list_is_a_count_error(self, capsys, trefoil_file):
        code, out, err = run_cli(capsys, ["charvar", trefoil_file, "6:"])
        assert code == 1
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {
            "type": "value", "message": "character has 0 exponents, expected 1", "offset": None,
        }

    def test_minor_cap_is_a_config_record(self, capsys, monkeypatch, tmp_path):
        # Wirtinger trefoil: the three 2-minors avoiding a column all vanish at 6:1
        f = tmp_path / "wirtinger.grp"
        f.write_text("<a, b, c | a b a^-1 c^-1, b c b^-1 a^-1, c a c^-1 b^-1>\n")
        code, out, _ = run_cli(capsys, ["charvar", str(f), "6:1"])
        assert code == 0 and json.loads(out)["agree"] is True
        monkeypatch.setattr(alexander, "DEFAULT_GENERATOR_CAP", 2)
        code, out, err = run_cli(capsys, ["charvar", str(f), "6:1"])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert "DEFAULT_GENERATOR_CAP = 2" in record["error"]["message"]

    def test_parse_character(self):
        chi = parse_character("6:1,2")
        assert chi.order == 6 and chi.exponents == (1, 2)
        with pytest.raises(ValueError):
            parse_character("6")

    def test_order_limit(self, capsys, monkeypatch, trefoil_file):
        calls = []
        real = laurent.cyclotomic_polynomial
        monkeypatch.setattr(laurent, "cyclotomic_polynomial",
                            lambda m: calls.append(m) or real(m))
        assert alexander.MAX_CHARACTER_ORDER == 1024
        code, out, err = run_cli(capsys, ["charvar", trefoil_file, "1025:1"])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert "MAX_CHARACTER_ORDER = 1024" in record["error"]["message"]
        assert calls == []

    @pytest.mark.parametrize("spec,limit", [
        ("6:" + "9" * 5000, "MAX_CHARACTER_DIGITS = 1000"),
        ("6:1," + "9" * 1001, "MAX_CHARACTER_DIGITS = 1000"),
        ("9" * 5000 + ":1", "MAX_CHARACTER_ORDER = 1024"),
        ("9" * 1001 + ":1", "MAX_CHARACTER_ORDER = 1024"),
    ], ids=["exponent-5000", "exponent-1001", "order-5000", "order-1001"])
    def test_long_numbers_refused_unread(self, capsys, trefoil_file, spec, limit):
        code, out, err = run_cli(capsys, ["charvar", trefoil_file, spec])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert limit in record["error"]["message"]

    def test_longest_numbers_are_read(self):
        assert MAX_CHARACTER_DIGITS == 1000
        chi = parse_character("0" * 999 + "6:1," + "9" * 1000)
        assert chi.order == 6 and chi.exponents == (1, 10**1000 - 1)
        with pytest.raises(seifert.LimitError, match="MAX_CHARACTER_ORDER = 1024"):
            parse_character("9" * 1000 + ":1")

    def test_order_just_under_lowered_limit(self, capsys, monkeypatch, trefoil_file):
        monkeypatch.setattr(alexander, "MAX_CHARACTER_ORDER", 6)
        code, out, _ = run_cli(capsys, ["charvar", trefoil_file, "6:1"])
        assert code == 0
        report = json.loads(out)
        validate("charvar", report)
        assert report["twisted_h1_dim"] == 1 and report["agree"] is True
        code, _, err = run_cli(capsys, ["charvar", trefoil_file, "7:1"])
        assert code == 2
        assert "MAX_CHARACTER_ORDER = 6" in json.loads(err)["error"]["message"]


class TestAlexanderGoldenBytes:
    """sha256 of `alex` and `charvar` stdout, recorded before the trusted
    constructors and the fused folded product entered the Fox and minor path.
    The `comm2` and `power301` digests were recorded before the gcd took its
    content one main-variable slice at a time: Delta = 2 keeps integer content
    through the n = 0 base, and x^301 y^-2 runs the content pass on 300 terms."""

    @staticmethod
    def inputs():
        out = {f"corpus{i}": format_presentation(p)
               for i, p in enumerate(cross_validation_corpus())}
        out["z4"] = "<x1, x2, x3, x4 | [x1,x2], [x1,x3], [x1,x4], [x2,x3], [x2,x4], [x3,x4]>"
        out["t75"] = "<x, y | x^7 y^-5>"
        out["sigma3"] = "<a1, b1, a2, b2, a3, b3 | [a1,b1] [a2,b2] [a3,b3]>"
        out["power1003"] = "<x, y | x^1003 y^-1>"
        out["sum200"] = sum_pattern_text(random.Random(5), 200)
        out["comm2"] = "<x, y | [x,y]^2>"
        out["power301"] = "<x, y | x^301 y^-2>"
        return out

    GOLDEN_DIGESTS = {
        ("corpus0", "alex {}"):
            "11a8da1894f61a131666487d49f8d2ec2022e7ccfe9712a8ed994c22cbb5447a",
        ("corpus0", "charvar {} 6:1,2"):
            "c64604a431da4241dda64821511b85867f49808941421492cc0643eb4c3bad42",
        ("corpus0", "charvar {} 4:1,3 --d 2"):
            "9e14a0c117b1d2a1b987dde34dee430ed0157ee5354a38637b4d1e47346ffe56",
        ("corpus1", "alex {}"):
            "9e5999388337e18afec0edf85136e0542e832e2821e1a616e9213e50ea3be8a7",
        ("corpus1", "charvar {} 6:1,2,3"):
            "30cab2ac0ed22ef2c4731fb4a3bb091f635248c671c3a1194df12200ca1080e6",
        ("corpus1", "charvar {} 4:1,3,5 --d 2"):
            "bc4c355e0fdc65d8a81ee9d5c4643d9d3fdc14f5575fea13d62c991ae3acb1fc",
        ("corpus2", "alex {}"):
            "1be5362c8f374376ba609e7774faea3bdcba8421660c01133d9ed3bbd528e676",
        ("corpus2", "charvar {} 6:1,2"):
            "2ff0b6c49bdcb7a0f0c7af494800883f78e3964ee3bff3f273398444d41aa5a6",
        ("corpus2", "charvar {} 4:1,3 --d 2"):
            "6113807e0b11746d6209789f738eccdacc526fbd903898c82b7a33ee15831916",
        ("corpus3", "alex {}"):
            "478e9e2bb8b5c68f889d90c711771eeed15ceabac448a4142272bf89d1c97f1d",
        ("corpus3", "charvar {} 6:1"):
            "6a38522f31c4efcda5fd38206b46c2b21e1e32ef4c216e5254e1d0e776fa6730",
        ("corpus3", "charvar {} 4:1 --d 2"):
            "b0c47cc5ab27b720f8507cb62f8a805af411725a76ebc5c6192a52860369f5a4",
        ("corpus4", "alex {}"):
            "21aa3b278d294a80bfa8a2f6cdc2252c36c390b5a741ec5e055bc10bc69e87f4",
        ("corpus4", "charvar {} 6:1"):
            "5280299d26faf19fe3c9b3a99825cc10d9c927d8fbde254aaa076706d0072a87",
        ("corpus4", "charvar {} 4:1 --d 2"):
            "b0c47cc5ab27b720f8507cb62f8a805af411725a76ebc5c6192a52860369f5a4",
        ("corpus5", "alex {}"):
            "9573e9c48ae932d5943ca1601ce8f81ead3b80b0de4465186ac3fbdfb0da40b5",
        ("corpus5", "charvar {} 6:1,2,3,4"):
            "7ae5bbf25df3dbfc477325c8cc855014571adeed6990eb9bd7f71f02dca5f36e",
        ("corpus5", "charvar {} 4:1,3,5,7 --d 2"):
            "c09af5b74698424301e41b0b933236a2c08035ba0d9b85988aa2b76d9bc7c027",
        ("corpus6", "alex {}"):
            "ef4aceda5b9325f49dad0068cf44c52700a0395799eb57abdf5b29ca6dd04d72",
        ("corpus6", "charvar {} 6:1"):
            "5280299d26faf19fe3c9b3a99825cc10d9c927d8fbde254aaa076706d0072a87",
        ("corpus6", "charvar {} 4:1 --d 2"):
            "b0c47cc5ab27b720f8507cb62f8a805af411725a76ebc5c6192a52860369f5a4",
        ("corpus7", "alex {}"):
            "bf88ccd7bcb492e8faf57472ac2568207fe09966071ca352c766844e5b56692e",
        ("corpus7", "charvar {} 6:1,2"):
            "2ff0b6c49bdcb7a0f0c7af494800883f78e3964ee3bff3f273398444d41aa5a6",
        ("corpus7", "charvar {} 4:1,3 --d 2"):
            "6113807e0b11746d6209789f738eccdacc526fbd903898c82b7a33ee15831916",
        ("corpus8", "alex {}"):
            "0ec71714240d66ba92336704aa6d9bd4fa1fa17c9c8fa44e46a1eca816928923",
        ("corpus8", "charvar {} 6:1,2"):
            "2ff0b6c49bdcb7a0f0c7af494800883f78e3964ee3bff3f273398444d41aa5a6",
        ("corpus8", "charvar {} 4:1,3 --d 2"):
            "6113807e0b11746d6209789f738eccdacc526fbd903898c82b7a33ee15831916",
        ("corpus9", "alex {}"):
            "08f2d17e19a230ffbc1b815b1c73d790f0f0f8033397cbafae1e0c49e01d5689",
        ("corpus9", "charvar {} 6:1,2,3"):
            "7c25410ea79a973169ef18c6682a35f6cb163c96edf1b71035e78e0a0975d2bd",
        ("corpus9", "charvar {} 4:1,3,5 --d 2"):
            "ad7d55164ac50801da4959eda8f81769429f0008ff2dfd2a48990d4ef1cbcb66",
        ("corpus10", "alex {}"):
            "1f76bc0612cb01c5858dbfb4d34f7e9ce1ffe75db992e800ed936983218e5765",
        ("corpus10", "charvar {} 6:1,2,3"):
            "7c25410ea79a973169ef18c6682a35f6cb163c96edf1b71035e78e0a0975d2bd",
        ("corpus10", "charvar {} 4:1,3,5 --d 2"):
            "ad7d55164ac50801da4959eda8f81769429f0008ff2dfd2a48990d4ef1cbcb66",
        ("corpus11", "alex {}"):
            "5bf8f4f5b209eb8194a6a213f59e403ef421822d0a88c763f7f7703034cb29f2",
        ("corpus11", "charvar {} 6:1,2,3"):
            "25a34ca8b2fa10d9c0a8e73f7e7cc4e272611887d0bb47768adc312f1fe8e997",
        ("corpus11", "charvar {} 4:1,3,5 --d 2"):
            "464ec6a43e2021f17124abdda29d0a59939fb1bd3cfdb470458769161ef05f30",
        ("z4", "alex {}"):
            "5297f83f0b73eafb3a09aa54f49fee2b6ef2f9c2aa4a5f5b83a407915e012443",
        ("z4", "charvar {} 6:1,2,3,4"):
            "6e118c055e8a13f53ee02b61204ed7f75e0a69b96ec0c84297194ec9ddcf6588",
        ("z4", "charvar {} 4:1,3,5,7 --d 2"):
            "2a9351afdb330b881ca4a8035bc71cc03ef486d8f9694d19ad727ea4baede011",
        ("t75", "alex {}"):
            "ff249a6e5cbd79a62abaf213147aa3c4cfea6b5e213d9bf278b3c4bd451e38c7",
        ("t75", "charvar {} 6:1"):
            "5280299d26faf19fe3c9b3a99825cc10d9c927d8fbde254aaa076706d0072a87",
        ("t75", "charvar {} 4:1 --d 2"):
            "b0c47cc5ab27b720f8507cb62f8a805af411725a76ebc5c6192a52860369f5a4",
        ("sigma3", "alex {}"):
            "eeefaf261b6e49a4dab221bf1cf4b2419ca7f6b58a866e040d726d2038f63015",
        ("sigma3", "charvar {} 6:1,2,3,4,5,6"):
            "87f39b490adcc7c72472d44672e883aa67570b64efb15d6a20f66da25d27ac18",
        ("sigma3", "charvar {} 4:1,3,5,7,9,11 --d 2"):
            "764d9d85d298a71bc13f97ef91ba4d0c1a02fc9a70cdb82ad29617360e2a56e2",
        ("power1003", "alex {}"):
            "ff9225553473a88beaf58726600cce2a171daa533136b41d13b38a8733f183b7",
        ("power1003", "charvar {} 6:1"):
            "5280299d26faf19fe3c9b3a99825cc10d9c927d8fbde254aaa076706d0072a87",
        ("power1003", "charvar {} 4:1 --d 2"):
            "b0c47cc5ab27b720f8507cb62f8a805af411725a76ebc5c6192a52860369f5a4",
        ("sum200", "alex {}"):
            "d296dcd4fa716d85f144bfdb455db9a46271ac118fd727db82a43130cfbcccf1",
        ("sum200", "charvar {} 6:1"):
            "5280299d26faf19fe3c9b3a99825cc10d9c927d8fbde254aaa076706d0072a87",
        ("sum200", "charvar {} 4:1 --d 2"):
            "b0c47cc5ab27b720f8507cb62f8a805af411725a76ebc5c6192a52860369f5a4",
        ("z4", "charvar {} 1021:1,2,3,4"):
            "d97d02220dd6ea2604a127fc24c4c09691af32d070864f59ec3788aded647b05",
        ("t75", "charvar {} 35:1"):
            "2bfb576afd70d6b10d09f25afad9835a13729c3caf747cbc8098373f1b611d08",
        ("sigma3", "alex {} --ideal-d 1 --ideal-d 2"):
            "44871b16c40db16ed4d36362e2cdc139b3b5799f2a944045ddd4e1c1b1763e4b",
        ("power1003", "charvar {} 1003:5"):
            "c040e01e85ab8d18b49b9ed9afdf4c63b3d404ab587eb39b87ce1548c2131f4a",
        ("sum200", "charvar {} 1021:1"):
            "0f9c40f9f1fcecbd07544c525533c7da9ede7897149604decb93eeb73422c0e6",
        ("sum200", "--seed 3 --trials 40 alex {}"):
            "a4191144d490e43d42b902a51468d4b7d5fc776a7e16143928931adf8ba3f861",
        ("comm2", "alex {}"):
            "0ec71714240d66ba92336704aa6d9bd4fa1fa17c9c8fa44e46a1eca816928923",
        ("comm2", "charvar {} 2:1,0"):
            "312b5a143186320be34b021079157aaddb63ba08dd4fec65df01ec225407237c",
        ("power301", "alex {}"):
            "b9b9e7d692584a2c520c35b8e147642e06682e0c90c086fb7134ddeb0197193a",
        ("power301", "charvar {} 602:1"):
            "d8584225c50bbf3b065321bd25fa21877becb4ff8b67a49d7e2c5a6f4131ee04",
    }

    @pytest.mark.parametrize("name,args", sorted(GOLDEN_DIGESTS))
    def test_golden_bytes(self, capsys, tmp_path, name, args):
        f = tmp_path / f"{name}.grp"
        f.write_text(self.inputs()[name] + "\n")
        code, out, _ = run_cli(capsys, [str(f) if tok == "{}" else tok for tok in args.split()])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_DIGESTS[name, args]


class TestClassify:
    def test_volume_form(self, capsys, t3_form_file):
        code, out, _ = run_cli(capsys, ["classify", t3_form_file])
        assert code == 0
        report = json.loads(out)
        validate("classify", report)
        assert report["class"] == "ZxSurface"
        assert report["g"] == 1
        assert report["corank"] == 1

    def test_model_form(self, capsys, model5_form_file):
        code, out, _ = run_cli(capsys, ["classify", model5_form_file])
        report = json.loads(out)
        validate("classify", report)
        assert report["class"] == "ZxSurface" and report["g"] == 2
        assert report["genericity_mode"]["mode"] == "symbolic"

    def test_zero_form(self, capsys, tmp_path):
        f = tmp_path / "zero.form"
        f.write_text(json.dumps({"n": 4, "terms": []}))
        code, out, _ = run_cli(capsys, ["classify", str(f)])
        report = json.loads(out)
        validate("classify", report)
        assert report["class"] == "Free" and report["rank"] == 4

    def test_rational_coefficients(self, capsys, tmp_path):
        f = tmp_path / "frac.form"
        f.write_text(json.dumps({"n": 3, "terms": [{"i": 1, "j": 2, "k": 3, "c": "-2/3"}]}))
        code, out, _ = run_cli(capsys, ["classify", str(f)])
        assert code == 0
        assert json.loads(out)["class"] == "ZxSurface"

    def test_symbolic_threshold_at_its_limit(self, capsys, tmp_path):
        # e1 e2 e3 on n = 11 is full, so its sub-Pfaffian is expanded; one more
        # than the limit is refused (TestParser)
        assert cli.MAX_SYMBOLIC_THRESHOLD == 11
        common = json.loads((SCHEMA_DIR / "common.json").read_text())
        assert common["$defs"]["config"]["properties"]["symbolic_threshold"]["maximum"] == 11
        f = tmp_path / "padded11.form"
        f.write_text(json.dumps({"n": 11, "terms": [{"i": 1, "j": 2, "k": 3, "c": 1}]}))
        code, out, _ = run_cli(capsys, ["--symbolic-threshold", "11", "classify", str(f)])
        assert code == 0
        report = json.loads(out)
        validate("classify", report)
        assert report["class"] == "Obstructed"
        assert report["config"]["symbolic_threshold"] == 11
        assert report["genericity_mode"]["mode"] == "symbolic"


class TestBrieskorn:
    def test_336(self, capsys):
        code, out, _ = run_cli(capsys, ["brieskorn", "3,3,6"])
        assert code == 0
        report = json.loads(out)
        validate("brieskorn", report)
        assert report["components"] == 3
        assert report["dim"] == 2
        assert report["e"] == "-3/2"
        assert report["torsion"] == {"T": 12, "ord_h": 3, "alpha": 4}
        assert report["includes_identity"] is False

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(capsys, ["brieskorn", "sweep", "--max", "3", "--n", "3"])
        report = json.loads(out)
        validate("brieskorn-sweep", report)
        assert len(report["rows"]) == 8

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["--format", "csv", "brieskorn", "sweep", "--max", "3", "--n", "3"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("exponents,orbits,g,e,b,T")
        assert len(lines) == 9

    @pytest.mark.parametrize("argv", [
        ["alex", "{missing}"],
        ["charvar", "{missing}", "2:1"],
        ["classify", "{missing}"],
        ["holonomy", "{missing}"],
        ["brieskorn", "2,3,5"],
    ], ids=["alex", "charvar", "classify", "holonomy", "brieskorn"])
    def test_csv_rejected_elsewhere(self, capsys, tmp_path, argv):
        # refused before any input is read: an io record would show the file was opened
        missing = str(tmp_path / "missing")
        argv = ["--format", "csv"] + [a.format(missing=missing) for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {
            "type": "config",
            "message": "csv output is only available for brieskorn sweeps",
            "offset": None,
        }

    def test_bad_exponents(self, capsys):
        code, out, err = run_cli(capsys, ["brieskorn", "1,2,3"])
        assert code == 1
        validate("error", json.loads(err))

    def test_malformed_exponent_is_a_config_record(self, capsys):
        code, out, err = run_cli(capsys, ["brieskorn", "2,x,3"])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {
            "type": "config", "message": "exponent 'x' is not an integer", "offset": None,
        }

    @pytest.mark.parametrize("argv", [
        ["--max", "1000", "--n", "5"],
        ["--n", "1000000000"],
    ])
    def test_sweep_over_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, ["brieskorn", "sweep", *argv])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert "MAX_SWEEP_ROWS = 65536" in record["error"]["message"]

    def test_sweep_limit_boundary(self, capsys, monkeypatch):
        # 16^4 = 65536 rows is at the limit and 17^4 past it; building no
        # rows keeps the check fast
        monkeypatch.setattr(seifert, "iter_product", lambda *a, **k: iter(()))
        code, out, _ = run_cli(capsys, ["brieskorn", "sweep", "--max", "17", "--n", "4"])
        assert code == 0
        assert json.loads(out)["rows"] == []
        code, _, _ = run_cli(capsys, ["brieskorn", "sweep", "--max", "18", "--n", "4"])
        assert code == 2

    def test_sweep_just_under_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(seifert, "MAX_SWEEP_ROWS", 125)
        code, out, _ = run_cli(capsys, ["brieskorn", "sweep", "--max", "6", "--n", "3"])
        assert code == 0
        report = json.loads(out)
        validate("brieskorn-sweep", report)
        assert len(report["rows"]) == 125
        code, _, err = run_cli(capsys, ["brieskorn", "sweep", "--max", "7", "--n", "3"])
        assert code == 2
        assert json.loads(err)["error"]["type"] == "config"

    # sha256 of stdout, recorded before the invariants were shared per multiset;
    # those of zero rows (--max 1) and one row (--max 2) were recorded before
    # rows were rendered from text made once per multiset
    SWEEP_DIGESTS = {
        ("1", "3", "json"): "2ce6a4926351edb779738fafb273dbe47c472775f3af9c1a4212859ba65f790a",
        ("1", "3", "csv"): "aed11faa72e30134d4818ef1e07ae53ca393ecaca2bc8eb1aa096cd9409bb8a2",
        ("1", "3", "text"): "cd2f832c96ff00302e876c6a8109a5389ee97c2b3ee051eb8afdb84d77f08732",
        ("2", "3", "json"): "ac281e4e68f3eb81343b484d6b6eb394f0ccd86154009985cfd27b5ae1733af7",
        ("2", "3", "csv"): "989ed3dd3a2a8bbca0b181a85eefab3962dd631860cd54e16a0731a016ab1794",
        ("2", "3", "text"): "b3a504cdfcb818999ba265446394b508c264dab49a1cb9f2e3147a5a07e92aac",
        ("12", "3", "json"): "7121bc91bd2b636fbc147a73e7a388b226f23d310c64b2dd3fe8a63bb8cef634",
        ("12", "3", "csv"): "5b8515e7cfa7eb30c69b1cea479806c5f1f846d89e1a262a7e5ae9f53d280554",
        ("12", "3", "text"): "b2c0f95ff8be03a628ce01cf7a9b8c2a9c6f1f76bc3b0631a3d766e5299dcaa7",
        ("8", "4", "json"): "2457e7a8c1fb38717aa28256f1de0195df16b19c52ef27d3cbb742a643be809c",
        ("8", "4", "csv"): "dc3320214a18d924ec9ac3b65318d330509c8d2264bb9b59cf97e049ba1e89e6",
        ("8", "4", "text"): "ee17a72199611883807bc0f7d8cadfa5d9be1f3226da8294226f301f282edd57",
    }

    @pytest.mark.parametrize("mx,n,fmt", sorted(SWEEP_DIGESTS))
    def test_sweep_golden_bytes(self, capsys, mx, n, fmt):
        code, out, _ = run_cli(capsys, ["--format", fmt, "brieskorn", "sweep", "--max", mx, "--n", n])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SWEEP_DIGESTS[mx, n, fmt]

    # what marks one row: its line in csv, its `rows.<i>.` prefix in text, and
    # its exponents key in json
    ROW_MARKS = {
        "csv": lambda piece: piece.count("\n"),
        "text": lambda piece: len(set(re.findall(r"^rows\.(\d+)\.", piece, re.M))),
        "json": lambda piece: piece.count('"exponents": ['),
    }

    @pytest.mark.parametrize("mx,n,fmt", sorted(SWEEP_DIGESTS))
    def test_sweep_written_row_by_row(self, mx, n, fmt):
        config = RunConfig(output_format=fmt)
        report = cli.run_brieskorn_sweep(int(mx), int(n), config)
        pieces = []
        cli.render(report, config, types.SimpleNamespace(write=pieces.append))
        text = "".join(pieces)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SWEEP_DIGESTS[mx, n, fmt]
        assert len(pieces) >= len(report["rows"])
        assert max(map(self.ROW_MARKS[fmt], pieces)) <= 1

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_sweep_fragments_once_per_multiset(self, capsys, monkeypatch, fmt):
        calls = []
        real = cli._sweep_fragments
        monkeypatch.setattr(cli, "_sweep_fragments", lambda body, f: calls.append(f) or real(body, f))
        code, out, _ = run_cli(capsys, ["--format", fmt, "brieskorn", "sweep", "--max", "6", "--n", "3"])
        assert code == 0
        assert calls == [fmt] * 35
        if fmt == "json":
            assert len(json.loads(out)["rows"]) == 125

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_sweep_refused_mid_way_writes_nothing(self, capsys, fmt):
        # 2,3,...,3 first comes at the 512th of the 1024 tuples, after the nine
        # multisets with more 2s were computed
        code, out, err = run_cli(capsys, ["--format", fmt, "brieskorn", "sweep", "--max", "3", "--n", "10"])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert "exponents 2,3,3,3,3,3,3,3,3,3" in record["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["2," + ",".join(["3"] * 10)],
        ["2," + ",".join(["3"] * 23)],
        ["sweep", "--max", "3", "--n", "11"],
        [",".join(["2"] * 4097)],
        ["2,3," + "9" * 3000],
        ["2,3," + "9" * 5000],
    ])
    def test_invariant_bits_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, ["brieskorn", *argv])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert "MAX_INVARIANT_BITS = 8192" in record["error"]["message"]


class TestHolonomy:
    def test_threeform_input(self, capsys, t3_form_file):
        code, out, _ = run_cli(capsys, ["holonomy", t3_form_file, "--degree", "4"])
        assert code == 0
        report = json.loads(out)
        validate("holonomy", report)
        assert report["ranks"] == [3, 0, 0, 0]

    def test_relation_list_input(self, capsys, tmp_path):
        f = tmp_path / "rels.json"
        f.write_text(json.dumps({"n": 2, "relations": [[1]]}))
        code, out, _ = run_cli(capsys, ["holonomy", str(f), "--degree", "4"])
        report = json.loads(out)
        validate("holonomy", report)
        assert report["ranks"] == [2, 0, 0, 0]

    def test_degree_cap(self, capsys, t3_form_file):
        code, out, err = run_cli(capsys, ["holonomy", t3_form_file, "--degree", "9"])
        assert code == 2
        validate("error", json.loads(err))

    def test_degree_cap_above_its_limit_is_refused(self, capsys, tmp_path):
        cap = holonomy.MAX_DEGREE_CAP
        # the limit admits every degree that MAX_LIE_DIMENSION admits for n >= 2
        assert holonomy._witt(2, cap) <= holonomy.MAX_LIE_DIMENSION < holonomy._witt(2, cap + 1)
        f = tmp_path / "line.json"
        f.write_text(json.dumps({"n": 1, "relations": []}))
        # n = 1 at degree 16000 once took 8.2 s: its cap is refused before any work
        for degree_cap, degree in ((cap + 1, 3), (16000, 16000)):
            code, out, err = run_cli(capsys, ["--degree-cap", str(degree_cap), "holonomy",
                                              str(f), "--degree", str(degree)])
            assert code == 2
            assert out == ""
            record = json.loads(err)
            validate("error", record)
            assert record["error"]["type"] == "config"
            assert record["error"]["message"] == (
                f"degree cap {degree_cap} exceeds MAX_DEGREE_CAP = {cap}")
        code, out, _ = run_cli(capsys, ["--degree-cap", str(cap), "holonomy", str(f),
                                        "--degree", str(cap)])
        assert code == 0
        assert json.loads(out)["ranks"] == [1] + [0] * (cap - 1)
        f.write_text(json.dumps({"n": 2, "relations": []}))
        code, out, _ = run_cli(capsys, ["--degree-cap", str(cap), "holonomy", str(f),
                                        "--degree", str(cap)])
        assert code == 0
        assert json.loads(out)["ranks"][-1] == holonomy._witt(2, cap) == 14532

    @pytest.mark.parametrize("content, degree, limit", [
        # 2 * 10^9 Lyndon words on 300 letters at degree 4: refused unlisted
        ({"n": 300, "relations": []}, "4", "MAX_FORM_DIMENSION = 64"),
        ({"n": 65, "relations": []}, "1", "MAX_FORM_DIMENSION = 64"),
        ({"n": 20001, "terms": [{"i": 1, "j": 2, "k": 3, "c": 1}]}, "2", "MAX_FORM_DIMENSION = 64"),
        # the free Lie algebra on 11 letters has dimension 32208 in degree 5
        ({"n": 11, "relations": []}, "5", "MAX_LIE_DIMENSION = 20000"),
    ], ids=["n-300", "n-65", "form-n-20001", "lie-dimension"])
    def test_input_beyond_a_limit_is_refused(self, capsys, tmp_path, content, degree, limit):
        f = tmp_path / "big.json"
        f.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, ["holonomy", str(f), "--degree", degree])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert limit in record["error"]["message"]

    def test_inputs_at_the_limits_are_answered(self, capsys, tmp_path):
        f = tmp_path / "free.json"
        f.write_text(json.dumps({"n": 10, "relations": []}))
        code, out, _ = run_cli(capsys, ["holonomy", str(f), "--degree", "5"])
        assert code == 0
        assert json.loads(out)["ranks"][-1] == 19998
        f.write_text(json.dumps({"n": 64, "relations": []}))
        code, out, _ = run_cli(capsys, ["holonomy", str(f), "--degree", "2"])
        assert code == 0
        assert json.loads(out)["ranks"] == [64, 2016]


class TestTrialsLimit:
    def test_cap_allowed(self, capsys, trefoil_file):
        assert MAX_TRIALS == 2**14
        assert RunConfig(trials=2**14).trials == 2**14
        code, out, _ = run_cli(capsys, ["--trials", str(2**14), "alex", trefoil_file])
        assert code == 0
        report = json.loads(out)
        validate("alex", report)
        assert report["almost_principal"]["trials"] == 2**14
        assert report["almost_principal"]["consistent"] is True

    @pytest.mark.parametrize("command", ["alex", "classify"])
    def test_over_cap_refused_before_sampling(self, capsys, monkeypatch, trefoil_file,
                                              t3_form_file, command):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled past MAX_TRIALS")

        monkeypatch.setattr(alexander, "sample_characters", refuse)
        monkeypatch.setattr(resonance, "classify_malcev", refuse)
        path = trefoil_file if command == "alex" else t3_form_file
        code, out, err = run_cli(capsys, ["--trials", str(2**14 + 1), command, path])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert "MAX_TRIALS = 16384" in record["error"]["message"]

    def test_just_under_lowered_limit(self, capsys, monkeypatch, trefoil_file):
        monkeypatch.setattr(cli, "MAX_TRIALS", 30)
        code, out, _ = run_cli(capsys, ["--trials", "30", "alex", trefoil_file])
        assert code == 0
        assert json.loads(out)["almost_principal"]["trials"] == 30
        code, _, err = run_cli(capsys, ["--trials", "31", "alex", trefoil_file])
        assert code == 2
        assert "MAX_TRIALS = 30" in json.loads(err)["error"]["message"]


class TestErrors:
    def test_parse_error_has_offset(self, capsys, tmp_path):
        f = tmp_path / "bad.grp"
        f.write_text("<x, y | x z>")
        code, out, err = run_cli(capsys, ["alex", str(f)])
        assert code == 2
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"
        assert record["error"]["offset"] == 10

    def test_missing_file(self, capsys, tmp_path):
        # a missing file and a directory are each an io record, never a traceback
        for command in ("alex", "classify", "holonomy"):
            for path in ("/nonexistent/file.grp", str(tmp_path)):
                code, out, err = run_cli(capsys, [command, path])
                assert code == 2
                assert out == ""
                record = json.loads(err)
                validate("error", record)
                assert record["error"]["type"] == "io"

    def test_bad_json(self, capsys, tmp_path):
        f = tmp_path / "bad.form"
        f.write_text("{not json")
        code, out, err = run_cli(capsys, ["classify", str(f)])
        assert code == 2
        validate("error", json.loads(err))


    @pytest.mark.parametrize("command", ["classify", "holonomy"])
    @pytest.mark.parametrize("content", [
        json.dumps({"n": 3, "terms": [{"i": 1, "j": 2, "k": 3, "c": "1/0"}]}).encode(),
        json.dumps([{"n": 3}]).encode(),
        json.dumps({"n": 3, "terms": [{"i": 1, "j": 1, "k": 2, "c": 1}]}).encode(),
        json.dumps({"n": 3, "terms": [{"i": 1, "j": 2, "k": 4, "c": 1}]}).encode(),
        json.dumps({"n": -1, "terms": []}).encode(),
        b'\xff\xfe{"n": 3, "terms": []}',
        # JSON floats and booleans are not integers: none is truncated or read as 1
        b'{"n": 3.9, "terms": [{"i": 1.7, "j": 2, "k": 3, "c": true}]}',
        b'{"n": 3, "terms": [{"i": 1.7, "j": 2, "k": 3, "c": 1}]}',
        b'{"n": 3.0, "terms": [{"i": 1, "j": 2, "k": 3, "c": 1}]}',
        b'{"n": 3, "terms": [{"i": 1, "j": 2, "k": 3, "c": true}]}',
        b'{"n": 3, "terms": [{"i": 1, "j": 2, "k": 3, "c": 0.5}]}',
        b'{"n": 3, "terms": [{"i": true, "j": 2, "k": 3, "c": 1}]}',
        b'{"n": true, "terms": []}',
        b'{"n": "3", "terms": []}',
        # "terms", when present, is an array: none of these is the zero form
        b'{"n": 3, "terms": ""}',
        b'{"n": 3, "terms": {}}',
        b'{"n": 3, "terms": null}',
        b'{"n": 3, "terms": "abc"}',
    ], ids=["zero-denominator", "json-array", "repeated-index", "index-out-of-range",
            "negative-n", "not-utf8", "float-n-index-bool-c", "float-index", "float-n",
            "bool-coefficient", "float-coefficient", "bool-index", "bool-n", "string-n",
            "empty-string-terms", "object-terms", "null-terms", "string-terms"])
    def test_malformed_threeform(self, capsys, tmp_path, command, content):
        f = tmp_path / "bad.form"
        f.write_bytes(content)
        code, out, err = run_cli(capsys, [command, str(f)])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"

    @pytest.mark.parametrize("n, code", [(20001, 2), (65, 2), (64, 0)])
    def test_threeform_dimension_limit(self, capsys, tmp_path, n, code):
        # classify would build an n x n contraction for each witness draw
        f = tmp_path / "wide.form"
        f.write_text(json.dumps({"n": n, "terms": [{"i": 1, "j": 2, "k": 3, "c": 1}]}))
        got, out, err = run_cli(capsys, ["classify", str(f)])
        assert got == code
        if code:
            record = json.loads(err)
            validate("error", record)
            assert record["error"]["type"] == "config"
            assert "MAX_FORM_DIMENSION = 64" in record["error"]["message"]
        else:
            assert json.loads(out)["class"] == "Obstructed"

    @pytest.mark.parametrize("content, coeffs", [
        ('[{"i": 1, "j": 2, "k": 3, "c": 2}]', {(0, 1, 2): 2}),
        ('[{"i": 1, "j": 2, "k": 3, "c": "-3/6"}]', {(0, 1, 2): Fraction(-1, 2)}),
        ('[{"i": 2, "j": 1, "k": 3, "c": 1}, {"i": 1, "j": 2, "k": 3, "c": "1/2"}]',
         {(0, 1, 2): Fraction(-1, 2)}),
        ('[{"i": 1, "j": 2, "k": 3, "c": 1}, {"i": 3, "j": 2, "k": 1, "c": 1}]', {}),
    ], ids=["int", "p/q", "permuted-mixed", "cancelling"])
    def test_threeform_coefficients(self, content, coeffs):
        eta = cli.threeform_from_json(json.loads(f'{{"n": 3, "terms": {content}}}'))
        assert eta.coeffs == coeffs

    def test_missing_or_empty_terms_is_the_zero_form(self):
        for obj in ({"n": 3}, {"n": 3, "terms": []}):
            assert cli.threeform_from_json(obj) == jumploci.ThreeForm.zero(3)

    @pytest.mark.parametrize("content", [
        {"n": 3, "relations": [[1, 2]]},
        {"n": -1, "relations": [[1]]},
        {"n": 2.5, "relations": [[1]]},
        {"n": 2, "relations": [[True]]},
        {"n": 2, "relations": [[0.5]]},
        # relations are an array of arrays, never read one character or key at a time
        {"n": 3, "relations": ["123"]},
        {"n": 3, "relations": ""},
        {"n": 3, "relations": {"123": 1}},
    ], ids=["wrong-length", "negative-n", "float-n", "bool-coefficient", "float-coefficient",
            "string-relation", "string-relations", "object-relations"])
    def test_malformed_holonomy_relations(self, capsys, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, ["holonomy", str(f)])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"

    # Fraction() reads all of these; "1e10000000" alone costs classify 14 s
    OFF_GRAMMAR = ["1e10000000", "1E5", "1.5", " 3/4", "3/4 ", "1_000", "3/-4", "+-1", "/4",
                   "1/", "", "0x10", "inf", "nan", "٣"]

    @pytest.mark.parametrize("command, content", [
        ("classify", lambda c: {"n": 3, "terms": [{"i": 1, "j": 2, "k": 3, "c": c}]}),
        ("holonomy", lambda c: {"n": 3, "terms": [{"i": 1, "j": 2, "k": 3, "c": c}]}),
        ("holonomy", lambda c: {"n": 2, "relations": [[c]]}),
    ], ids=["classify", "holonomy-form", "holonomy-relations"])
    @pytest.mark.parametrize("c", OFF_GRAMMAR)
    def test_coefficient_outside_the_grammar(self, capsys, tmp_path, command, content, c):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content(c)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [command, str(f)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"
        assert f"expected integer or 'p/q' string, got {c!r}" in record["error"]["message"]

    @pytest.mark.parametrize("text, value", [
        ("7", Fraction(7)), ("+7", Fraction(7)), ("-0", Fraction(0)), ("-3/6", Fraction(-1, 2)),
        ("+3/4", Fraction(3, 4)), ("007/010", Fraction(7, 10)),
    ])
    def test_coefficient_grammar_accepts(self, text, value):
        got = cli._parse_rational(text)
        assert type(got) is Fraction and got == value

    @pytest.mark.parametrize("content", [
        {"generators": ["x"], "relators": [5]},
        {"generators": "xy", "relators": []},
        {"generators": ["x"]},
        # a generator name must be one whole name of the presentation grammar
        {"generators": ["a", "a^2"], "relators": ["a^2"]},
        {"generators": ["1"], "relators": []},
        {"generators": [""], "relators": []},
        {"generators": ["a b"], "relators": []},
        {"generators": ["²a"], "relators": []},
    ], ids=["relator-not-string", "generators-string", "missing-relators",
            "name-with-power", "name-one", "name-empty", "name-with-space", "name-digit-start"])
    def test_malformed_json_presentation(self, capsys, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, ["alex", str(f)])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"

    def test_json_presentation_names_follow_the_grammar(self, capsys, tmp_path):
        f = tmp_path / "names.json"
        f.write_text(json.dumps({"generators": ["é", "_x", "a²"], "relators": ["é _x a²"]}))
        code, out, _ = run_cli(capsys, ["alex", str(f)])
        assert code == 0
        assert json.loads(out)["relators"] == ["é _x a²"]

    def test_json_relator_error_names_the_relator(self, capsys, tmp_path):
        # the offset counts inside the relator, not inside the file
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"generators": ["a"], "relators": ["a", "a b"]}))
        code, _, err = run_cli(capsys, ["alex", str(f)])
        assert code == 2
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {"type": "parse", "offset": 2,
                                   "message": "relator 1: unknown generator name 'b'"}

    @pytest.mark.parametrize("command, content, message", [
        ("classify", {"terms": []}, "malformed 3-form: missing key 'n'"),
        ("classify", {"n": 3, "terms": [{"i": 1, "j": 2, "k": 3}]},
         "malformed 3-form: missing key 'c'"),
        ("holonomy", {"relations": []}, "malformed holonomy relations: missing key 'n'"),
    ], ids=["classify-n", "classify-c", "holonomy-n"])
    def test_missing_json_key_is_named(self, capsys, tmp_path, command, content, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, [command, str(f)])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"
        assert record["error"]["message"] == message

    def test_word_length_limit(self, capsys, tmp_path):
        f = tmp_path / "power.grp"
        f.write_text("<x | x^1000000000000>")
        code, out, err = run_cli(capsys, ["alex", str(f)])
        assert code == 2
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"
        assert record["error"]["offset"] == 5

    def test_deep_commutator_nesting(self, capsys, tmp_path):
        f = tmp_path / "deep.grp"
        f.write_text("<x, y | " + "[" * 3000 + "x, x]" + ", y]" * 2999 + ">")
        code, out, err = run_cli(capsys, ["alex", str(f)])
        assert code == 2
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"
        assert record["error"]["offset"] == 8 + MAX_COMMUTATOR_DEPTH


class TestClosedInputs:
    """A JSON input holds only its documented keys; a term is a JSON object."""

    TERM = {"i": 1, "j": 2, "k": 3, "c": 1}

    @pytest.mark.parametrize("command, content, message", [
        ("classify", {"n": 3, "relations": [[1, 2, 3]]},
         "malformed 3-form: unknown key 'relations'"),
        ("holonomy", {"n": 3, "terms": [], "note": "x"}, "malformed 3-form: unknown key 'note'"),
        ("classify", {"n": 3, "terms": [dict(TERM, x=1, note=2)]},
         "malformed 3-form: term 0: unknown key 'note', 'x'"),
        ("classify", {"n": 3, "terms": [TERM, "abc"]},
         "malformed 3-form: term 1 must be a JSON object, got 'abc'"),
        ("holonomy", {"n": 3, "terms": [[1, 2, 3, 1]]},
         "malformed 3-form: term 0 must be a JSON object, got [1, 2, 3, 1]"),
        ("holonomy", {"n": 3, "relations": [[1, 2, 3]], "terms": []},
         "malformed holonomy relations: unknown key 'terms'"),
        ("alex", {"generators": ["x"], "relators": ["x"], "name": "Z/1"},
         "malformed presentation: unknown key 'name'"),
    ], ids=["classify-relations", "form-key", "term-keys", "string-term", "array-term",
            "relations-and-terms", "presentation-key"])
    def test_refused_with_a_named_cause(self, capsys, tmp_path, command, content, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, [command, str(f)])
        assert (code, out) == (2, "")
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "parse"
        assert record["error"]["message"] == message

    def test_documented_keys_are_read(self):
        eta = cli.threeform_from_json({"n": 3, "terms": [self.TERM]})
        assert eta.coeffs == {(0, 1, 2): 1}
        p = jumploci.presentation_from_json({"generators": ["x"], "relators": ["x"]})
        assert p.generator_names == ("x",)


class TestFailureTable:
    """Every command line ends in exit 0, 1 or 2; a failure leaves one error record."""

    def test_every_record_type_is_in_the_schema(self):
        schema = json.loads((SCHEMA_DIR / "error.json").read_text())
        types = schema["properties"]["error"]["properties"]["type"]["enum"]
        assert {t for _, t, _ in cli._FAILURES} <= set(types)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_closed_stdout_is_an_io_record(self, fmt):
        # the sweep's output is far past a pipe's buffer, so a write fails once
        # the reader has closed its end; nothing is left to fail at exit
        src = pathlib.Path(jumploci.__file__).parents[1]
        argv = [sys.executable, "-m", "jumploci.cli", "--format", fmt,
                "brieskorn", "sweep", "--max", "12", "--n", "3"]
        with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=str(src)),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(1)) == 1
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 2
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "io"
        assert err == cli.render_json(record)

    def test_stdout_closed_at_start_is_an_io_record(self):
        # Python sets sys.stdout to None when descriptor 1 is closed at start
        src = pathlib.Path(jumploci.__file__).parents[1]
        argv = [sys.executable, "-m", "jumploci.cli", "brieskorn", "2,3,7"]
        proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(src)),
                              stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                              timeout=60)
        assert proc.returncode == 2
        err = proc.stderr.decode()
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "io"
        assert err == cli.render_json(record)

    def test_fuzzed_command_lines(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(st.data())
        def check(data):
            argv = _fuzz_argv(data.draw, st, tmp_path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2)
            if code:
                assert out == ""
                record = json.loads(err)
                validate("error", record)
                assert err == cli.render_json(record)
            else:
                assert err == ""
                if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
                    report = json.loads(out)
                    validate(report["command"], report)

        check()


def _rarely(draw, st):
    """True about one time in eight: how often the fuzz grammar picks a refused value."""
    return draw(st.integers(0, 7)) == 7


def _fuzz_json_file(draw, st, obj):
    """`obj` as JSON text, now and then changed by one edit: a key dropped or
    added, a value of the wrong type, or a stray character."""
    edit = draw(st.sampled_from(["drop", "add", "type", "char"])) if draw(st.booleans()) else None
    if edit == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif edit == "add":
        obj["extra"] = 1
    elif edit == "type":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(
            st.sampled_from(["x", 1.5, None, True, [], {}, [["x"]], -1]))
    text = json.dumps(obj)
    if edit == "char":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from('{}[],:"x1 -')) + text[at:]
    return text


def _fuzz_presentation(draw, st):
    """Presentation text or JSON on at most 4 generators, with words of at most
    6 atoms, and its generator count."""
    gens = draw(st.lists(st.sampled_from("xyzw"), min_size=1, max_size=4, unique=True))
    gen = st.sampled_from(gens)
    atom = st.one_of(
        gen,
        st.builds("{}^{}".format, gen, st.integers(-3, 3)),
        st.builds("[{},{}]".format, gen, gen),
        st.just("1"),
    )
    relators = draw(st.lists(st.lists(atom, min_size=1, max_size=6).map(" ".join), max_size=3))
    if draw(st.booleans()):
        return _fuzz_json_file(draw, st, {"generators": gens, "relators": relators}), len(gens)
    text = f"<{', '.join(gens)} | {', '.join(relators)}>"
    if _rarely(draw, st):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("<>|,[]^x1 -")) + text[at:]
    return text, len(gens)


def _fuzz_form(draw, st, relations):
    """A 3-form, or a holonomy relation list, on n <= 8 with at most 4 terms or 2 rows."""
    n = draw(st.integers(0 if _rarely(draw, st) else 1, 8))
    index = st.integers(0, n + 1) if _rarely(draw, st) else st.integers(1, max(n, 1))
    coeff = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "3"]))
    if not relations:
        term = st.fixed_dictionaries({"i": index, "j": index, "k": index, "c": coeff})
        obj = {"n": n, "terms": draw(st.lists(term, max_size=4))}
    else:
        width = 2 if _rarely(draw, st) else n * (n - 1) // 2
        row = st.lists(coeff, min_size=width, max_size=width)
        obj = {"n": n, "relations": draw(st.lists(row, max_size=2))}
    return _fuzz_json_file(draw, st, obj)


# each global option with values the CLI takes and values it refuses
_FUZZ_OPTIONS = {
    "--seed": (range(-5, 1000), ["x", "1.5"]),
    "--trials": (range(1, 31), [0, MAX_TRIALS + 1, "many"]),
    "--symbolic-threshold": (range(1, cli.MAX_SYMBOLIC_THRESHOLD + 1),
                             [0, cli.MAX_SYMBOLIC_THRESHOLD + 1]),
    "--degree-cap": (range(1, 7), [0, holonomy.MAX_DEGREE_CAP + 1]),
    "--format": (["json", "text", "csv"], ["xml"]),
}


def _fuzz_argv(draw, st, tmp_path):
    """An argv from a small grammar, with its input file written under `tmp_path`."""
    argv = []
    for flag, (valid, refused) in _FUZZ_OPTIONS.items():
        if draw(st.integers(0, 3)) == 3:
            values = refused if _rarely(draw, st) else valid
            argv += [flag, str(draw(st.sampled_from(values)))]
    command = draw(st.sampled_from(["alex", "charvar", "classify", "brieskorn", "holonomy"]))
    path = tmp_path / "input"
    if command in ("alex", "charvar"):
        text, gens = _fuzz_presentation(draw, st)
        path.write_text(text)
    elif command != "brieskorn":
        # relations are a holonomy input; `classify` refuses them
        relations = draw(st.booleans()) if command == "holonomy" else _rarely(draw, st)
        path.write_text(_fuzz_form(draw, st, relations))
    if _rarely(draw, st):
        path = tmp_path / "missing"
    depth = st.integers(-1 if _rarely(draw, st) else 1, 3).map(str)
    if command == "alex":
        argv += ["alex", str(path)]
        for d in draw(st.lists(depth, max_size=2)):
            argv += ["--ideal-d", d]
    elif command == "charvar":
        order = draw(st.integers(0 if _rarely(draw, st) else 1, 12))
        # as many exponents as generators often matches b1
        count = draw(st.integers(0, 4)) if _rarely(draw, st) else gens
        exps = ",".join(map(str, draw(st.lists(st.integers(0, 12), min_size=count,
                                               max_size=count))))
        spec = f"{order}:{exps}"
        if _rarely(draw, st):
            spec = draw(st.sampled_from(["abc", "6:x", exps]))
        argv += ["charvar", str(path), spec, "--d", draw(depth)]
    elif command == "brieskorn":
        if draw(st.booleans()):
            argv += ["brieskorn", "sweep", "--max", str(draw(st.integers(0, 5))),
                     "--n", str(draw(st.integers(2 if _rarely(draw, st) else 3, 4)))]
        else:
            exponent = st.integers(0 if _rarely(draw, st) else 2, 12).map(str)
            exps = draw(st.lists(exponent, min_size=2, max_size=5))
            argv += ["brieskorn", "2,x,3" if _rarely(draw, st) else ",".join(exps)]
    else:
        argv += [command, str(path)]
        if command == "holonomy":
            argv += ["--degree", str(draw(st.integers(0 if _rarely(draw, st) else 1, 5)))]
    return argv


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["brieskorn", "sweep", "--max", "abc"],
        ["--trials", "x", "brieskorn", "3,3,6"],
        ["--format", "xml", "brieskorn", "3,3,6"],
        ["brieskorn", "3,3,6", "--extra"],
        ["--extra", "brieskorn", "3,3,6"],
        ["frobnicate"],
        ["charvar", "file.grp"],
        [],
    ], ids=["bad-int", "bad-global-int", "bad-choice", "unknown-option",
            "unknown-global-option", "unknown-command", "missing-argument", "empty"])
    def test_refused_command_line_is_a_config_record(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"]["type"] == "config"
        assert record["error"]["message"].startswith("jumploci")

    @pytest.mark.parametrize("argv, message", [
        (["holonomy", "{missing}", "--degree", "0"], "degree must be at least 1"),
        (["--degree-cap", "5", "holonomy", "{missing}", "--degree", "6"],
         "degree 6 exceeds the cap 5"),
        (["charvar", "{missing}", "2:1", "--d", "0"], "d must be a positive integer"),
        (["alex", "{missing}", "--ideal-d", "-1"], "ideal depth must be non-negative"),
        (["brieskorn", "sweep", "--n", "2"], "sweep needs n >= 3"),
        (["--symbolic-threshold", "12", "classify", "{missing}"],
         "symbolic threshold 12 exceeds MAX_SYMBOLIC_THRESHOLD = 11"),
    ], ids=["degree-0", "degree-above-cap", "charvar-d-0", "negative-ideal-d", "sweep-n-2",
            "symbolic-threshold-above-limit"])
    def test_refused_option_value_is_a_config_record(self, capsys, tmp_path, argv, message):
        # refused before any input is read: the missing file is never opened
        missing = str(tmp_path / "missing")
        code, out, err = run_cli(capsys, [a.format(missing=missing) for a in argv])
        assert code == 2
        assert out == ""
        record = json.loads(err)
        validate("error", record)
        assert record["error"] == {"type": "config", "message": message, "offset": None}

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["brieskorn", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: jumploci brieskorn")
        assert captured.err == ""

    def test_calls_keep_their_own_defaults(self, capsys, trefoil_file):
        code, out, _ = run_cli(capsys, ["--seed", "5", "alex", trefoil_file, "--ideal-d", "2"])
        assert code == 0
        report = json.loads(out)
        assert [i["d"] for i in report["ideals"]] == [2]
        assert report["config"]["seed"] == 5
        code, out, _ = run_cli(capsys, ["alex", trefoil_file])
        report = json.loads(out)
        assert [i["d"] for i in report["ideals"]] == [1]
        assert report["config"]["seed"] == 0
        code, out, _ = run_cli(capsys, ["--format", "text", "alex", trefoil_file, "--ideal-d", "3"])
        assert code == 0
        assert "config.format = text" in out and "ideals.0.d = 3" in out
        assert "ideals.1." not in out
        code, out, _ = run_cli(capsys, ["alex", trefoil_file])
        report = json.loads(out)
        assert [i["d"] for i in report["ideals"]] == [1]
        assert report["config"] == RunConfig().as_dict()

    def test_built_once(self, capsys, monkeypatch, trefoil_file):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        for argv in (["brieskorn", "3,3,6"], ["brieskorn", "sweep", "--max", "abc"],
                     ["--format", "text", "alex", trefoil_file], ["brieskorn", "2,3,5"]):
            main(argv)
        capsys.readouterr()
        assert built == [1]

    def test_not_built_at_import(self):
        src = pathlib.Path(jumploci.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import jumploci.cli as cli; print(cli._parser.cache_info().currsize); "
                 "cli.main(['brieskorn', '3,3,6']); print(cli._parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[0] == "0"
        assert out.splitlines()[-1] == "1"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, trefoil_file, model5_form_file):
        commands = [
            ["--seed", "42", "--trials", "30", "alex", trefoil_file],
            ["charvar", trefoil_file, "6:1"],
            ["classify", model5_form_file],
            ["brieskorn", "3,3,6"],
            ["--format", "csv", "brieskorn", "sweep", "--max", "4", "--n", "3"],
        ]
        for argv in commands:
            _, first, _ = run_cli(capsys, argv)
            _, second, _ = run_cli(capsys, argv)
            assert first == second
