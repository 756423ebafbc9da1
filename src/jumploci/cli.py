"""Command-line interface: reproducible, machine-readable invariant reports.

Subcommands:

    alex FILE            Alexander matrix, requested elementary ideals, the
                         Alexander polynomial, and a sampled almost-principality
                         consistency report.
    charvar FILE CHI     Jump-locus membership of a finite-order character,
                         answered independently by the rank formula and by
                         ideal vanishing, with an agreement flag.
    classify FILE        Malcev classification of a rational 3-form.
    brieskorn SPEC       Seifert data, torsion data, component counts,
                         formality and tangent-cone verdict for a Brieskorn
                         link; SPEC is `a1,a2,...` or `sweep --max A --n N`.
    holonomy FILE        Graded holonomy Lie algebra ranks up to --degree.

Presentation files hold either the `< x, y | ... >` grammar or JSON
{"generators": [...], "relators": [...]}.  3-form files hold JSON
{"n": N, "terms": [{"i":, "j":, "k":, "c":}]} with 1-based indices and
integer or "p/q" coefficients.  Holonomy input accepts the 3-form shape or
{"n": N, "relations": [[...]]} with wedge coordinates in lexicographic pair
order.  A JSON input with any other key is refused.  Characters are written
`m:e1,e2,...`.

Randomized subroutines (character sampling, large-n genericity fallback)
always echo their seed and trial count; output is byte-identical for a fixed
(input, seed, config) triple.  Exit codes: 0 success, 2 malformed or unreadable
input, a closed stdout or a refused command line, 1 other failures; the table
`_FAILURES` gives each failure its exit code and its error record on stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# the computing modules are imported by the command or loader that calls them,
# and their names looked up at call time, so a process loads only what its
# subcommand runs
from ._limits import (
    DEFAULT_DEGREE_CAP,
    MAX_DEGREE_CAP,
    MAX_INVARIANT_BITS,
    IntegralityError,
    LimitError,
    PresentationParseError,
)

__all__ = ["main", "RunConfig", "MAX_TRIALS", "MAX_SYMBOLIC_THRESHOLD", "MAX_CHARACTER_DIGITS",
           "MAX_FORM_DIMENSION"]

# sampled checks draw --trials characters (alex) or witness points (classify);
# a larger count is refused before anything is drawn
MAX_TRIALS = 2**14

# a larger --symbolic-threshold is refused: a full odd form up to it is decided by
# one rank test per point of a lattice whose size C(n + k - 1, k), k = (n - 3)/2,
# grows exponentially in n: 1001 tests at n = 11 took 0.09-0.22 s per whole
# process, and 6188 at n = 13 took 0.14 s (sparse) to 1.4 s (dense) in-process
# (2-CPU Xeon)
MAX_SYMBOLIC_THRESHOLD = 11

# a larger "n" in a 3-form or holonomy input is refused when read: `classify` builds
# an n x n contraction per witness draw (n = 63, one term, MAX_TRIALS draws: 1.6 s)
MAX_FORM_DIMENSION = 64

# a character's numbers matter only mod its order (at most MAX_CHARACTER_ORDER);
# a longer token is refused unread, before `int` refuses it with its own message
MAX_CHARACTER_DIGITS = 1000


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    trials: int = 100
    symbolic_threshold: int = 9
    degree_cap: int = DEFAULT_DEGREE_CAP
    output_format: str = "json"

    def __post_init__(self):
        if self.trials < 1:
            raise _UsageError("trials must be at least 1")
        if self.trials > MAX_TRIALS:
            raise LimitError(f"trials {self.trials} exceeds MAX_TRIALS = {MAX_TRIALS}")
        if self.symbolic_threshold < 1 or self.degree_cap < 1:
            raise _UsageError("thresholds must be positive")
        if self.symbolic_threshold > MAX_SYMBOLIC_THRESHOLD:
            raise LimitError(f"symbolic threshold {self.symbolic_threshold} exceeds "
                             f"MAX_SYMBOLIC_THRESHOLD = {MAX_SYMBOLIC_THRESHOLD}")
        if self.degree_cap > MAX_DEGREE_CAP:
            raise LimitError(
                f"degree cap {self.degree_cap} exceeds MAX_DEGREE_CAP = {MAX_DEGREE_CAP}")
        if self.output_format not in ("json", "csv", "text"):
            raise _UsageError("format must be json, csv, or text")

    def as_dict(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "symbolic_threshold": self.symbolic_threshold,
            "degree_cap": self.degree_cap,
            "format": self.output_format,
        }


def _json_int(value, what):
    """A JSON integer as an int; a float, a boolean or any other value is refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


# the only string coefficients: an integer or a fraction of digit strings.  A
# wider grammar costs: Fraction("1e10000000") builds a ten-million-digit integer
_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_rational(value):
    """A JSON coefficient: an integer stays an int, a 'p/q' string becomes a Fraction.

    A string must read `[+-]?digits(/digits)?`; exponents, decimal points,
    spaces and underscores are refused.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and _RATIONAL_STRING.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"expected integer or 'p/q' string, got {value!r}")


class MalformedInputError(ValueError):
    """Input file whose JSON does not have the documented shape (exit code 2)."""


class _UsageError(ValueError):
    """A malformed command line or argument; `main` reports it as a config record."""


# what a wrongly shaped JSON value raises when its fields are read
_SHAPE_ERRORS = (KeyError, TypeError, ValueError)


def _closed(obj, keys, where=""):
    """Refuse a key of the JSON object `obj` that is not in `keys`, naming it.

    Every JSON input is closed: an unknown key is refused, never ignored.
    """
    unknown = obj.keys() - keys
    if unknown:
        raise ValueError(f"{where}unknown key " + ", ".join(map(repr, sorted(unknown))))


def _malformed(what, exc):
    """The shape error `exc` of a `what` input as a MalformedInputError."""
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return MalformedInputError(f"malformed {what}: {detail}")


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def load_presentation(path):
    from . import presentation

    text = Path(path).read_text(encoding="utf-8")
    if not text.lstrip().startswith("{"):
        return presentation.parse_presentation(text)
    obj = json.loads(text)
    try:
        _closed(obj, ("generators", "relators"))
        return presentation.presentation_from_json(obj)
    except PresentationParseError:
        raise
    except _SHAPE_ERRORS as exc:
        raise _malformed("presentation", exc) from exc


def _dimension(obj):
    """The JSON integer "n" of a 3-form or holonomy input, at most MAX_FORM_DIMENSION."""
    n = _json_int(obj["n"], "n")
    if n > MAX_FORM_DIMENSION:
        raise LimitError(f"dimension n = {n} exceeds MAX_FORM_DIMENSION = {MAX_FORM_DIMENSION}")
    return n


def threeform_from_json(obj):
    from . import resonance

    if not isinstance(obj, dict):
        raise MalformedInputError("3-form JSON must be an object")
    try:
        _closed(obj, ("n", "terms"))
        n = _dimension(obj)
        terms = obj.get("terms", [])
        if type(terms) is not list:
            raise TypeError('"terms" must be a JSON array')
        coeffs = {}
        for t, term in enumerate(terms):
            if type(term) is not dict:
                raise TypeError(f"term {t} must be a JSON object, got {term!r}")
            i = term["i"]
            if type(i) is not int:  # refused with _json_int's message
                _json_int(i, "i")
            j = term["j"]
            if type(j) is not int:
                _json_int(j, "j")
            k = term["k"]
            if type(k) is not int:
                _json_int(k, "k")
            c = term["c"]
            if type(c) is not int:
                c = _parse_rational(c)
            if len(term) != 4:  # all four keys were read, so there is another
                _closed(term, ("i", "j", "k", "c"), f"term {t}: ")
            key = (i - 1, j - 1, k - 1)
            coeffs[key] = coeffs[key] + c if key in coeffs else c
        return resonance.ThreeForm(n, coeffs)
    except LimitError:
        raise
    except _SHAPE_ERRORS as exc:
        raise _malformed("3-form", exc) from exc


def load_threeform(path):
    return threeform_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def load_holonomy_input(path):
    from . import holonomy

    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(obj, dict) and "relations" in obj:
        try:
            _closed(obj, ("n", "relations"))
            n = _dimension(obj)
            rows = obj["relations"]
            if type(rows) is not list or any(type(row) is not list for row in rows):
                raise TypeError('"relations" must be a JSON array of JSON arrays')
            rels = tuple(tuple(_parse_rational(c) for c in row) for row in rows)
            return holonomy.QuadraticData(n=n, relations=rels)
        except LimitError:
            raise
        except _SHAPE_ERRORS as exc:
            raise _malformed("holonomy relations", exc) from exc
    return holonomy.holonomy_from_threeform(threeform_from_json(obj))


def parse_character(text):
    """Parse `m:e1,e2,...` into a Character of order at most MAX_CHARACTER_ORDER."""
    from . import alexander, laurent

    head, sep, tail = text.partition(":")
    if not sep:
        raise _UsageError("character spec must look like 'm:e1,e2,...'")
    limit = alexander.MAX_CHARACTER_ORDER
    (order,) = _integers([head], "character order", MAX_CHARACTER_DIGITS,
                         f"MAX_CHARACTER_ORDER = {limit}")
    if order > limit:
        raise LimitError(f"character order {order} exceeds MAX_CHARACTER_ORDER = {limit}")
    if order < 1:
        raise _UsageError(f"character order {order} is not positive")
    exponents = _integers(tail.split(",") if tail.strip() else [], "character exponent",
                          MAX_CHARACTER_DIGITS, f"MAX_CHARACTER_DIGITS = {MAX_CHARACTER_DIGITS}")
    return laurent.Character(order=order, exponents=exponents)


def _integers(tokens, what, max_digits, limit):
    """The ints the strings `tokens` spell, each a `what`.  A token longer than
    `max_digits` is refused unread, naming `limit`, before `int` refuses it."""
    if any(len(tok.strip()) > max_digits for tok in tokens):
        article = "an" if what[0] in "aeiou" else "a"
        raise LimitError(f"{article} {what} of more than {max_digits} digits exceeds {limit}")
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise _UsageError(f"{what} {tok.strip()!r} is not an integer") from None
    return tuple(values)


# an exponent written with more digits than 2^MAX_INVARIANT_BITS has is beyond
# the limit
_MAX_EXPONENT_DIGITS = len(str(1 << MAX_INVARIANT_BITS))


def parse_exponents(spec):
    """Parse `a1,a2,...`; a longer number than the limit allows is refused unread."""
    return _integers(spec.split(","), "exponent", _MAX_EXPONENT_DIGITS,
                     f"MAX_INVARIANT_BITS = {MAX_INVARIANT_BITS}")


# ---------------------------------------------------------------------------
# report builders
# ---------------------------------------------------------------------------

def run_alex(p, config, ideal_ds=(1,)):
    from . import alexander, laurent, presentation

    a = alexander.alexander_matrix(p)
    delta_str = laurent.poly_to_string(a.delta)
    ideals = []
    for d in sorted(set(ideal_ds)):
        e = a.ideal(d)
        ideals.append(
            {
                "d": d,
                "generators": [laurent.poly_to_string(g) for g in e.generators],
                "delta": delta_str,
                # an ideal is listed in full or refused, never cut off
                "truncated": False,
            }
        )
    if a.num_vars >= 1:
        rep = alexander.almost_principal_sampled(a, config.trials, config.seed)
        almost = {
            "trials": rep.trials,
            "seed": rep.seed,
            "orders": list(rep.orders),
            "counterexamples": [str(chi) for chi in rep.counterexamples],
            "consistent": rep.consistent,
        }
    else:
        almost = None
    return {
        "command": "alex",
        "generators": list(p.generator_names),
        "relators": [presentation.format_word(r, p.generator_names) for r in p.relators],
        "b1": a.abelianization.b1,
        "torsion": list(a.abelianization.torsion),
        "matrix": [[laurent.poly_to_string(e) for e in row] for row in a.entries],
        "delta": delta_str,
        "ideals": ideals,
        "almost_principal": almost,
        "config": config.as_dict(),
    }


def run_charvar(p, chi, d, config):
    from . import alexander

    if d < 1:
        raise ValueError("d must be a positive integer")
    a = alexander.alexander_matrix(p)
    h1 = alexander.twisted_h1_dim(a, chi)
    rank_based = h1 >= d
    ideal_based = alexander.elementary_ideal_vanishes_at(a, d, chi)
    return {
        "command": "charvar",
        "character": {"order": chi.order, "exponents": list(chi.exponents)},
        "d": d,
        "twisted_h1_dim": h1,
        "rank_based": rank_based,
        "ideal_based": ideal_based,
        "agree": rank_based == ideal_based,
        "config": config.as_dict(),
    }


def run_classify(eta, config):
    from . import resonance

    verdict = resonance.classify_malcev(
        eta,
        symbolic_threshold=config.symbolic_threshold,
        trials=config.trials,
        seed=config.seed,
    )
    out = {
        "command": "classify",
        "n": eta.n,
        "class": verdict.kind.value,
        "corank": verdict.corank,
        "isotropy_index": verdict.isotropy_index,
        "decided_by": verdict.decided_by,
        "reason": verdict.reason,
        "config": config.as_dict(),
    }
    if verdict.kind is resonance.MalcevKind.FREE:
        out["rank"] = verdict.rank
    if verdict.kind is resonance.MalcevKind.Z_X_SURFACE:
        out["g"] = verdict.genus
    rep = verdict.fullness
    out["genericity_mode"] = None if rep is None else {
        "mode": rep.mode,
        "trials": rep.trials,
        "seed": rep.seed,
    }
    return out


def _brieskorn_record(inv):
    """The report fields of one link from its `link_invariants`, all but its exponents."""
    s, t, comps, tc = inv["seifert"], inv["torsion"], inv["components"], inv["tangent_cone"]
    return {
        "orbits": [[o.alpha, o.beta, o.multiplicity] for o in s.orbits],
        "g": s.genus,
        "e": str(s.euler),
        "b": inv["obstruction"],
        "torsion": {
            "T": t.torsion_order,
            "ord_h": t.fiber_class_order,
            "alpha": t.alpha,
        },
        "components": comps.positive_dim_count,
        "dim": comps.component_dim,
        "translated": comps.translated_count,
        "includes_identity": comps.includes_identity_component,
        "one_formal": inv["one_formal"],
        "tangent_cone": {
            "germ": "identity" if tc.germ_is_identity_only else "torus",
            "germ_dim": tc.germ_torus_dim,
            "r1_dim": tc.r1_dim,
            "holds": tc.formula_holds,
        },
    }


def run_brieskorn(exps, config):
    from . import seifert

    record = _brieskorn_record(seifert.link_invariants(exps))
    record["exponents"] = list(exps)
    record["command"] = "brieskorn"
    record["config"] = config.as_dict()
    return record


def run_brieskorn_sweep(max_exponent, n, config):
    """A sweep report whose rows are `seifert.sweep`'s `(exponents, record)` pairs."""
    from . import seifert

    return {
        "command": "brieskorn-sweep",
        "max_exponent": max_exponent,
        "n": n,
        "rows": seifert.sweep(max_exponent, n),
        "config": config.as_dict(),
    }


def run_holonomy(data, degree, config):
    from . import holonomy

    ranks = holonomy.lie_ranks(data, degree, degree_cap=config.degree_cap)
    return {
        "command": "holonomy",
        "n": data.n,
        "num_relations": len(data.relations),
        "degree": degree,
        "ranks": list(ranks.ranks),
        "config": config.as_dict(),
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _flatten(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            lines.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            lines.extend(_flatten(v, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix[:-1]} = {obj}")
    return lines


def render_text(obj):
    return "\n".join(_flatten(obj)) + "\n"


SWEEP_COLUMNS = [
    "exponents",
    "orbits",
    "g",
    "e",
    "b",
    "T",
    "ord_h",
    "alpha",
    "components",
    "dim",
    "translated",
    "includes_identity",
    "one_formal",
    "tc_holds",
]


# a sweep row is an element of the report's "rows" list, at depth 2 of the json
_JSON_ROW_INDENT = " " * 4
_JSON_EXPONENT_SEP = ",\n" + " " * 8


def _sweep_fragments(body, fmt):
    """The rendering of a sweep row around its exponents, as (before, after).

    Keys sort "e" < "exponents" < "g", so in json and text a row's exponents
    fall between the fields of `body` that sort before them and those after;
    text gives these as lines without the row prefix.  In csv the exponents are
    the first cell and `before` is empty.
    """
    if fmt == "json":
        # json.dumps escapes every newline inside a string, so indenting each
        # line of the row by its depth is exact
        text = json.dumps(dict(body, exponents=[]), indent=2, sort_keys=True)
        text = _JSON_ROW_INDENT + text.replace("\n", "\n" + _JSON_ROW_INDENT)
        before, _, after = text.partition('"exponents": []')
        return before + '"exponents": [\n' + " " * 8, "\n" + " " * 6 + "]" + after
    if fmt == "text":
        return (
            _flatten({k: v for k, v in body.items() if k < "exponents"}),
            _flatten({k: v for k, v in body.items() if k > "exponents"}),
        )
    torsion = body["torsion"]
    cells = [
        ";".join(f"({o[0]}:{o[1]})x{o[2]}" for o in body["orbits"]),
        str(body["g"]),
        body["e"],
        str(body["b"]),
        str(torsion["T"]),
        str(torsion["ord_h"]),
        str(torsion["alpha"]),
        str(body["components"]),
        str(body["dim"]),
        str(body["translated"]),
        str(body["includes_identity"]).lower(),
        str(body["one_formal"]).lower(),
        str(body["tangent_cone"]["holds"]).lower(),
    ]
    return "", "," + ",".join(cells) + "\n"


def render_sweep(report, fmt, out):
    """Write a sweep report to `out` row by row, splicing each row's exponents
    into the text `_sweep_fragments` makes once per shared record."""
    rows = report["rows"]
    # an empty list renders no text line and `[]` in json
    envelope = dict(report, rows=[])
    if fmt == "csv":
        out.write(",".join(SWEEP_COLUMNS) + "\n")
    elif fmt == "text":
        # "rows" sorts after every envelope key
        out.write(render_text(envelope))
    else:
        head, _, tail = render_json(envelope).rpartition("[]")
        out.write(head + "[")
    fragments = {}
    for i, (exps, record) in enumerate(rows):
        # records are alive in the report, so their ids are distinct
        frag = fragments.get(id(record))
        if frag is None:
            frag = fragments[id(record)] = _sweep_fragments(_brieskorn_record(record), fmt)
        before, after = frag
        # the shared fragments are written as they are, so a csv or json row
        # allocates only the text of its own exponents
        if fmt == "csv":
            out.write(" ".join(map(str, exps)))
            out.write(after)
        elif fmt == "text":
            prefix = f"rows.{i}."
            lines = [*before, *(f"exponents.{j} = {a}" for j, a in enumerate(exps)), *after]
            out.write(prefix + ("\n" + prefix).join(lines) + "\n")
        else:
            out.write(",\n" if i else "\n")
            out.write(before)
            out.write(_JSON_EXPONENT_SEP.join(map(str, exps)))
            out.write(after)
    if fmt == "json":
        out.write(("\n  ]" if rows else "]") + tail)


def render(report, config, out):
    """Write the report to the stream `out` in the configured format."""
    if report.get("command") == "brieskorn-sweep":
        render_sweep(report, config.output_format, out)
    elif config.output_format == "json":
        out.write(render_json(report))
    else:
        out.write(render_text(report))


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # subparsers are built with the class of their parent, so they raise too
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="jumploci",
        description="Exact invariants of 3-manifold groups and Brieskorn links.",
    )
    parser.add_argument("--seed", type=int, default=RunConfig.seed,
                        help="seed for sampled checks")
    parser.add_argument("--trials", type=int, default=RunConfig.trials, help="sample count")
    parser.add_argument(
        "--symbolic-threshold", type=int, default=RunConfig.symbolic_threshold,
        help="max odd n whose fullness is decided exactly",
    )
    parser.add_argument("--degree-cap", type=int, default=RunConfig.degree_cap)
    parser.add_argument("--format", choices=["json", "csv", "text"],
                        default=RunConfig.output_format)
    sub = parser.add_subparsers(dest="command", required=True)

    p_alex = sub.add_parser("alex", help="Alexander matrix, ideals, polynomial")
    p_alex.add_argument("file")
    p_alex.add_argument(
        "--ideal-d", type=int, action="append", default=None,
        help="elementary ideal depth (repeatable; default 1)",
    )

    p_cv = sub.add_parser("charvar", help="jump-locus membership of a character")
    p_cv.add_argument("file")
    p_cv.add_argument("character", help="character spec m:e1,e2,...")
    p_cv.add_argument("--d", type=int, default=1)

    p_cl = sub.add_parser("classify", help="Malcev classification of a 3-form")
    p_cl.add_argument("file")

    p_br = sub.add_parser("brieskorn", help="Brieskorn link invariants")
    p_br.add_argument("spec", help="exponent list a1,a2,... or the word 'sweep'")
    p_br.add_argument("--max", type=int, default=12, help="sweep exponent bound")
    p_br.add_argument("--n", type=int, default=3, help="sweep tuple length")

    p_h = sub.add_parser("holonomy", help="graded holonomy Lie algebra ranks")
    p_h.add_argument("file")
    p_h.add_argument("--degree", type=int, default=4)

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser of this process, built on the first `main` call, not at import."""
    return build_parser()


def _dispatch(args, config):
    """Refuse a per-command option value before any input is read, then run."""
    sweep = args.command == "brieskorn" and args.spec == "sweep"
    if config.output_format == "csv" and not sweep:
        raise _UsageError("csv output is only available for brieskorn sweeps")
    if args.command == "alex":
        ds = args.ideal_d if args.ideal_d else [1]
        if any(d < 0 for d in ds):
            raise _UsageError("ideal depth must be non-negative")
        return run_alex(load_presentation(args.file), config, ds)
    if args.command == "charvar":
        if args.d < 1:
            raise _UsageError("d must be a positive integer")
        return run_charvar(load_presentation(args.file), parse_character(args.character),
                           args.d, config)
    if args.command == "classify":
        return run_classify(load_threeform(args.file), config)
    if args.command == "brieskorn":
        if sweep:
            if args.n < 3:
                raise _UsageError("sweep needs n >= 3")
            return run_brieskorn_sweep(args.max, args.n, config)
        return run_brieskorn(parse_exponents(args.spec), config)
    if args.command == "holonomy":
        if args.degree < 1:
            raise _UsageError("degree must be at least 1")
        if args.degree > config.degree_cap:
            raise _UsageError(f"degree {args.degree} exceeds the cap {config.degree_cap}")
        return run_holonomy(load_holonomy_input(args.file), args.degree, config)


# each failure `main` reports, matched in this order: its classes (an OSError is an
# unreadable input or a closed stdout), its stderr record's type, its exit code
_FAILURES = (
    ((PresentationParseError,), "parse", 2),
    ((LimitError, _UsageError), "config", 2),
    ((OSError,), "io", 2),
    ((json.JSONDecodeError, KeyError, MalformedInputError, UnicodeDecodeError), "parse", 2),
    ((IntegralityError,), "integrality", 1),
    ((ValueError, IndexError), "value", 1),
)
_CAUGHT = tuple(cls for classes, _, _ in _FAILURES for cls in classes)


def _silence_stdout():
    """Point a closed stdout at os.devnull for the final flush (see `signal`'s SIGPIPE note)."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # a StringIO has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        config = RunConfig(seed=args.seed, trials=args.trials,
                           symbolic_threshold=args.symbolic_threshold,
                           degree_cap=args.degree_cap, output_format=args.format)
        out = sys.stdout
        if out is None:  # Python's stdout when descriptor 1 was closed at start
            raise OSError(errno.EBADF, "stdout is closed")
        render(_dispatch(args, config), config, out)
        # a reader that closed stdout is reported here, not at exit
        out.flush()
    except _CAUGHT as exc:
        err_type, code = next((t, c) for classes, t, c in _FAILURES if isinstance(exc, classes))
        if isinstance(exc, BrokenPipeError):
            _silence_stdout()
        located = isinstance(exc, PresentationParseError)
        error = {"type": err_type, "message": exc.message if located else str(exc),
                 "offset": exc.offset if located else None}
        sys.stderr.write(render_json({"error": error}))
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
