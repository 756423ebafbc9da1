"""Outside tracing: wrap jumploci's public functions and turn spans into layer metrics.

`Tracer.install()` replaces each function in TARGETS by a wrapper in every
jumploci namespace that holds the same function object (the defining module,
modules that imported it by name, and the package itself), and
`ThreeForm.transform` on its class.  `uninstall()` puts the originals back, so
untraced passes run unmodified code.  A target that no longer exists is
listed in `absent` and its metrics read 0.

Each call records a span (name, start, end, parent span index, query id) in
memory.  A span's self time is its duration minus the durations of its child
spans; self times are summed into the layer metric of the span's target.
Counters and "useful" keys are taken from arguments and results by the hooks
below.  A useful ratio is, per query, the number of distinct inputs a function
saw (by object identity, kept alive for the query) divided by its calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from oracles import witt


def _ideal_hook(tr, args, kwargs, result):
    d = args[1] if len(args) > 1 else kwargs.get("d")
    tr.useful("alexander.ideal", args[0], d)
    tr.add("alexander.minors_kept", len(getattr(result, "generators", ())))
    tr.add("alexander.ideals_truncated", int(bool(getattr(result, "truncated", False))))


def _matrix_hook(tr, args, kwargs, result):
    tr.useful("alexander.matrix", args[0])


def _gcd_hook(tr, args, kwargs, result):
    tr.add("laurent.gcd_inputs", len(args[0]))


def _rank_hook(tr, args, kwargs, result):
    rows = args[0]
    tr.add("linalg.rank_cells", len(rows) * (len(rows[0]) if len(rows) else 0))


def _r1_hook(tr, args, kwargs, result):
    tr.useful("resonance.r1_fullness", args[0])


def _lie_hook(tr, args, kwargs, result):
    n = args[0].n
    ranks = getattr(result, "ranks", ())
    tr.add("holonomy.ideal_dim", sum(witt(n, d) - r for d, r in enumerate(ranks, 1) if d >= 2))


def _torsion_hook(tr, args, kwargs, result):
    tr.useful("seifert.torsion", args[0])


def _row_hook(tr, args, kwargs, result):
    tr.add("seifert.rows", 1)


# (module, attribute path, self-time metric, calls metric, hook)
TARGETS = (
    ("cli", "main", "cli.self_s", None, None),
    ("cli", "load_presentation", "cli.load_s", None, None),
    ("cli", "load_threeform", "cli.load_s", None, None),
    ("cli", "threeform_from_json", "cli.load_s", None, None),
    ("cli", "load_holonomy_input", "cli.load_s", None, None),
    ("cli", "parse_character", "cli.load_s", None, None),
    ("cli", "render", "cli.render_s", None, None),
    ("presentation", "parse_presentation", "presentation.parse_s", None, None),
    ("presentation", "presentation_from_json", "presentation.parse_s", None, None),
    ("presentation", "abelianization", "presentation.abelianization_s",
     "presentation.abelianization_calls", None),
    ("presentation", "fox_derivative", "presentation.fox_s", "presentation.fox_calls", None),
    ("alexander", "alexander_matrix", None, "alexander.matrix_calls", _matrix_hook),
    ("alexander", "elementary_ideal", "alexander.ideal_s", "alexander.ideal_calls", _ideal_hook),
    ("alexander", "twisted_h1_dim", "alexander.twisted_h1_s", "alexander.twisted_h1_calls", None),
    ("laurent", "gcd_all", "laurent.gcd_s", "laurent.gcd_calls", _gcd_hook),
    ("laurent", "evaluate", "laurent.evaluate_s", "laurent.evaluate_calls", None),
    ("_linalg", "rank", "linalg.rank_s", "linalg.rank_calls", _rank_hook),
    ("resonance", "classify_malcev", None, None, None),
    ("resonance", "r1_fullness", "resonance.r1_fullness_s", "resonance.r1_fullness_calls",
     _r1_hook),
    ("resonance", "ThreeForm.transform", "resonance.transform_s", "resonance.transform_calls",
     None),
    ("resonance", "isotropy_lower_bound", "resonance.isotropy_self_s", None, None),
    ("holonomy", "holonomy_from_threeform", None, None, None),
    ("holonomy", "lie_ranks", "holonomy.lie_ranks_s", None, _lie_hook),
    ("seifert", "brieskorn_seifert", "seifert.self_s", None, _row_hook),
    ("seifert", "torsion_data", "seifert.self_s", "seifert.torsion_calls", _torsion_hook),
    ("seifert", "v1_components", "seifert.self_s", None, None),
    ("seifert", "is_one_formal_link", "seifert.self_s", None, None),
    ("seifert", "tangent_cone_report", "seifert.self_s", None, None),
    ("seifert", "integer_obstruction", "seifert.self_s", None, None),
    ("seifert", "sweep", "seifert.self_s", None, None),
)

# useful-ratio metric -> (useful key family, calls metric)
RATIOS = {
    "alexander.ideal_useful_ratio": ("alexander.ideal", "alexander.ideal_calls"),
    "alexander.matrix_useful_ratio": ("alexander.matrix", "alexander.matrix_calls"),
    "resonance.r1_fullness_useful_ratio": ("resonance.r1_fullness",
                                           "resonance.r1_fullness_calls"),
    "seifert.torsion_useful_ratio": ("seifert.torsion", "seifert.torsion_calls"),
}

# functions whose first argument may be an iterator: the wrapper materializes it
_MATERIALIZE_FIRST = {"gcd_all", "rank"}


PACKAGE = "jumploci"


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = defaultdict(int)
        self.absent = []
        self._stack = []
        self._qid = None
        self._query_keys = defaultdict(set)
        self._query_refs = []
        self._useful = defaultdict(int)
        self._patched = []

    # -- counters ----------------------------------------------------------
    def add(self, metric, amount):
        self.totals[metric] += amount

    def useful(self, family, obj, *extra):
        self._query_refs.append(obj)
        self._query_keys[family].add((id(obj),) + extra)

    def begin_query(self, qid):
        self._flush_query()
        self._qid = qid

    def _flush_query(self):
        for family, keys in self._query_keys.items():
            self._useful[family] += len(keys)
        self._query_keys.clear()
        self._query_refs.clear()

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name, fn, self_metric, calls_metric, hook):
        tracer = self
        stack = self._stack
        spans = self.spans
        totals = self.totals
        clock = time.perf_counter
        materialize = fn.__name__ in _MATERIALIZE_FIRST

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize and args and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (name, start, end, parent, tracer._qid)
                if stack:
                    stack[-1][1] += dur
                if self_metric:
                    totals[self_metric] += dur - frame[1]
                if calls_metric:
                    totals[calls_metric] += 1
            if hook:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        self.absent = []
        for modname, path, self_metric, calls_metric, hook in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(f"{modname}.{path}", fn, self_metric, calls_metric, hook)
            holders = [owner] if cls_path else [
                m for m in modules if any(v is fn for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, fn))

    def uninstall(self):
        self._flush_query()
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def metrics(self):
        """Every per-layer metric by name; a layer never touched reads 0."""
        names = {m for t in TARGETS for m in t[2:4] if m}
        names |= {"alexander.minors_kept", "alexander.ideals_truncated", "laurent.gcd_inputs",
                  "linalg.rank_cells", "holonomy.ideal_dim", "seifert.rows"}
        out = {name: self.totals.get(name, 0) for name in sorted(names)}
        for ratio, (family, calls) in RATIOS.items():
            n = self.totals.get(calls, 0)
            out[ratio] = self._useful[family] / n if n else 0
        return out
