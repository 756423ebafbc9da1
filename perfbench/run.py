"""jumploci benchmark: closed-loop workloads with oracle-checked answers.

    python3 perfbench/run.py --workload groups|forms|links --seed N
                             --seconds T --trace 0|1
    python3 perfbench/run.py --workload defects --seed N --seconds T
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run from the root of a checkout; nothing needs to be installed.  The run
builds round 0 of the workload's inputs from --seed, times the set-up of
fresh interpreters (`--trace 0` only), runs one worker process
(perfbench/worker.py) as a single closed-loop client, and then checks every
answer against perfbench/oracles.py and, where `jsonschema` imports, against
the CLI's JSON schemas.  Checking happens after the worker has exited, so it
adds nothing to the timed loop or to the worker's memory.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The line before it is a JSON detail record.  A full record with
environment, failures and one sha256 per query's stdout is written to
.perfbench/results/<workload>-seed<N>-trace<0|1>.json; when a record for the
same workload, seed and trace setting is already there, differing digests
are reported.  --compare prints the queries whose digests differ between two
such records.  The `defects` workload (Z^5 and Z^6) is not one of the
benchmark's workloads: it shows answers that the program gets wrong and so
reports correct: false.  perfbench/README.md documents workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from speed import NOMINAL_S
from workloads import DEFECTS, FAMILIES, WORKLOADS, make_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
DEADLINE_S = 170.0
SCHEMA_DIR = ROOT / "src" / "jumploci" / "schemas"


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _worker_cmd(args, workdir, probe=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workdir",
           str(workdir), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--probe"] if probe else [])


def _start(cmd, deadline):
    """Start a worker and wait for its "ready" line; returns (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        end = time.perf_counter()
        if line.strip() != "ready":
            _stop(proc)
            raise BenchError(f"worker did not start: {proc.stderr.read().strip()[-2000:]}")
    except BaseException:
        _stop(proc)
        raise
    return proc, end - start


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc, deadline):
    """Wait for a worker; returns the JSON object on its last stdout line."""
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _probe_setup(args, workdir, deadline):
    """(scaled, raw) set-up seconds of SETUP_PROBES fresh interpreters.

    Each probe times the reference kernel right after its set-up; that time
    scales the probe's set-up like the query times (speed.py).
    """
    samples = []
    for _ in range(SETUP_PROBES):
        proc, setup = _start(_worker_cmd(args, workdir, probe=True), deadline)
        ref = _finish(proc, deadline)["reference_s"]
        samples.append((setup * NOMINAL_S / ref, setup))
    return samples


# ---------------------------------------------------------------------------
# answer checking
# ---------------------------------------------------------------------------

class Checker:
    """Oracle and schema verdicts, cached by (query spec, stdout digest)."""

    def __init__(self):
        self.deltas = {}
        self._verdicts = {}
        self._schema_ok = {}
        self.validators = self._make_validators()

    @staticmethod
    def _make_validators():
        try:
            from jsonschema import Draft202012Validator
            from referencing import Registry, Resource
        except ImportError:
            return None
        resources, schemas = [], {}
        for f in sorted(SCHEMA_DIR.glob("*.json")):
            obj = json.loads(f.read_text())
            resources.append((obj["$id"], Resource.from_contents(obj)))
            schemas[f.stem] = obj
        registry = Registry().with_resources(resources)
        return {name: Draft202012Validator(s, registry=registry) for name, s in schemas.items()}

    def _schema_problems(self, digest, parsed):
        if self.validators is None:
            return []
        if digest not in self._schema_ok:
            command = parsed.get("command")
            validator = self.validators.get(command)
            self._schema_ok[digest] = (
                [f"no schema for command {command!r}"] if validator is None
                else [f"schema: {e.message[:200]}" for e in validator.iter_errors(parsed)][:3])
        return self._schema_ok[digest]

    def check(self, query, rec, text):
        if rec["exc"]:
            return [f"exception: {rec['exc']}"]
        if rec["rc"] != 0:
            return [f"exit code {rec['rc']}: {(rec['err'] or '').strip()[:300]}"]
        spec = {k: v for k, v in query.items() if k not in ("id", "file", "argv")}
        if query["kind"] == "cli":
            spec["argv"] = [a for a in query["argv"] if not a.endswith((".grp", ".json"))]
        key = (json.dumps(spec, sort_keys=True), rec["digest"])
        if key not in self._verdicts:
            self._verdicts[key] = self._check(query, rec["digest"], text)
        return self._verdicts[key]

    def _check(self, query, digest, text):
        fam = query["family"]
        is_csv = fam == "sweep" and query["expect"]["format"] == "csv"
        try:
            parsed = None if is_csv else json.loads(text)
            problems = [] if is_csv or query["kind"] != "cli" else list(
                self._schema_problems(digest, parsed))
            if query["kind"] == "isotropy":
                problems += oracles.check_isotropy(query, parsed)
            elif "brieskorn" in query["argv"]:
                problems += oracles.check_brieskorn(query, text, parsed)
            elif "alex" in query["argv"]:
                problems += oracles.check_alex(query, parsed, self.deltas)
            elif "charvar" in query["argv"]:
                problems += oracles.check_charvar(query, parsed, self.deltas)
            elif "classify" in query["argv"]:
                problems += oracles.check_classify(query, parsed)
            else:
                problems += oracles.check_holonomy(query, parsed)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            problems = [f"unreadable output: {type(e).__name__}: {e}"]
        return problems


def _read_records(workdir):
    queries = {}
    for f in workdir.glob("round-*.json"):
        for q in json.loads(f.read_text()):
            queries[q["id"]] = q
    texts, records = {}, []
    with open(workdir / "records.jsonl") as f:
        for line in f:
            rec = json.loads(line)
            if "out" in rec:
                texts[rec["digest"]] = rec.pop("out")
            records.append(rec)
    return queries, records, texts


def _check_all(queries, records, texts):
    """Failures per record; alex answers are read before the charvar checks that use them."""
    checker = Checker()
    order = sorted(range(len(records)),
                   key=lambda i: "alex" not in queries[records[i]["id"]].get("argv", ()))
    failures = []
    for i in order:
        rec = records[i]
        q = queries[rec["id"]]
        problems = checker.check(q, rec, texts.get(rec["digest"], ""))
        if problems:
            failures.append({"id": rec["id"], "pass": rec["pass_"], "family": q["family"],
                             "query": q.get("argv") or ["isotropy", q["file"]],
                             "problems": problems})
    return failures, checker.validators is not None


# ---------------------------------------------------------------------------
# environment and records
# ---------------------------------------------------------------------------

def _environment():
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"commit": commit, "src_sha256": h.hexdigest(), "python": platform.python_version(),
            "nproc": nproc, "cpu_model": cpu, "platform": platform.platform()}


def _digest_map(records):
    return {f"{r['pass_']}:{r['id']}": r["digest"] for r in records}


def _compare(a, b):
    """Keys present in both digest maps whose digests differ."""
    return sorted(k for k in a.keys() & b.keys() if a[k] != b[k])


def _family_walls(queries, records):
    """Total and median query wall time per input family."""
    walls = {}
    for r in records:
        walls.setdefault(queries[r["id"]]["family"], []).append(r["scaled"])
    return {fam: {"total": sum(w), "median": statistics.median(w)} for fam, w in walls.items()}


def _unit(name):
    if name.endswith("queries_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(args):
    if not (ROOT / "src" / "jumploci" / "cli.py").is_file():
        raise BenchError(f"no jumploci sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        first = make_round(args.workload, args.seed, 0, workdir)
        (workdir / "round-0.json").write_text(json.dumps(first))
        setups = [] if args.trace else _probe_setup(args, workdir, deadline)
        proc, _ = _start(_worker_cmd(args, workdir), deadline)
        summary = _finish(proc, deadline)
        queries, records, texts = _read_records(workdir)
        failures, validated = _check_all(queries, records, texts)
        spans = workdir / "spans.jsonl"
        if spans.exists():
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            shutil.move(spans, OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_share": len(failures) / attempted,
        "schema_validation": validated,
        "families": {k: v[0] for k, v in FAMILIES[args.workload].items()},
    }
    if args.trace:
        layer = summary["layer"]
        metrics = {name: _metric(value, _unit(name)) for name, value in sorted(layer.items())}
        detail.update(passes=summary["passes"], absent=summary["absent"],
                      counters_repeat=summary["counters_repeat"],
                      digest_mismatches=summary["digest_mismatches"])
    else:
        scaled = [r["scaled"] for r in records]
        raw = [r["wall"] for r in records]
        metrics = {
            "queries_per_s": _metric(attempted / summary["loop_wall_s"], "1/s"),
            "latency_p50_s": _metric(statistics.median(scaled), "s"),
            "latency_p90_s": _metric(statistics.quantiles(scaled, n=10)[8], "s"),
            "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mib": _metric(summary["peak_rss_kib"] / 1024, "MiB"),
        }
        detail.update(
            rounds=summary["rounds"], latency_samples=len(scaled),
            mean_reference_s=summary["mean_reference_s"], reference_nominal_s=NOMINAL_S,
            raw={"queries_per_s": attempted / summary["loop_wall_raw_s"],
                 "latency_p50_s": statistics.median(raw),
                 "latency_p90_s": statistics.quantiles(raw, n=10)[8],
                 "setup_s": statistics.median(r for _, r in setups)},
            setup_samples=setups, family_wall_s=_family_walls(queries, records))

    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    digests = _digest_map(records)
    if result_path.exists():
        previous = json.loads(result_path.read_text()).get("digests", {})
        detail["digest_mismatches_vs_previous"] = len(_compare(previous, digests))
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "environment": _environment(), "detail": detail, "metrics": metrics,
        "failures": failures, "digests": digests}, indent=1, sort_keys=True))
    print(json.dumps(detail, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + (DEFECTS,))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT", type=Path)
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text())["digests"] for p in args.compare)
        diff = _compare(a, b)
        print(json.dumps({"common": len(a.keys() & b.keys()), "differing": diff}))
        return 1 if diff else 0
    if not args.workload:
        ap.error("--workload is required")
    try:
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
