"""One workload process: import jumploci, run queries in a closed loop, record them.

    python3 perfbench/worker.py --root DIR --workdir DIR --workload W --seed S
        --seconds T --trace 0|1 [--probe]

The process prints "ready" once `jumploci.cli` is imported and round 0's
query list is loaded; with --probe it then prints the reference-kernel time
of speed.py and exits (run.py times set-up with such probes).  Otherwise one client sends one query at a time, in process:
`jumploci.cli.main(argv)` with stdout and stderr captured, or
`jumploci.isotropy_lower_bound` on a loaded form.

--trace 0: whole rounds run until the timed loop has lasted --seconds and
holds at least MIN_QUERIES queries.  Round r >= 1 is generated between rounds,
outside the timed loop.

--trace 1: round 0 runs untraced and then traced, as pairs, until --seconds
have passed.  Layer metrics come from the traced passes (times: median over
passes; counters: first pass, which every later pass must repeat).

Each executed query is appended to WORKDIR/records.jsonl with its exit code,
wall time and the sha256 of its stdout; the stdout text itself is kept only
the first time a digest appears.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

from speed import SpeedLog

MIN_QUERIES = 100


def _load(root, workdir):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import jumploci.cli

    if Path(jumploci.cli.__file__).resolve().parent != src / "jumploci":
        raise SystemExit(f"imported jumploci from {jumploci.cli.__file__}, not from {src}")
    return json.loads((workdir / "round-0.json").read_text())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    first = _load(args.root, args.workdir)
    print("ready", flush=True)
    if args.probe:
        # reference-kernel time right after set-up, in the same process, to scale it
        print(json.dumps({"reference_s": SpeedLog.reference()}), flush=True)
        return 0
    runner = Runner(args.workdir)
    if args.trace:
        summary = runner.traced(first, args.seconds)
    else:
        summary = runner.timed(first, args.workload, args.seed, args.seconds)
    import resource

    summary["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runner.close()
    print(json.dumps(summary), flush=True)
    return 0


class Runner:
    def __init__(self, workdir):
        import hashlib  # after "ready": not part of the measured set-up

        import jumploci
        import jumploci.cli

        self._sha256 = hashlib.sha256
        self.pkg = jumploci
        self.cli = jumploci.cli
        self.workdir = workdir
        self.seen = set()
        self.records = open(workdir / "records.jsonl", "w")

    def close(self):
        self.records.close()

    def run(self, q):
        """Execute one query; returns (start, end, record without the timing)."""
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        clock = time.perf_counter
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if q["kind"] == "cli":
                    rc = self.cli.main(q["argv"])
                else:
                    w = self.pkg.isotropy_lower_bound(self.cli.load_threeform(q["file"]),
                                                      seed=q["seed"])
                    out.write(json.dumps({
                        "dimension": w.dimension, "method": w.method, "seed": w.seed,
                        "basis": [[str(x) for x in vec] for vec in w.witness.basis],
                    }, sort_keys=True) + "\n")
                    rc = 0
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is a failed query, never a stopped benchmark
            exc = f"{type(e).__name__}: {e}"
        end = clock()
        text = out.getvalue()
        return start, end, {"id": q["id"], "rc": rc, "exc": exc, "err": err.getvalue() or None,
                      "digest": self._sha256(text.encode()).hexdigest(), "text": text}

    def _pass(self, queries, label, tracer=None):
        """Run queries back to back; returns a list of (start, end, record)."""
        done = []
        for q in queries:
            if tracer:
                tracer.begin_query(q["id"])
            start, end, rec = self.run(q)
            text = rec.pop("text")
            if rec["digest"] not in self.seen:  # keep each distinct output once
                self.seen.add(rec["digest"])
                rec["out"] = text
            rec["pass_"] = label
            done.append((start, end, rec))
        return done

    def _write(self, done, speed):
        """Scale and append records; returns (scaled, raw) walls."""
        scaled, raw = [], []
        for start, end, rec in done:
            rec.update(wall=speed.net(start, end), scaled=speed.scaled(start, end))
            scaled.append(rec["scaled"])
            raw.append(rec["wall"])
            self.records.write(json.dumps(rec) + "\n")
        return scaled, raw

    def timed(self, first, workload, seed, seconds):
        from workloads import make_round

        done, raw_wall, rnd, queries = [], 0.0, 0, first
        with SpeedLog() as speed:
            while True:
                batch = self._pass(queries, f"r{rnd}")
                done += batch
                raw_wall += sum(end - start for start, end, _ in batch)
                if raw_wall >= seconds and len(done) >= MIN_QUERIES:
                    break
                rnd += 1
                queries = make_round(workload, seed, rnd, self.workdir)
                (self.workdir / f"round-{rnd}.json").write_text(json.dumps(queries))
        scaled, raw = self._write(done, speed)
        return {"rounds": rnd + 1, "loop_wall_s": sum(scaled), "loop_wall_raw_s": sum(raw),
                "mean_reference_s": speed.mean_ref()}

    def traced(self, queries, seconds):
        from statistics import median

        from tracer import Tracer

        start = time.perf_counter()
        runs = []  # (plain batch, traced batch, tracer)
        with SpeedLog() as speed:
            while not runs or time.perf_counter() - start < seconds:
                plain = self._pass(queries, f"u{len(runs)}")
                tr = Tracer()
                tr.install()
                try:
                    traced = self._pass(queries, f"t{len(runs)}", tr)
                finally:
                    tr.uninstall()
                runs.append((plain, traced, tr))
        digests = [rec["digest"] for _, _, rec in runs[0][0]]
        mismatches = sum(rec["digest"] != d for plain, traced, _ in runs
                         for batch in (plain, traced) for (_, _, rec), d in zip(batch, digests))
        passes = []
        for plain, traced, tr in runs:
            plain_scaled, _ = self._write(plain, speed)
            traced_scaled, traced_raw = self._write(traced, speed)
            factor = sum(traced_scaled) / sum(traced_raw)
            layer = {k: v * factor if k.endswith("_s") else v for k, v in tr.metrics().items()}
            passes.append((sum(plain_scaled), sum(traced_scaled), layer))
        first = runs[0][2]
        counters = {k: v for k, v in passes[0][2].items() if not k.endswith("_s")}
        layer = dict(counters)
        for name in passes[0][2]:
            if name.endswith("_s"):
                layer[name] = median(p[2][name] for p in passes)
        plain = median(p[0] for p in passes)
        traced = median(p[1] for p in passes)
        layer["trace.untraced_queries_per_s"] = len(queries) / plain
        layer["trace.traced_queries_per_s"] = len(queries) / traced
        layer["trace.overhead_ratio"] = traced / plain
        with open(self.workdir / "spans.jsonl", "w") as f:
            for span in first.spans:
                f.write(json.dumps(span) + "\n")
        return {
            "passes": len(passes),
            "layer": layer,
            "absent": first.absent,
            "counters_repeat": all(
                all(p[2][k] == v for k, v in counters.items()) for p in passes),
            "digest_mismatches": mismatches,
        }


if __name__ == "__main__":
    sys.exit(main())
