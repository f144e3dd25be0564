"""goodsgp benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; goodsgp is imported from its `src`
directory, so nothing needs installing.  One process, one client, no
threads: each workload is a closed loop over a fixed op list generated from
the seed (see workloads.py).  A CLI op calls `goodsgp.cli.run` in-process
with the document on stdin and stdout captured; an `ideals` op calls one
library function.  Whole passes over the op list run until the next one
would end after --seconds (at least one pass).

--trace 0 reports the end-to-end metrics:
  setup_s        median of 4 to 16 set-ups, half before and half after the
                 passes: import goodsgp, generate the documents (for the
                 ideal calls, build the semigroups) and run one op
  wall_s         median time of one pass (summed op times)
  cNN.ops_per_s  ops per second on the rung with conductor about NN
  peak_rss_mb    peak resident memory after the timed passes
  fail_ratio     printed only: (failed + known-defect ops) / attempted
--trace 1 runs one untraced pass set and one traced pass set, and reports
per-layer metrics per pass from spans recorded around the public functions
of each goodsgp module (spans.py), with trace.overhead = traced / untraced
wall_s - 1.  The invariants_ideals workload also prints the ROADMAP baseline
columns next to the values measured here.

Every op's output is checked after the timed passes (checks.py).  The last
stdout line is one JSON object: correct, attempted, failed and metrics.
`failed` counts unexpected failures; ops of the two known input-contract
defects (workloads.KNOWN_DEFECTS) that fail exactly as recorded are counted
apart, printed in fail_ratio.  Results and spans are also written to
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Set-up is sampled before and after the timed passes, so that its median
# spans the run rather than one moment of a machine whose speed drifts; each
# phase runs it at least 2 and up to 8 times, while the phase is under 1 s.
SETUP_REPS = (2, 8)
SETUP_BUDGET_S = 1.0
# ROADMAP baseline (one perf_counter run on CPython 3.11, 2 cores), seconds
ROADMAP_BASELINE = {
    "duplication31": {"build": 0.16, "validate": 0.15, "mingens": 0.35,
                      "canonical_ideal": 0.23, "is_arf": 0.13},
    "duplication55": {"build": 1.05, "validate": 1.01, "mingens": 2.7,
                      "canonical_ideal": 1.6, "is_arf": 0.80},
}

import workloads  # noqa: E402
from checks import Checker, is_known_defect, load_golden  # noqa: E402
from spans import Tracer, baseline_rows, layer_metrics  # noqa: E402


def import_goodsgp():
    """A fresh import of goodsgp from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "goodsgp" or n.startswith("goodsgp.")]:
        del sys.modules[name]
    goodsgp = importlib.import_module("goodsgp")
    if not os.path.abspath(goodsgp.__file__).startswith(SRC + os.sep):
        raise ImportError("goodsgp was not imported from %s" % (SRC,))
    importlib.import_module("goodsgp.cli")
    return goodsgp


def run_cli(cli, op):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(op.doc)
    rc = exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(op.argv))
    except SystemExit as stop:  # argparse rejects the arguments
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception as error:  # an escaped exception is an op failure
        exc = "%s: %s" % (type(error).__name__, error)
    finally:
        sys.stdin = stdin
    return rc, out.getvalue(), exc


def run_op(goodsgp, op, state):
    """Run one op; returns (seconds, outcome) with outcome (rc, output, exc)."""
    if op.call is None:
        t0 = perf_counter()
        outcome = run_cli(goodsgp.cli, op)
        return perf_counter() - t0, outcome
    t0 = perf_counter()
    try:
        result = op.call(state)
    except Exception as error:
        return perf_counter() - t0, (None, None, "%s: %s" % (type(error).__name__, error))
    dt = perf_counter() - t0
    if op.key:
        state[op.key] = result
    return dt, (None, result, None)


def measure(goodsgp, ops, seconds, tracer=None):
    """Whole passes until the next one would end after `seconds`."""
    passes = []
    start = perf_counter()
    while True:
        gc.collect()  # start every pass with the same collector state
        t0 = perf_counter()
        state, times, outcomes = {}, [], []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            dt, outcome = run_op(goodsgp, op, state)
            times.append(dt)
            outcomes.append(outcome)
        passes.append((times, outcomes))
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return passes


def normalize(result):
    """Library results as plain data: booleans, point lists, ideals."""
    if isinstance(result, bool) or result is None:
        return result
    if hasattr(result, "small"):
        return [tuple(p) for p in result.small.points], tuple(result.small.top)
    return [tuple(p) for p in result]


def judge(ops, passes, checker):
    """Check every outcome; returns attempted, failed, known-defect count and
    the distinct failure messages."""
    attempted = failed = known = 0
    cache, failures = {}, {}
    for _times, outcomes in passes:
        for i, (op, (rc, out, exc)) in enumerate(zip(ops, outcomes)):
            attempted += 1
            if op.call is not None:
                out = normalize(out)
            key = (i, rc, repr(out), exc)
            if key not in cache:
                try:
                    if exc is not None:
                        msg = "exception escaped: " + exc
                    elif op.call is None:
                        msg = checker.cli(op, (rc, out, exc))
                    else:
                        msg = checker.library(op, out)
                except Exception as error:  # malformed output, e.g. a missing key
                    msg = "output could not be checked: %s: %s" % (type(error).__name__, error)
                if msg is not None and is_known_defect(op, (rc, out, exc)):
                    msg = "known"
                cache[key] = msg
            msg = cache[key]
            if msg == "known":
                known += 1
            elif msg is not None:
                failed += 1
                where = "%s (C=%d): %s" % (op.name, op.rung, msg)
                failures[where] = failures.get(where, 0) + 1
    return attempted, failed, known, failures


def end_to_end(ops, passes, setup_s, peak_rss_mb):
    m = {"setup_s": (setup_s, "s"),
         "wall_s": (statistics.median(sum(times) for times, _ in passes), "s")}
    for rung in workloads.RUNGS:
        idx = [i for i, op in enumerate(ops) if op.rung == rung]
        busy = sum(times[i] for times, _ in passes for i in idx)
        m["c%d.ops_per_s" % (rung,)] = (len(idx) * len(passes) / busy, "1/s")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    return m


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "goodsgp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance():
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


def fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def print_baseline(tracer, ops):
    """The ROADMAP baseline columns beside this traced run's median spans."""
    rows = baseline_rows(tracer, {i: op.doc_id for i, op in enumerate(ops)})
    print("ROADMAP baseline vs traced median span (s):")
    for doc, ref in ROADMAP_BASELINE.items():
        got = rows.get(doc, {})
        print("  %s: %s" % (doc, ", ".join(
            "%s %.2f vs %.3f" % (col, want, got.get(col, float("nan")))
            for col, want in ref.items())))


def set_up(workload, seed, samples):
    """One set-up phase: import goodsgp afresh, generate the ops and run the
    warm-up op, repeated per SETUP_REPS; appends each time to samples."""
    phase = []
    while len(phase) < SETUP_REPS[0] or (
            len(phase) < SETUP_REPS[1] and sum(phase) < SETUP_BUDGET_S):
        t0 = perf_counter()
        goodsgp = import_goodsgp()
        ops = workloads.build_ops(workload, seed, goodsgp)
        run_op(goodsgp, workloads.warmup_op(), {})
        phase.append(perf_counter() - t0)
    samples.extend(phase)
    return goodsgp, ops


def main(argv=None):
    ap = argparse.ArgumentParser(description="goodsgp benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "goodsgp")):
        print("error: no goodsgp sources under %s" % (SRC,), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    prov = provenance()

    setups = []
    goodsgp, ops = set_up(args.workload, args.seed, setups)
    checker = Checker(goodsgp, load_golden())

    tracer = None
    if args.trace:
        plain = measure(goodsgp, ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            passes = measure(goodsgp, ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        checked = plain + passes
    else:
        passes = measure(goodsgp, ops, args.seconds)
        checked = passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, known, failures = judge(ops, checked, checker)
    set_up(args.workload, args.seed, setups)
    setup_s = statistics.median(setups)
    prov["loadavg_end"] = list(os.getloadavg())

    if args.trace:
        npass = len(passes)
        metrics = {}
        for name, (value, unit) in layer_metrics(tracer, {i: op.rung for i, op in enumerate(ops)}).items():
            metrics[name] = (value / npass if unit in ("s", "count") else value, unit)
        wall = statistics.median(sum(t) for t, _ in plain)
        traced = statistics.median(sum(t) for t, _ in passes)
        metrics["trace.overhead"] = (traced / wall - 1.0, "ratio")
    else:
        metrics = end_to_end(ops, passes, setup_s, peak_rss_mb)

    print("goodsgp bench: workload=%s seed=%d trace=%d passes=%d ops/pass=%d"
          % (args.workload, args.seed, args.trace, len(passes), len(ops)))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("pass_s: " + " ".join("%.4f" % sum(times) for times, _ in passes))
    for name, (value, unit) in metrics.items():
        print("%-46s %s %s" % (name, fmt(value), unit))
    print("%-46s %s ratio (%d failed + %d known-defect of %d attempted)"
          % ("fail_ratio", fmt((failed + known) / attempted), failed, known, attempted))
    for msg, count in sorted(failures.items()):
        print("FAILED x%d: %s" % (count, msg))
    if args.trace and args.workload == "invariants_ideals":
        print_baseline(tracer, ops)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "passes": len(passes), "attempted": attempted,
              "failed": failed, "known_defects": known, "failures": failures,
              "setup_runs_s": setups, "pass_s": [sum(times) for times, _ in passes],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "ops": [op.name for op in ops], "spans": tracer.spans}, fh)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
