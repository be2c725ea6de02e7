"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  Prints
`READY` once set-up is done (interpreter start, `import wtc`, input
building), then runs whole rounds until their measured time reaches
`--seconds` (always at least one), checks every round's outputs, and prints
one line `RESULT <json>`.  The workload's reference work (`pace.py`)
is timed REF_SAMPLES times before the rounds and as many after them, and
during the untraced rounds, every second or between operations as the
workload asks; a round's time leaves those samples out.

With `--trace 1` it runs one untraced round and then one traced round, whose
per-layer totals are added to the result; the spans are written under
`--trace-dir`.  With `--setup-only` the worker exits after `READY`, which
run.py uses to sample set-up time.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

from pace import INTERVAL_S, Pace
from workloads import WORKLOADS

REF_SAMPLES = 3


def _merge(into: dict, summary: dict) -> None:
    for key in ("calls", "self_s", "counters"):
        for name, value in summary[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["spans"] += summary["spans"]


def _traced_round(workload, trace_dir):
    """One round with the tracer installed; returns (wall, ops, totals)."""
    import tracer

    os.makedirs(trace_dir, exist_ok=True)
    for old in glob.glob(os.path.join(trace_dir, "*")):
        os.remove(old)
    tr = tracer.Tracer()
    if workload.name == "cli-files":
        workload.traced_dir = trace_dir
    else:
        tracer.install(tr)
    spent, t0 = workload.pace.wall_spent, perf_counter()
    ops = workload.run_round()
    wall = perf_counter() - t0 - (workload.pace.wall_spent - spent)
    totals = {"calls": {}, "self_s": {}, "counters": {}, "spans": 0}
    import_s = []
    if workload.name == "cli-files":
        for path in sorted(glob.glob(os.path.join(trace_dir, "cmd-*.json"))):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            _merge(totals, doc)
            import_s.append(doc["import_s"])
    else:
        _merge(totals, tr.summary())
        tr.dump(os.path.join(trace_dir, "main"))
    totals["cli_import_s"] = statistics.median(import_s) if import_s else 0.0
    return wall, ops, totals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-dir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    workload.start()
    try:
        result = _measure(workload, args)
    finally:
        workload.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _measure(workload, args) -> dict:
    """Untraced rounds, then with --trace 1 the traced one; the result dict."""
    rounds, op_seconds, problems, failures = [], [], [], []
    attempted = failed = 0

    def account(ops):
        nonlocal attempted, failed
        attempted += len(ops)
        for op in ops:
            op_seconds.append(op.seconds)
            if op.failed:
                failed += 1
                failures.append(f"{op.name}: {op.detail}")
        problems.extend(workload.check(ops))

    # With --trace 1 one untraced round is enough: it is the reference for
    # the tracing overhead.  Checks are not measured, so they do not count
    # against --seconds.
    pace = workload.pace = Pace(workload.reference)
    for _ in range(REF_SAMPLES):
        pace()
    cpu = 0.0
    while not rounds or (not args.trace and sum(rounds) < args.seconds):
        spent, cpu0, t0 = pace.wall_spent, workload.cpu_seconds(), perf_counter()
        with pace.every(INTERVAL_S) if workload.pace_by_timer else nullcontext():
            ops = workload.run_round()
        rounds.append(perf_counter() - t0 - (pace.wall_spent - spent))
        cpu += workload.cpu_seconds() - cpu0
        account(ops)
    for _ in range(REF_SAMPLES):
        pace()

    ref_s = statistics.median(pace.samples)
    result = {"rounds": rounds, "op_seconds": list(op_seconds),
              "cpu_s": cpu / len(rounds), "ref_s": ref_s,
              "wall_ref": statistics.median(rounds) / ref_s}
    if args.trace:
        wall, ops, totals = _traced_round(workload, args.trace_dir)
        account(ops)
        result.update(traced_wall_s=wall, layers=totals)
    result.update(attempted=attempted, failed=failed,
                  failures=sorted(set(failures)), problems=problems,
                  peak_rss_mb=workload.peak_rss_mb())
    return result


if __name__ == "__main__":
    sys.exit(main())
