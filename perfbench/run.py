#!/usr/bin/env python3
"""wtc benchmark: one command for every workload, end-to-end and per layer.

Run from the root of a wtc checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs claims-small, cascade-deep and cli-files in turn.
Each run starts the workload in a fresh interpreter (perfbench/worker.py),
so set-up time and peak memory belong to that workload alone, and samples
set-up time in 2 * SETUP_PROBES more fresh interpreters that stop after
set-up, half before the measured worker and half after it.

With --trace 0 the last line of output is one JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, from one traced round that follows the untraced ones.  The exit
code is 0 when the run completed, whatever the checks found (`correct`
reports them), and non-zero, with no result line, when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("claims-small", "cascade-deep", "cli-files")
# In one set of ten seeds on a shared 2-core machine, the measured worker's
# own set-up time (about 0.2 s) spread 0.17 and 0.33 of its median on two
# workloads, and the median of nine set-ups in the same runs 0.10 and 0.05.
SETUP_PROBES = 4
RUN_LIMIT_S = 170          # a worker still running after this is killed


class RunError(Exception):
    pass


def _spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _worker(root, workload, seed, seconds, trace, setup_only=False):
    """Start a worker; returns (setup seconds, result dict or None)."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # cache bytecode as an installed package would, so that set-up and every
    # CLI command import wtc rather than compile it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    run_dir = os.path.join(root, ".perfbench_run")
    workdir = os.path.join(run_dir, f"{workload}-{os.getpid()}")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", workdir,
            "--trace-dir", os.path.join(run_dir, "trace", workload)]
    if setup_only:
        argv.append("--setup-only")
    t0 = perf_counter()
    # its own session, so that a stuck run is stopped with all its children
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    killer = threading.Timer(RUN_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if rc != 0 or setup_s is None or (result is None and not setup_only):
        raise RunError(f"{workload} worker exited with {rc}")
    return setup_s, result


def _layer_value(name, res):
    layers = res["layers"]
    calls, self_s, counters = layers["calls"], layers["self_s"], layers["counters"]
    if name == "grid.doubling_useful_ratio":
        enumerated = counters.get("grid.doubling.enumerated", 0)
        return counters.get("grid.doubling.useful", 0) / enumerated if enumerated else 0.0
    if name == "cli.import_s":
        return layers["cli_import_s"]
    if name == "process.cpu_s":
        return res["cpu_s"]
    if name == "process.wall_s":
        return statistics.median(res["rounds"])
    if name == "process.ref_s":
        return res["ref_s"]
    if name == "trace.overhead_s":
        return res["traced_wall_s"] - statistics.median(res["rounds"])
    if name == "claims.verdict_s":
        return self_s.get("claims.verdict", 0.0)
    if name.endswith(".calls"):
        return calls.get(name[:-len(".calls")], 0)
    if name.endswith(".self_s"):
        return self_s.get(name[:-len(".self_s")], 0.0)
    return counters.get(name, 0)


def run_workload(root, spec, workload, seed, seconds, trace, log):
    def probe():
        return _worker(root, workload, seed, seconds, 0, setup_only=True)[0]

    if trace:
        _, res = _worker(root, workload, seed, seconds, trace)
        metrics = {m["name"]: {"value": _layer_value(m["name"], res), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        setup = [probe() for _ in range(SETUP_PROBES)]
        setup_s, res = _worker(root, workload, seed, seconds, trace)
        setup += [setup_s] + [probe() for _ in range(SETUP_PROBES)]
        values = {"setup_s": statistics.median(setup),
                  "wall_ref": res["wall_ref"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    log(f"{workload}: {len(res['rounds'])} round(s), "
        f"{res['attempted']} operations attempted, {res['failed']} failed")
    for name, m in metrics.items():
        log(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if not trace:
        # wall_ref is made of these two
        log(f"  {'wall_s':34s} {statistics.median(res['rounds']):.6g} s")
        log(f"  {'ref_s':34s} {res['ref_s']:.6g} s")
        # printed but not in the result: on claims-small the median claim
        # is a half-second one, and its run-to-run spread on a shared
        # 2-core machine (0.23 to 0.32 of the median) is as wide as the
        # largest bound BENCHMARK.json may set
        log(f"  {'op_s_median':34s} {statistics.median(res['op_seconds']):.6g} s")
    for line in res["failures"]:
        log(f"  failed: {line}")
    for line in res["problems"]:
        log(f"  CHECK FAILED: {line}")
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wtc", "__init__.py")):
        print("perfbench: no src/wtc here; run from the root of a wtc checkout",
              file=sys.stderr)
        return 2
    spec = _spec(root)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    log = lambda msg: print(msg, flush=True)  # noqa: E731
    results = {}
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            results[workload] = run_workload(root, spec, workload, args.seed,
                                             seconds, args.trace, log)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
