#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed and report, for every
end-to-end metric, the spread between the first and third quartile of the
runs as a share of their median, next to the metric's bound.

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds 10]

Run from the root of a wtc checkout.  A metric is steady when its spread
stays below a third of its bound.  The share of failed operations must be
the same in every run.  Raw values go to .perfbench_run/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)

    steady = True
    os.makedirs(".perfbench_run", exist_ok=True)
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        with open(f".perfbench_run/steadiness-{workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok_shares = len(shares) == 1
        steady &= ok_shares and all(r["correct"] for r in runs)
        print(f"{workload}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs,"
              f" failed share {sorted(shares)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            verdict = "ok" if s < m["bound"] / 3 else "WIDE"
            steady &= verdict == "ok"
            print(f"  {m['name']:12s} median {statistics.median(values):10.4g} "
                  f"{m['unit']:3s} spread {s:6.3f}  bound {m['bound']:.2f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
