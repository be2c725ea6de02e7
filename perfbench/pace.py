"""Fixed reference work, timed between a workload's operations.

The machine the benchmark runs on is shared, and its speed drifts by 10 to
20% from one minute to the next.  A run's wall time follows that drift, so
ten runs of one commit spread about as wide as the bound a regression is
judged by.  The reference work is the same kind of work as the workload's
and uses nothing of wtc, so its time measures how fast the machine runs
during the run, whatever the commit.  A round's wall time divided by the
reference's median time in the same run is the round's time in reference
units: it keeps the work measured and drops most of the drift.

- `reference_loop`, for the workloads that run wtc in-process: exact
  rational arithmetic in pure Python, as in wtc's kernels.
- `reference_start`, for `cli-files`, a reference command: it starts an
  interpreter, imports numpy and runs `reference_loop` START_LOOPS times,
  about 0.35 s.  The benchmark's commands spend their time the same way:
  about 0.2 s each on start-up and imports, the rest on exact arithmetic.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction

REF_POINTS = 1000            # about 50 ms per sample on a 2.1 GHz core
INTERVAL_S = 1.0             # between timed samples: about 5% of a round
START_LOOPS = 3
HERE = os.path.dirname(os.path.abspath(__file__))


def reference_loop(n: int = REF_POINTS) -> Fraction:
    """Sort n fixed random fractions and sum (x[i+1] - x[i]) * x[i]."""
    rng = random.Random(0)
    xs = sorted(Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
                for _ in range(n))
    total = Fraction(0)
    for a, b in zip(xs, xs[1:]):
        total += (b - a) * a
    return total


def reference_start() -> None:
    """Run the reference command in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import numpy, pace\n"
            f"for _ in range({START_LOOPS}): pace.reference_loop()")
    subprocess.run([sys.executable, "-c", code], check=True)


class Pace:
    """Times the reference work on each call and keeps the samples, with
    the wall and CPU time spent on them, so that rounds can leave it out."""

    def __init__(self, work=reference_loop):
        self.work = work
        self.samples: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0

    def __call__(self) -> None:
        # the collector stays off, so that the loop's few allocations do
        # not set off a collection of the workload's own heap
        enabled = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        self.work()
        dt = time.perf_counter() - t0
        self.cpu_spent += time.process_time() - c0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.wall_spent += dt

    @contextlib.contextmanager
    def every(self, interval: float):
        """Takes a sample every `interval` seconds of wall time while the
        block runs, from a SIGALRM handler, which Python runs between two
        bytecodes of whatever the block is doing.  The timer is re-armed
        after each sample, so samples never overlap."""
        armed = True

        def on_alarm(signum, frame):
            if armed:
                self()
                signal.setitimer(signal.ITIMER_REAL, interval)

        # the handler stays installed afterwards: an alarm already delivered
        # when the timer is stopped finds it unarmed and does nothing
        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval)
        try:
            yield
        finally:
            armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
