"""The three benchmark workloads.

Each workload builds its inputs in `setup`, runs one round of operations in
`run_round` (every round is the same fixed sequence, so a run attempts
whole rounds), and checks a round's outputs in `check`.  Checks compare
against `refs` (computations made apart from `wtc`) or against properties
the method must have; none compares against stored output.
"""

from __future__ import annotations

import csv
import functools
import gc
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import traceback
import types
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import refs
from pace import reference_loop, reference_start

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    name: str
    seconds: float
    failed: bool
    detail: str = ""
    output: object = None


class InProcess:
    """A workload that runs wtc inside the worker: CPU and peak memory are
    the worker's and its children's."""

    pace = None                      # set by the worker: a pace.Pace
    reference = staticmethod(reference_loop)
    # the worker samples the reference from a timer signal during the
    # rounds, inside the operations too: cascade-deep is one 38 s operation
    pace_by_timer = True

    def start(self):
        pass

    def close(self):
        pass

    def cpu_seconds(self) -> float:
        # less the reference loop, which runs in this process too
        return sum(ru.ru_utime + ru.ru_stime for ru in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))) - self.pace.cpu_spent

    def peak_rss_mb(self) -> float:
        # ru_maxrss is in KiB on Linux
        return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _close(a, b, rel=1e-12) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=rel)


# ---------------------------------------------------------------------------
# claims-small

# The verdict each statistic must get at both sizes, from the paper's
# statement of each claim: BOUNDED / DIVERGENT trends, PASS for caps and
# floors, FINITE, INCONCLUSIVE for the probe.
CLAIM_VERDICTS = {
    "ap-not-t1": {"classical_sq_sup": "BOUNDED", "t1_sq_increment_min": "PASS",
                  "t1_dual_sq_increment_min": "PASS"},
    "t1-not-t2": {"t1_sq_sup": "BOUNDED", "t2_sq_at_unit": "DIVERGENT"},
    "t2-equiv-t1": {"min_witness_ratio": "PASS"},
    "doubling-ap-equiv": {"classical_sup": "BOUNDED", "two_tailed_sup": "BOUNDED",
                          "t2_to_classical": "PASS"},
    "cp-not-ainfty": {"doubling3_sup": "PASS", "ainfty_witness_ratio_min": "PASS",
                      "cp_ratio_sup": "BOUNDED"},
    "cp-smalldoubling-ainfty": {"normalized_mii_sup": "BOUNDED"},
    "sawyer-ainfty": {"sawyer_sup_lebesgue": "BOUNDED",
                      "sawyer_sup_powerweight": "BOUNDED",
                      "sawyer_atom": "DIVERGENT"},
    "ainfty-pivotal": {"stopping_mass_ratio": "PASS",
                       "pivotal_to_maximal_max": "PASS",
                       "stopping_atom_total": "DIVERGENT"},
    "pivotal-not-t1": {"pivotal_sup": "BOUNDED", "t1_sq_at_unit": "DIVERGENT",
                       "energy_pivotal_ratio_max": "PASS"},
    "energy-le-pivotal": {"energy_pivotal_ratio_max": "PASS"},
    "smalldoubling-pivotal": {"hypothesis_margin": "PASS",
                              "pivotal_to_ap_max": "PASS"},
    "gks-afrac-doubling": {"riesz_normalized": "BOUNDED", "doubling2": "BOUNDED",
                           "reverse_doubling2": "BOUNDED"},
    "doubling-energy-floor": {"energy_min": "PASS"},
    "powerweight-ap": {"analytic_bound": "FINITE", "sup_to_bound": "PASS",
                       "bound_to_sup": "PASS"},
    "dual-pivotal-probe": {"pivotal_forward": "INCONCLUSIVE",
                           "pivotal_dual": "INCONCLUSIVE",
                           "t1_sq_at_unit": "INCONCLUSIVE"},
}


def _row_value_checks(claim, stat, param, value, rel=1e-12):
    """Closed forms and ranges a statistic must satisfy; yields messages.
    `rel` is the relative tolerance, 1e-12 for in-memory values and wider
    for values printed to 12 significant digits."""
    if stat == "t2_sq_at_unit":
        # each dyadic block of omega adds exactly 1/2 to P([0,1], omega)
        if not _close(value, Fraction(param, 2), rel):
            yield f"t2_sq_at_unit at N={param} is {value}, expected N/2"
    elif stat == "t1_sq_at_unit" and claim in ("pivotal-not-t1", "dual-pivotal-probe"):
        # the atom n*delta_n sits at distance n-1 from [0,1]: adds 1/n
        want = refs.harmonic_minus_one(int(param))
        if not _close(value, want, rel):
            yield f"t1_sq_at_unit at N={param} is {value}, expected H_N - 1 = {float(want)}"
    elif stat == "sawyer_sup_lebesgue":
        if not _close(value, 1, rel):
            yield f"sawyer_sup_lebesgue at depth {param} is {value}, expected 1"
    elif stat == "analytic_bound":
        want = refs.power_weight_a2_bound(param)
        if not _close(value, want, rel):
            yield f"analytic_bound at a={param} is {value}, expected {want}"
    elif stat in ("energy_min", "energy_pivotal_ratio_max"):
        # normalized energy lies in [0, 1/4], so energy-weighted sums are at
        # most a quarter of the plain ones
        if not 0 <= value <= 0.25:
            yield f"{stat} at {param} is {value}, outside [0, 1/4]"


# Statistics whose verdict is wrong because of a known fault in wtc, so the
# claim fails in every round: their verdicts are not checked, their values
# and every other statistic of the claim are.  The registry floors both
# increments of ap-not-t1 at 0.8, but each stage adds about 1/2.
KNOWN_FAULTS = {"ap-not-t1": ("t1_sq_increment_min", "t1_dual_sq_increment_min")}


def check_claim_report(claim, report):
    problems = []
    want = CLAIM_VERDICTS[claim]
    faulty = KNOWN_FAULTS.get(claim, ())
    seen = {}
    for row in report.rows:
        seen.setdefault(row.statistic, []).append(row)
    if set(seen) != set(want):
        problems.append(f"{claim}: statistics {sorted(seen)}, expected {sorted(want)}")
    for stat, rows in seen.items():
        if len(rows) != 2:
            problems.append(f"{claim}: {stat} reported at {len(rows)} sizes, expected 2")
        for row in rows:
            if stat in want and stat not in faulty and row.verdict != want[stat]:
                problems.append(f"{claim}: {stat} at {row.param} judged "
                                f"{row.verdict}, expected {want[stat]}")
            problems += [f"{claim}: {m}" for m in
                         _row_value_checks(claim, stat, row.param, row.value)]
    return problems


def _claim_fault(report) -> str:
    bad = [f"{r.statistic}={r.value:.6g} at {r.param} against bound {r.bound}"
           for r in report.rows if r.verdict == "FAIL"]
    return "verdict FAIL: " + "; ".join(bad)


class ClaimsSmall(InProcess):
    """run_claim at default scale on every registered claim but the deep
    cascade, in registry order."""

    name = "claims-small"
    skip = ("gks-afrac-doubling",)

    def __init__(self, seed, workdir):
        pass                         # no seeded inputs

    def setup(self):
        import wtc.claims
        self.claims = wtc.claims
        self.ids = [c for c in wtc.claims.REGISTRY if c not in self.skip]

    def run_round(self):
        return [_run_claim_op(self.claims, cid, self.pace) for cid in self.ids]

    def check(self, ops):
        # failed claims too: a FAIL verdict still leaves a report to check
        problems = []
        for op in ops:
            if op.output is not None:
                problems += check_claim_report(op.name, op.output)
        return problems


def _run_claim_op(claims, cid, pace) -> Op:
    # start every claim from a collected heap, as a fresh `wtc verify`
    # process would, so that its time does not include garbage left by the
    # claim before it
    gc.collect()
    spent, t0 = pace.wall_spent, perf_counter()
    try:
        # looked up on the module at call time, so the tracer's wrapper runs
        report = claims.run_claim(cid)
    except Exception:
        return Op(cid, perf_counter() - t0 - (pace.wall_spent - spent), True,
                  traceback.format_exc(limit=3))
    dt = perf_counter() - t0 - (pace.wall_spent - spent)
    if not report.passed:
        return Op(cid, dt, True, _claim_fault(report), report)
    return Op(cid, dt, False, "", report)


# ---------------------------------------------------------------------------
# cascade-deep

class CascadeDeep(InProcess):
    """run_claim("gks-afrac-doubling") at default scale: the cascade at
    depths 8 and 12 (531,441 pieces), its Riesz potential and its doubling
    scans."""

    name = "cascade-deep"
    claim = "gks-afrac-doubling"
    samples = 64

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.built = []

    def setup(self):
        import wtc.claims
        import wtc.constructions
        self.claims = wtc.claims
        constructions = wtc.constructions

        def keep_cascade(delta, depth):
            # constructions.gks_cascade is looked up per call so that the
            # tracer's wrapper, when installed, still sees the call
            mu = constructions.gks_cascade(delta, depth)
            self.built.append((Fraction(delta), depth, mu))
            return mu
        wtc.claims.gks_cascade = keep_cascade

    def run_round(self):
        self.built.clear()
        return [_run_claim_op(self.claims, self.claim, self.pace)]

    def check(self, ops):
        from wtc.measure import Interval

        (op,) = ops
        built, self.built = self.built, []
        if op.output is None:
            return []
        problems = check_claim_report(self.claim, op.output)
        report = op.output
        values = {(r.param, r.statistic): r.value for r in report.rows}
        if sorted(d for _, d, _ in built) != sorted({r.param for r in report.rows}):
            problems.append(f"cascades built at {[d for _, d, _ in built]}")
        for delta, depth, mu in built:
            n = 3 ** depth
            if mu.atoms or len(mu.pieces) != n:
                problems.append(f"depth {depth}: {len(mu.atoms)} atoms and "
                                f"{len(mu.pieces)} pieces, expected 0 and {n}")
                continue
            if mu.total_mass() != 1:
                problems.append(f"depth {depth}: total mass {mu.total_mass()}, expected 1")
            for j in self.rng.sample(range(n), self.samples):
                p = mu.pieces[j]
                want = refs.cascade_cell_mass(delta, depth, j) * n
                if (p.support.lo, p.support.hi, p.density) != (Fraction(j, n),
                                                               Fraction(j + 1, n), want):
                    problems.append(f"depth {depth}: piece {j} is {p}, expected "
                                    f"density {want} on [{j}/{n}, {j + 1}/{n}]")
            for _ in range(8):
                x = Fraction(self.rng.randrange(1, 10 ** 6), 10 ** 6)
                if mu.mass(Interval(0, x)) != refs.cascade_cdf(delta, depth, x):
                    problems.append(f"depth {depth}: mu([0,{x}]) differs from the CDF")
            for stat in ("doubling2", "reverse_doubling2"):
                lo_hi = report.witnesses.get((depth, stat))
                if lo_hi is None:
                    problems.append(f"depth {depth}: no witness for {stat}")
                    continue
                a, b = lo_hi.lo, lo_hi.hi
                ratio = (refs.cascade_mass(delta, depth, *refs.dilate(a, b, 2))
                         / refs.cascade_mass(delta, depth, a, b))
                if not _close(values[(depth, stat)], ratio):
                    problems.append(f"depth {depth}: {stat}={values[(depth, stat)]} "
                                    f"but mu(2I)/mu(I) at [{a},{b}] is {float(ratio)}")
            dbl = values[(depth, "doubling2")]
            rev = values[(depth, "reverse_doubling2")]
            if not dbl >= rev >= 1:
                problems.append(f"depth {depth}: doubling {dbl}, reverse {rev}; "
                                "need doubling >= reverse >= 1")
            riesz = values[(depth, "riesz_normalized")]
            if not (math.isfinite(riesz) and riesz > 0):
                problems.append(f"depth {depth}: riesz_normalized {riesz}")
        return problems


# ---------------------------------------------------------------------------
# cli-files

CASCADE = (Fraction(1, 4), 9)          # delta, depth: 19,683 records
POWER = (Fraction(1, 2), 10, -2, 2)    # exponent, resolution, window
CP_DELTA1 = Fraction(2, 9)             # the CLI's cp-weight default at p=2
SCAN_SHIFTS = 3
CASC_SCAN = (0, 1, -4, -1, 3)          # window lo, hi, levels, base
CP_SCAN = (-2, 2, -3, 1, 3)
SWEEP_K = (1, 2, 3)

_SUP_LINE = re.compile(r"^(\S+) at \[(\S+),(\S+)\]$")


@dataclass
class Command:
    name: str
    args: list
    expect_rc: int = 0
    check: object = None            # callable(op) -> list of problems


class CliFiles:
    """A fixed sequence of `python -m wtc.cli` commands, run one at a time,
    on files in a scratch directory inside the checkout.  The commands are
    started by `launcher.py`, whose CPU and peak-memory figures for them
    are this workload's."""

    name = "cli-files"
    pace = None                      # set by the worker: a pace.Pace
    # started from the worker, not the launcher, so that its memory and CPU
    # do not count as the commands'
    reference = staticmethod(reference_start)
    # sampled before every PACE_EVERY-th command instead: a sample taken
    # while a command runs would share the machine with it
    pace_by_timer = False
    PACE_EVERY = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.traced_dir = None       # set to trace each command
        self._expected_casc = None
        self.launcher = None
        self.usage = {"children_cpu_s": 0.0, "children_maxrss_kb": 0}

    def setup(self):
        # set-up means the same on every workload: interpreter start,
        # `import wtc` and input building
        import wtc  # noqa: F401
        os.makedirs(self.workdir, exist_ok=True)
        rng = random.Random(self.seed)
        self.steps = {}
        for tag in ("a", "b"):
            atoms, steps = refs.seeded_steps(rng)
            path = f"steps-{tag}.txt"
            refs.write_measure_file(os.path.join(self.workdir, path), atoms, steps)
            self.steps[path] = (atoms, steps, refs.seeded_interval(rng, -3, 3))
        self.casc_interval = refs.seeded_interval(rng, 0, 1, q=81)
        self.pw_interval = refs.seeded_interval(rng, -2, 2, q=16)
        self.casc_family = refs.scan_family(*CASC_SCAN, SCAN_SHIFTS)
        self.cp_family = refs.scan_family(*CP_SCAN, SCAN_SHIFTS)
        self.casc_member = rng.choice(self.casc_family)
        self.cp_member = rng.choice(self.cp_family)
        self.commands = self._commands()

    def _commands(self):
        d, depth = CASCADE
        a_exp, res, plo, phi = POWER
        iv = lambda lo_hi: f"--interval={lo_hi[0]},{lo_hi[1]}"
        scan = lambda spec: [f"--window={spec[0]},{spec[1]}",
                             f"--levels={spec[2]}..{spec[3]}", "--base", str(spec[4])]
        cmds = [
            Command("construct-cascade", ["construct", "gks-cascade", "--param",
                    f"delta={d}", "--param", f"depth={depth}", "--out", "casc.txt"],
                    check=self._check_casc_file),
            Command("construct-power", ["construct", "power-weight", "--param",
                    f"alphaExp={a_exp}", "--param", f"resolution={res}", "--param",
                    f"lo={plo}", "--param", f"hi={phi}", "--out", "pw.txt"],
                    check=self._check_pw_file),
            Command("construct-cp", ["construct", "cp-weight", "--param", "K=1",
                    "--out", "cp.txt"], check=self._check_cp_file),
            Command("eval-poisson-cascade", ["eval", "poisson", "--omega", "casc.txt",
                    iv(self.casc_interval)], check=self._check_poisson_cascade),
        ]
        for path, (_, _, interval) in self.steps.items():
            cmds.append(Command(f"eval-poisson-{path[:-4]}", ["eval", "poisson",
                                "--omega", path, iv(interval)],
                                check=functools.partial(self._check_poisson_steps,
                                                        path=path)))
        cmds += [
            Command("eval-energy-power", ["eval", "energy", "--omega", "pw.txt",
                    iv(self.pw_interval)], check=self._check_energy),
            Command("sup-avg-cascade", ["--shifts", str(SCAN_SHIFTS), "sup",
                    "avg-density", "--omega", "casc.txt", *scan(CASC_SCAN)],
                    check=self._check_sup_cascade),
            Command("eval-avg-cascade", ["eval", "avg-density", "--omega", "casc.txt",
                    iv(self.casc_member)], check=self._check_member_cascade),
            Command("sup-maximal-cp", ["--shifts", str(SCAN_SHIFTS), "sup",
                    "maximal-integral", "--omega", "cp.txt", *scan(CP_SCAN)],
                    check=self._check_sup_cp),
            Command("eval-maximal-cp", ["eval", "maximal-integral", "--omega", "cp.txt",
                    iv(self.cp_member)], check=self._check_member_cp),
            Command("verify", ["verify", "powerweight-ap", "--out", "report.csv"],
                    check=self._check_verify),
            Command("sweep", ["sweep", "cp-not-ainfty", "--param",
                    f"K={SWEEP_K[0]}..{SWEEP_K[-1]}", "--out", "sweep.csv"],
                    check=self._check_sweep),
            Command("plot-a", ["plot", "sweep.csv", "--out", "a.svg"]),
            Command("plot-b", ["plot", "sweep.csv", "--out", "b.svg"],
                    check=self._check_plots),
            Command("eval-missing-file", ["eval", "poisson", "--omega", "missing.txt",
                    "--interval", "0,1"], expect_rc=2, check=self._check_usage_error),
        ]
        return cmds

    # -- running --------------------------------------------------------------

    def _argv(self, index, cmd):
        if self.traced_dir is None:
            return [sys.executable, "-m", "wtc.cli", *cmd.args]
        prefix = os.path.join(self.traced_dir, f"cmd-{index:02d}-{cmd.name}")
        return [sys.executable, os.path.join(HERE, "cli_shim.py"), prefix, "--",
                *cmd.args]

    def start(self):
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=60)

    def cpu_seconds(self) -> float:
        return self.usage["children_cpu_s"]

    def peak_rss_mb(self) -> float:
        return self.usage["children_maxrss_kb"] / 1024

    def _launch(self, argv):
        request = {"argv": argv, "cwd": self.workdir, "timeout": 150}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the command launcher exited")
        reply = json.loads(line)
        self.usage = {k: reply[k] for k in self.usage}
        return types.SimpleNamespace(**reply)

    def run_round(self):
        ops = []
        for index, cmd in enumerate(self.commands):
            if index % self.PACE_EVERY == 0:
                self.pace()
            proc = self._launch(self._argv(index, cmd))
            failed = proc.returncode != cmd.expect_rc
            detail = (f"exit {proc.returncode}, expected {cmd.expect_rc}: "
                      f"{proc.stderr.strip()[-300:]}") if failed else ""
            ops.append(Op(cmd.name, proc.seconds, failed, detail, proc))
        return ops

    def check(self, ops):
        problems = []
        for cmd, op in zip(self.commands, ops):
            if op.failed or cmd.check is None:
                continue
            try:
                problems += [f"{cmd.name}: {m}" for m in cmd.check(op)]
            except (OSError, ValueError, KeyError, IndexError, AttributeError) as e:
                problems.append(f"{cmd.name}: check could not read the output: {e!r}")
        return problems

    # -- checks ------------------------------------------------------------------

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _stdout_value(self, op):
        return op.output.stdout.strip().splitlines()[-1]

    def _check_casc_file(self, op):
        delta, depth = CASCADE
        atoms, steps = refs.read_measure_file(self._path("casc.txt"))
        n = 3 ** depth
        if atoms or len(steps) != n:
            return [f"{len(atoms)} atoms, {len(steps)} steps; expected 0 and {n}"]
        if self._expected_casc is None:
            self._expected_casc = [
                (Fraction(j, n), Fraction(j + 1, n),
                 refs.cascade_cell_mass(delta, depth, j) * n) for j in range(n)]
        bad = [j for j, (s, e) in enumerate(zip(steps, self._expected_casc)) if s != e]
        problems = [f"{len(bad)} cells differ from the ternary-digit masses, "
                    f"first at {bad[0]}"] if bad else []
        total = sum((d * (hi - lo) for lo, hi, d in steps), Fraction(0))
        if total != 1:
            problems.append(f"total mass {total}, expected 1")
        self.casc_steps = steps
        return problems

    def _check_pw_file(self, op):
        a_exp, res, lo, hi = POWER
        atoms, steps = refs.read_measure_file(self._path("pw.txt"))
        problems = []
        # the two cells beside 0 have equal averages by symmetry, so the
        # canonical measure merges them into one record
        if atoms or len(steps) != 2 ** res - 1:
            problems.append(f"{len(atoms)} atoms, {len(steps)} steps; "
                            f"expected 0 and {2 ** res - 1}")
        if steps and (steps[0][0] != lo or steps[-1][1] != hi or any(
                s[1] != t[0] for s, t in zip(steps, steps[1:]))):
            problems.append(f"steps do not tile [{lo},{hi}]")
        total = sum((d * (b - a) for a, b, d in steps), Fraction(0))
        want = refs.abs_power_mass(float(a_exp), lo, hi)
        if not _close(total, want):
            problems.append(f"mass {float(total)}, expected {want}")
        self.pw_steps = steps
        return problems

    def _check_cp_file(self, op):
        atoms, steps = refs.read_measure_file(self._path("cp.txt"))
        if atoms or not steps:
            return [f"{len(atoms)} atoms and {len(steps)} steps"]
        problems = []
        half = steps[-1][1]
        if steps[0][0] != -half:
            problems.append(f"support [{steps[0][0]},{half}] is not symmetric")
        n_total = round(math.log(2 * half, 3))
        if 2 * half != 3 ** n_total:
            problems.append(f"support half-width {half} is not 3^n/2")
        # unit cell plus rings n = 1..n_total, each carrying (1-d1)/d1^n
        want = 1 + (1 - CP_DELTA1) * sum(CP_DELTA1 ** -k for k in range(1, n_total + 1))
        total = sum((d * (b - a) for a, b, d in steps), Fraction(0))
        if total != want:
            problems.append(f"mass {total}, expected {want} for {n_total} rings")
        self.cp_steps = steps
        return problems

    def _check_poisson_cascade(self, op):
        a, b = self.casc_interval
        want = refs.poisson_exact([], self.casc_steps, a, b)
        got = self._stdout_value(op)
        return [] if got == refs.fmt(want) else [f"printed {got}, closed form {refs.fmt(want)}"]

    def _check_poisson_steps(self, op, path):
        atoms, steps, (a, b) = self.steps[path]
        want = refs.poisson_exact(atoms, steps, a, b)
        got = self._stdout_value(op)
        return [] if got == refs.fmt(want) else [f"printed {got}, closed form {refs.fmt(want)}"]

    def _check_energy(self, op):
        a, b = self.pw_interval
        want = refs.energy_exact(self.pw_steps, a, b)
        got = self._stdout_value(op)
        problems = [] if got == refs.fmt(want) else [f"printed {got}, closed form {refs.fmt(want)}"]
        if not 0 <= float(got) <= 0.25:
            problems.append(f"energy {got} outside [0, 1/4]")
        return problems

    def _check_sup(self, op, family, value_of):
        m = _SUP_LINE.match(self._stdout_value(op))
        if not m:
            return [f"unreadable output {self._stdout_value(op)!r}"], None
        value, wlo, whi = m.group(1), Fraction(m.group(2)), Fraction(m.group(3))
        best = max(value_of(lo, hi) for lo, hi in family)
        problems = []
        if value != refs.fmt(best):
            problems.append(f"sup {value}, but the family maximum is {refs.fmt(best)}")
        if (wlo, whi) not in family:
            problems.append(f"witness [{wlo},{whi}] is not a family member")
        elif refs.fmt(value_of(wlo, whi)) != value:
            problems.append(f"witness [{wlo},{whi}] has value "
                            f"{refs.fmt(value_of(wlo, whi))}, not {value}")
        return problems, float(value)

    def _casc_avg(self, lo, hi):
        return refs.cascade_mass(*CASCADE, lo, hi) / (hi - lo)

    def _cp_maximal(self, lo, hi):
        return refs.maximal_integral_exact(self.cp_steps, lo, hi)

    def _check_sup_cascade(self, op):
        problems, self.casc_sup = self._check_sup(op, self.casc_family, self._casc_avg)
        return problems

    def _check_sup_cp(self, op):
        problems, self.cp_sup = self._check_sup(op, self.cp_family, self._cp_maximal)
        return problems

    def _check_member(self, op, member, value_of, sup):
        got = self._stdout_value(op)
        want = refs.fmt(value_of(*member))
        problems = [] if got == want else [f"printed {got}, closed form {want}"]
        if sup is not None and not float(got) <= sup:
            problems.append(f"family member [{member[0]},{member[1]}] has value "
                            f"{got} above the sup {sup}")
        return problems

    def _check_member_cascade(self, op):
        return self._check_member(op, self.casc_member, self._casc_avg,
                                  getattr(self, "casc_sup", None))

    def _check_member_cp(self, op):
        return self._check_member(op, self.cp_member, self._cp_maximal,
                                  getattr(self, "cp_sup", None))

    def _read_csv(self, name):
        with open(self._path(name), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["claim", "param", "statistic", "value", "bound",
                                   "verdict"]:
            raise ValueError(f"{name}: bad header {rows[:1]}")
        return rows[1:]

    def _check_verify(self, op):
        problems = []
        if self._stdout_value(op) != "powerweight-ap: PASS":
            problems.append(f"last line {self._stdout_value(op)!r}")
        rows = self._read_csv("report.csv")
        want = CLAIM_VERDICTS["powerweight-ap"]
        if len(rows) != 2 * len(want):
            problems.append(f"{len(rows)} rows, expected {2 * len(want)}")
        for claim, param, stat, value, _, verdict in rows:
            if verdict != want.get(stat):
                problems.append(f"{stat} at {param} judged {verdict}")
            problems += _row_value_checks(claim, stat, Fraction(param), float(value),
                                          rel=1e-11)
        return problems

    def _check_sweep(self, op):
        want = {"doubling3_sup": "PASS", "ainfty_witness_ratio_min": "PASS",
                "cp_ratio_sup": "NA"}
        rows = self._read_csv("sweep.csv")
        got = sorted((int(r[1]), r[2]) for r in rows)
        problems = []
        if got != sorted((k, s) for k in SWEEP_K for s in want):
            problems.append(f"rows {got}")
        for _, param, stat, value, _, verdict in rows:
            if verdict != want.get(stat):
                problems.append(f"{stat} at K={param} judged {verdict}")
            if stat == "ainfty_witness_ratio_min" and not float(value) >= 1:
                problems.append(f"{stat} at K={param} is {value}, below 1")
        return problems

    def _check_plots(self, op):
        with open(self._path("a.svg"), "rb") as fa, open(self._path("b.svg"), "rb") as fb:
            a, b = fa.read(), fb.read()
        problems = [] if a == b else ["two plots of one CSV differ"]
        if not a.startswith(b"<?xml") or a.count(b"<polyline") != 3:
            problems.append("the SVG does not hold one polyline per statistic")
        return problems

    def _check_usage_error(self, op):
        err = op.output.stderr.strip().splitlines()
        if len(err) != 1 or not err[0].startswith("error:"):
            return [f"expected a one-line error message, got {op.output.stderr!r}"]
        return []


WORKLOADS = {w.name: w for w in (ClaimsSmall, CascadeDeep, CliFiles)}
