"""Command-line surface.

Subcommands: construct, eval, sup, verify, sweep, plot.  Exit codes:
0 success (all verdicts as expected), 1 verdict mismatch, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .errors import WtcError, ZeroMassError
from .fileformat import load_measure, number_text, save_measure
from .measure import Interval

# `claims`, `constructions`, `report`, `functionals` and `grid` are imported
# by the commands that use them (verify and sweep, construct, verify, sweep
# and plot, and eval and sup), so each command starts without the others

# the options whose values may start with "-" ("-1,1", "-2..0", "-1/2"); argparse
# takes such a value for an option unless it is a plain number such as -3
_SIGNED_OPTIONS = ("--interval", "--window", "--levels", "--alpha", "--scale")
_SIGNED_VALUE = re.compile(r"-[\d.]")


class UsageError(Exception):
    pass


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected interval as a,b, got {text!r}")
    return Interval(_parse_scalar(parts[0]), _parse_scalar(parts[1]))


def _parse_levels(text: str) -> tuple:
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"expected levels as lo..hi, got {text!r}")
    return _parse_scalar(parts[0]), _parse_scalar(parts[1])


def _parse_scalar(text: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad number {text!r}") from None


def _parse_param_range(text: str):
    """name=lo..hi or name=lo..hi..step; returns (name, lo, hi, step)."""
    if "=" not in text:
        raise UsageError(f"expected name=lo..hi, got {text!r}")
    name, _, rng = text.partition("=")
    parts = rng.split("..")
    if len(parts) not in (2, 3):
        raise UsageError(f"expected lo..hi or lo..hi..step, got {rng!r}")
    lo, hi = _parse_scalar(parts[0]), _parse_scalar(parts[1])
    step = _parse_scalar(parts[2]) if len(parts) == 3 else 1
    if step <= 0:
        raise UsageError("step must be positive")
    return name, lo, hi, step


class _ValueRange:
    """lo, lo + step, ... up to hi, drawn one at a time; sized, so sweep
    counts the values before it draws one."""

    def __init__(self, lo, hi, step):
        self.lo, self.step, self.count = lo, step, max(0, (hi - lo) // step + 1)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return (self.lo + k * self.step for k in range(self.count))


def _parse_kv_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"expected key=value, got {item!r}")
        k, _, v = item.partition("=")
        out[k] = _parse_scalar(v)
    return out


# name -> (the parameters it reads, builder of (constructions module,
# parameters)); any other parameter is an error
_CONSTRUCTIONS = {
    "lebesgue": ("lo hi density", lambda c, p: c.lebesgue_on(
        Interval(p.get("lo", 0), p.get("hi", 1)), p.get("density", 1))),
    "power-weight": ("alphaExp lo hi resolution", lambda c, p: c.power_weight(
        p.get("alphaExp", Fraction(1, 2)),
        Interval(p.get("lo", -2), p.get("hi", 2)), p.get("resolution", 6))),
    "gks-cascade": ("delta depth", lambda c, p: c.gks_cascade(
        p.get("delta", Fraction(1, 4)), p.get("depth", 6))),
    "cp-weight": ("p K delta1 delta2", lambda c, p: c.cp_weight(
        p=p.get("p", 2), K=p.get("K", 1),
        delta1=p.get("delta1"), delta2=p.get("delta2")).measure),
    "remark2": ("radius", lambda c, p: c.remark2_weight(p.get("radius", 8))),
    "thm5-part1-omega": ("K", lambda c, p: c.thm5_part1_pair(p.get("K", 3))[0]),
    "thm5-part1-sigma": ("K", lambda c, p: c.thm5_part1_pair(p.get("K", 3))[1]),
    "thm5-part2-omega": ("N", lambda c, p: c.thm5_part2_pair(p.get("N", 8))[0]),
    "thm5-part2-sigma": ("N", lambda c, p: c.thm5_part2_pair(p.get("N", 8))[1]),
    "pivotal-omega": ("N", lambda c, p: c.pivotal_example_pair(p.get("N", 10))[0]),
    "pivotal-sigma": ("N", lambda c, p: c.pivotal_example_pair(p.get("N", 10))[1]),
}


def _local_functional(name: str, omega, sigma, p, alpha):
    """Interval -> value closure for eval/sup."""
    from .functionals import (AP_KINDS, ap_local, avg_density, energy_e2,
                              maximal_indicator_integral, poisson)

    ap_kind = {k.replace("_", "-"): k for k in AP_KINDS}
    if name == "avg-density":
        return lambda cand: float(avg_density(omega, cand, alpha))
    if name == "poisson":
        return lambda cand: float(poisson(cand, omega, alpha))
    if name == "energy":
        return lambda cand: float(energy_e2(cand, omega))
    if name == "maximal-integral":
        return lambda cand: float(maximal_indicator_integral(omega, cand, p))
    if name in ap_kind:
        if sigma is None:
            raise UsageError(f"functional {name!r} needs --sigma")
        # float: on a depth-9 cascade an exact two-tailed value takes 71 ms
        # against 3.8 ms (2-core x86_64), and eval prints 12 digits
        return lambda cand: ap_local(omega, sigma, cand, p, alpha, ap_kind[name])
    raise UsageError(f"unknown functional {name!r}")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wtc")
    parser.add_argument("--shifts", type=int,
                        help="fractional translates per scan level of sup (default 3)")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named measure and save it")
    c.add_argument("name", choices=sorted(_CONSTRUCTIONS))
    c.add_argument("--param", action="append", metavar="KEY=VALUE")
    c.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="evaluate a functional at one interval")
    e.add_argument("functional")
    e.add_argument("--omega", required=True)
    e.add_argument("--sigma")
    e.add_argument("--interval", required=True)
    e.add_argument("--p", type=int, default=2)
    e.add_argument("--alpha", default="0")

    s = sub.add_parser("sup", help="scan-family supremum of a functional")
    s.add_argument("functional")
    s.add_argument("--omega", required=True)
    s.add_argument("--sigma")
    s.add_argument("--window", required=True)
    s.add_argument("--levels", required=True)
    s.add_argument("--base", type=int, default=3, choices=(2, 3))
    s.add_argument("--p", type=int, default=2)
    s.add_argument("--alpha", default="0")

    v = sub.add_parser("verify", help="run one claim and write its report")
    v.add_argument("claim")
    v.add_argument("--scale")
    v.add_argument("--out")

    w = sub.add_parser("sweep", help="run a claim across a parameter range")
    w.add_argument("claim")
    w.add_argument("--param", required=True, metavar="NAME=LO..HI[..STEP]")
    w.add_argument("--out")

    p = sub.add_parser("plot", help="render a sweep CSV as an SVG line chart")
    p.add_argument("csv")
    p.add_argument("--out", required=True)
    p.add_argument("--log", action="store_true")
    return parser


def _cmd_construct(args) -> int:
    params = _parse_kv_params(args.param)
    names, build = _CONSTRUCTIONS[args.name]
    unknown = sorted(set(params) - set(names.split()))
    if unknown:
        raise UsageError(f"{args.name} takes no parameter {', '.join(unknown)}; "
                         f"its parameters are {names.replace(' ', ', ')}")
    from . import constructions

    measure = build(constructions, params)
    save_measure(measure, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    omega = load_measure(args.omega)
    sigma = load_measure(args.sigma) if args.sigma else None
    interval = _parse_interval(args.interval)
    alpha = _parse_scalar(args.alpha)
    fn = _local_functional(args.functional, omega, sigma, args.p, alpha)
    print(f"{fn(interval):.12g}")
    return 0


def _cmd_sup(args) -> int:
    from .functionals import AP_KINDS, ap_local_many, sup_over_family
    from .grid import ScanFamily

    omega = load_measure(args.omega)
    sigma = load_measure(args.sigma) if args.sigma else None
    window = _parse_interval(args.window)
    lo, hi = _parse_levels(args.levels)
    alpha = _parse_scalar(args.alpha)
    fn = _local_functional(args.functional, omega, sigma, args.p, alpha)
    if args.functional == "energy":
        # as the doubling-energy-floor claim does: a candidate without mass
        # has no energy and is skipped
        fn = lambda cand, energy=fn: None if omega.mass(cand) == 0 else energy(cand)
    fam = ScanFamily(window, lo, hi, base=args.base,
                     shifts=3 if args.shifts is None else args.shifts)
    screen, kind = None, args.functional.replace("-", "_")
    if kind in AP_KINDS and kind != "offset" and args.p == 2 and alpha == 0:
        # screened as the claims' Ap scans are; offset has no batched screen
        screen = lambda fam: ap_local_many(omega, sigma, *fam.endpoints(), kind=kind)
    value, witness = sup_over_family(fn, fam, screen)
    if value is None:
        raise ZeroMassError(f"omega has no mass on any candidate in {window}")
    # an end past the int-string digit limit raises DigitLimitError, a WtcError
    print(f"{value:.12g} at [{number_text(witness.lo)},{number_text(witness.hi)}]")
    return 0


def _cmd_verify(args) -> int:
    from .claims import run_claim
    from .report import write_csv

    scale = _parse_scalar(args.scale) if args.scale is not None else None
    report = run_claim(args.claim, scale)
    if args.out:
        write_csv(report.rows, args.out)
    for row in report.rows:
        value = "NA" if row.value is None else format(row.value, ".6g")
        print(f"{row.statistic:30s} {row.param!s:>8} {value:<14} {row.verdict}")
    print(f"{args.claim}: {report.overall}")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    from .claims import get_claim, sweep
    from .report import rows_to_csv, write_csv

    name, lo, hi, step = _parse_param_range(args.param)
    spec = get_claim(args.claim)
    if name != spec.scale_name:
        raise UsageError(
            f"claim {args.claim!r} sweeps over {spec.scale_name!r}, not {name!r}")
    # a top past the cap fails here, before a fine step draws up to it
    spec.check_scale(hi)
    rows = sweep(args.claim, _ValueRange(lo, hi, step))
    if args.out:
        write_csv(rows, args.out)
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 0


def _cmd_plot(args) -> int:
    from .report import plot_file

    plot_file(args.csv, args.out, log_scale=args.log)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "eval": _cmd_eval,
    "sup": _cmd_sup,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "plot": _cmd_plot,
}


def _attach_signed_values(argv: list) -> list:
    """argv with each value of a _SIGNED_OPTIONS option that starts with
    "-" and a digit or a point attached to its option, as --opt=value."""
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    # wtc calls no BLAS routine (its numpy use is ufuncs, sorts and
    # reductions), and the OpenBLAS thread pool that numpy starts on import
    # costs a command that loads numpy about 80-100 ms; set here, before any
    # command imports numpy, so a library import leaves the environment alone
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _make_parser()
    try:
        args = parser.parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.shifts is not None and args.command != "sup":
            raise UsageError(f"--shifts applies to sup only, not {args.command}")
        return _COMMANDS[args.command](args)
    except (UsageError, WtcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        # an exact value past float range, met where it is printed or screened
        print(f"error: value too large for a float: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
