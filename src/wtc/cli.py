"""Command-line surface.

Subcommands: construct, eval, sup, verify, sweep, plot.  Exit codes:
0 success (all verdicts as expected), 1 verdict mismatch, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .claims import get_claim, run_claim, sweep
from .config import Config, parse_config_file
from .constructions import (
    cp_weight,
    gks_cascade,
    lebesgue_on,
    pivotal_example_pair,
    power_weight,
    remark2_weight,
    thm5_part1_pair,
    thm5_part2_pair,
)
from .errors import WtcError
from .fileformat import load_measure, save_measure
from .functionals import (
    AP_KINDS,
    ap_local,
    avg_density,
    energy_e2,
    maximal_indicator_integral,
    poisson,
    sup_over_family,
)
from .grid import ScanFamily
from .measure import Interval, rat
from .report import plot_file, write_csv

_AP_KIND = {k.replace("_", "-"): k for k in AP_KINDS}


class UsageError(Exception):
    pass


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected interval as a,b, got {text!r}")
    try:
        return Interval(rat(parts[0]), rat(parts[1]))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(str(e)) from None


def _parse_levels(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"expected levels as lo..hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"levels must be integers, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"empty level range {text!r}")
    return lo, hi


def _parse_scalar(text: str):
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad number {text!r}") from None
    return int(f) if f.denominator == 1 else f


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


def _range_values(lo, hi, step) -> list:
    """lo, lo + step, ... up to hi; the integral values as ints."""
    values = []
    v = Fraction(lo)
    while v <= hi:
        values.append(int(v) if v.denominator == 1 else v)
        v += step
    return values


def _parse_kv_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"expected key=value, got {item!r}")
        k, _, v = item.partition("=")
        out[k] = _parse_scalar(v)
    return out


def _int_param(params: dict, key: str, default: int) -> int:
    """An integer construction parameter; a fraction is refused, not truncated."""
    value = params.get(key, default)
    if not isinstance(value, int):
        raise UsageError(f"parameter {key} must be an integer, got {value}")
    return value


_CONSTRUCTIONS = {
    "lebesgue": lambda p: lebesgue_on(
        Interval(p.get("lo", 0), p.get("hi", 1)), p.get("density", 1)),
    "power-weight": lambda p: power_weight(
        p.get("alphaExp", Fraction(1, 2)),
        Interval(p.get("lo", -2), p.get("hi", 2)),
        _int_param(p, "resolution", 6)),
    "gks-cascade": lambda p: gks_cascade(
        p.get("delta", Fraction(1, 4)), p.get("depth", 6)),
    "cp-weight": lambda p: cp_weight(
        p=_int_param(p, "p", 2), K=_int_param(p, "K", 1),
        delta1=p.get("delta1"), delta2=p.get("delta2")).measure,
    "remark2": lambda p: remark2_weight(p.get("radius", 8)),
    "thm5-part1-omega": lambda p: thm5_part1_pair(_int_param(p, "K", 3))[0],
    "thm5-part1-sigma": lambda p: thm5_part1_pair(_int_param(p, "K", 3))[1],
    "thm5-part2-omega": lambda p: thm5_part2_pair(_int_param(p, "N", 8))[0],
    "thm5-part2-sigma": lambda p: thm5_part2_pair(_int_param(p, "N", 8))[1],
    "pivotal-omega": lambda p: pivotal_example_pair(_int_param(p, "N", 10))[0],
    "pivotal-sigma": lambda p: pivotal_example_pair(_int_param(p, "N", 10))[1],
}


def _local_functional(name: str, omega, sigma, p, alpha):
    """Interval -> value closure for eval/sup."""
    if name == "avg-density":
        return lambda cand: float(avg_density(omega, cand, alpha))
    if name == "poisson":
        return lambda cand: float(poisson(cand, omega, alpha))
    if name == "energy":
        return lambda cand: float(energy_e2(cand, omega))
    if name == "maximal-integral":
        return lambda cand: float(maximal_indicator_integral(omega, cand, p))
    if name in _AP_KIND:
        if sigma is None:
            raise UsageError(f"functional {name!r} needs --sigma")
        return lambda cand: ap_local(omega, sigma, cand, p, alpha, _AP_KIND[name])
    raise UsageError(f"unknown functional {name!r}")


def _build_config(args) -> Config:
    cfg = Config.default()
    if getattr(args, "config", None):
        cfg = cfg.with_overrides(**parse_config_file(args.config))
    overrides = {}
    if getattr(args, "shifts", None) is not None:
        overrides["shifts"] = args.shifts
    if getattr(args, "max_candidates", None) is not None:
        overrides["max_candidates"] = args.max_candidates
    return cfg.with_overrides(**overrides) if overrides else cfg


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wtc")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--shifts", type=int)
    parser.add_argument("--max-candidates", type=int, dest="max_candidates")
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
    measure = _CONSTRUCTIONS[args.name](params)
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
    cfg = _build_config(args)
    omega = load_measure(args.omega)
    sigma = load_measure(args.sigma) if args.sigma else None
    window = _parse_interval(args.window)
    lo, hi = _parse_levels(args.levels)
    alpha = _parse_scalar(args.alpha)
    fn = _local_functional(args.functional, omega, sigma, args.p, alpha)
    fam = ScanFamily(window, lo, hi, base=args.base, shifts=cfg.shifts,
                     max_candidates=cfg.max_candidates)
    value, witness = sup_over_family(fn, fam)
    print(f"{value:.12g} at [{witness.lo},{witness.hi}]")
    return 0


def _cmd_verify(args) -> int:
    cfg = _build_config(args)
    scale = _parse_scalar(args.scale) if args.scale is not None else None
    report = run_claim(args.claim, scale, cfg)
    if args.out:
        write_csv(report.rows, args.out)
    for row in report.rows:
        print(f"{row.statistic:30s} {row.param!s:>8} {row.value:<14.6g} "
              f"{row.verdict}")
    print(f"{args.claim}: {report.overall}")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    name, lo, hi, step = _parse_param_range(args.param)
    spec = get_claim(args.claim)
    if name != spec.scale_name:
        raise UsageError(
            f"claim {args.claim!r} sweeps over {spec.scale_name!r}, not {name!r}")
    # checking the ends first makes a range far past the cap fail at once,
    # not after it has been enumerated
    spec.check_scale(lo)
    spec.check_scale(hi)
    rows = sweep(args.claim, _range_values(lo, hi, step), cfg)
    if args.out:
        write_csv(rows, args.out)
    else:
        from .report import rows_to_csv
        sys.stdout.write(rows_to_csv(rows))
    return 0


def _cmd_plot(args) -> int:
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


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
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
