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
from .measure import Interval
from .report import plot_file, rows_to_csv, write_csv

_AP_KIND = {k.replace("_", "-"): k for k in AP_KINDS}


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


def _range_values(lo, hi, step):
    """lo, lo + step, ... up to hi, drawn one at a time: sweep checks each
    value as it is drawn, so a bad low end stops the range at once."""
    while lo <= hi:
        yield lo
        lo += step


def _parse_kv_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"expected key=value, got {item!r}")
        k, _, v = item.partition("=")
        out[k] = _parse_scalar(v)
    return out


# name -> (the parameters it reads, builder); any other parameter is an error
_CONSTRUCTIONS = {
    "lebesgue": ("lo hi density", lambda p: lebesgue_on(
        Interval(p.get("lo", 0), p.get("hi", 1)), p.get("density", 1))),
    "power-weight": ("alphaExp lo hi resolution", lambda p: power_weight(
        p.get("alphaExp", Fraction(1, 2)),
        Interval(p.get("lo", -2), p.get("hi", 2)), p.get("resolution", 6))),
    "gks-cascade": ("delta depth", lambda p: gks_cascade(
        p.get("delta", Fraction(1, 4)), p.get("depth", 6))),
    "cp-weight": ("p K delta1 delta2", lambda p: cp_weight(
        p=p.get("p", 2), K=p.get("K", 1),
        delta1=p.get("delta1"), delta2=p.get("delta2")).measure),
    "remark2": ("radius", lambda p: remark2_weight(p.get("radius", 8))),
    "thm5-part1-omega": ("K", lambda p: thm5_part1_pair(p.get("K", 3))[0]),
    "thm5-part1-sigma": ("K", lambda p: thm5_part1_pair(p.get("K", 3))[1]),
    "thm5-part2-omega": ("N", lambda p: thm5_part2_pair(p.get("N", 8))[0]),
    "thm5-part2-sigma": ("N", lambda p: thm5_part2_pair(p.get("N", 8))[1]),
    "pivotal-omega": ("N", lambda p: pivotal_example_pair(p.get("N", 10))[0]),
    "pivotal-sigma": ("N", lambda p: pivotal_example_pair(p.get("N", 10))[1]),
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
    if args.config:
        cfg = cfg.with_overrides(**parse_config_file(args.config))
    return cfg.with_overrides(shifts=args.shifts, max_candidates=args.max_candidates)


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
    names, build = _CONSTRUCTIONS[args.name]
    unknown = sorted(set(params) - set(names.split()))
    if unknown:
        raise UsageError(f"{args.name} takes no parameter {', '.join(unknown)}; "
                         f"its parameters are {names.replace(' ', ', ')}")
    measure = build(params)
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
        value = "NA" if row.value is None else format(row.value, ".6g")
        print(f"{row.statistic:30s} {row.param!s:>8} {value:<14} {row.verdict}")
    print(f"{args.claim}: {report.overall}")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    name, lo, hi, step = _parse_param_range(args.param)
    spec = get_claim(args.claim)
    if name != spec.scale_name:
        raise UsageError(
            f"claim {args.claim!r} sweeps over {spec.scale_name!r}, not {name!r}")
    # a top past the cap fails here, before a fine step draws up to it
    spec.check_scale(hi)
    rows = sweep(args.claim, _range_values(lo, hi, step), cfg)
    if args.out:
        write_csv(rows, args.out)
    else:
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
