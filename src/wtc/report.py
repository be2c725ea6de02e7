"""CSV reports and hand-rolled SVG line charts.

Output is a pure function of the input rows, so identical data yields
byte-identical files.  The chart draws one polyline per statistic over the
parameter axis, with optional log scaling of the values.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

from .errors import ParseError
from .fileformat import read_text
from .measure import Record

CSV_HEADER = ("claim", "param", "statistic", "value", "bound", "verdict")

# fixed palette, cycled per statistic in first-appearance order
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return str(v)
    # ".12g" writes the infinities as inf and -inf, which float() reads back
    return f"{float(v):.12g}"


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.claim, str(r.param), r.statistic,
                         _fmt_value(r.value), _fmt_value(r.bound), r.verdict])
    return buf.getvalue()


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))


def _parse_number(token: str, lineno: int, what: str):
    token = token.strip()
    if token == "":
        return None
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        try:
            return float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: bad {what} {token!r}") from None


class ReportRow(Record):
    """One statistic of a claim at one size: a line of a report CSV."""

    __slots__ = ("claim", "param", "statistic", "value", "bound", "verdict")

    def __init__(self, claim: str, param: object, statistic: str, value: float | None,
                 bound: float | None, verdict: str):
        self._set(claim, param, statistic, value, bound, verdict)


def parse_csv(text: str) -> list[ReportRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as e:          # a field past csv's size limit
        raise ParseError(str(e), reader.line_num) from None
    if not records:
        raise ParseError("line 1: empty file")
    header, *body = records
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(f"line 1: expected header {','.join(CSV_HEADER)}")
    rows = []
    for lineno, rec in enumerate(body, start=2):
        if not rec:
            continue
        if len(rec) != 6:
            raise ParseError(f"line {lineno}: expected 6 fields, got {len(rec)}")
        claim, param, stat, value, bound, verdict = rec
        rows.append(ReportRow(claim,
                              _parse_number(param, lineno, "param"),
                              stat,
                              _parse_number(value, lineno, "value"),
                              _parse_number(bound, lineno, "bound"),
                              verdict))
    return rows


def _series(rows: list[ReportRow]) -> dict[str, list[tuple[float, float]]]:
    out: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if (r.param is None or r.value is None
                or not (math.isfinite(r.param) and math.isfinite(r.value))):
            continue
        out.setdefault(r.statistic, []).append((r.param, r.value))
    return out


def _ticks(lo: float, hi: float) -> tuple[float, float]:
    if lo == hi:
        pad = abs(lo) if lo else 1.0
        return lo - pad / 2, hi + pad / 2
    return lo, hi


def plot_svg(rows: list[ReportRow], log_scale: bool = False) -> str:
    """SVG 1.1 line chart: one polyline plus point markers per statistic."""
    series = _series(rows)
    if log_scale:
        series = {k: [(x, math.log10(y)) for x, y in pts if y > 0]
                  for k, pts in series.items()}
        series = {k: pts for k, pts in series.items() if pts}
    if not series:
        raise ParseError("no plottable rows")
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = _ticks(min(xs), max(xs))
    y0, y1 = _ticks(min(ys), max(ys))
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" '
        'stroke="black" stroke-width="1"/>',
    ]
    ylabel = "log10(value)" if log_scale else "value"
    out.append(f'<text x="{_ML}" y="{_MT - 16}" font-family="monospace" '
               f'font-size="12">{ylabel} vs param</text>')
    for val, anchor_x, anchor_y, anchor in (
            (x0, _ML, _MT + ph + 16, "middle"),
            (x1, _ML + pw, _MT + ph + 16, "middle")):
        out.append(f'<text x="{anchor_x}" y="{anchor_y}" font-family="monospace" '
                   f'font-size="11" text-anchor="{anchor}">{val:.6g}</text>')
    for val, y in ((y0, _MT + ph), (y1, _MT)):
        out.append(f'<text x="{_ML - 6}" y="{y + 4}" font-family="monospace" '
                   f'font-size="11" text-anchor="end">{val:.6g}</text>')
    for idx, (name, pts) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                       f'fill="{color}"/>')
        ly = _MT + 14 * (idx + 1)
        out.append(f'<line x1="{_ML + pw - 120}" y1="{ly - 4}" '
                   f'x2="{_ML + pw - 100}" y2="{ly - 4}" stroke="{color}" '
                   'stroke-width="1.5"/>')
        out.append(f'<text x="{_ML + pw - 94}" y="{ly}" font-family="monospace" '
                   f'font-size="11">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def plot_file(csv_path, out_path, log_scale: bool = False) -> None:
    rows = parse_csv(read_text(csv_path))
    svg = plot_svg(rows, log_scale)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
