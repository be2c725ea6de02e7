"""Plain-text measure files.

Format: first non-blank line is the header `# wtc-measure v1`, then one
record per line, `atom <x> <mass>` or `step <a> <b> <density>`.  Numbers are
integers, decimals or p/q rationals; `#` starts a comment.  Writing is
canonical, so parse(write(m)) == m.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NegativeMassError, ParseError
from .measure import Atom, Interval, Measure, StepPiece

HEADER = "# wtc-measure v1"


def _number(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: bad number {token!r}") from None


def parse_measure(text: str) -> Measure:
    lines = text.splitlines()
    body_start = None
    for idx, raw in enumerate(lines):
        if raw.strip():
            if raw.strip() != HEADER:
                raise ParseError(f"line {idx + 1}: missing header {HEADER!r}")
            body_start = idx + 1
            break
    if body_start is None:
        raise ParseError("line 1: empty file")
    atoms = []
    pieces = []
    for idx in range(body_start, len(lines)):
        lineno = idx + 1
        line = lines[idx].split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "atom":
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: atom takes 2 numbers")
            x, mass = (_number(t, lineno) for t in fields[1:])
            if mass < 0:
                raise NegativeMassError(f"line {lineno}: negative mass {mass}")
            atoms.append(Atom(x, mass))
        elif fields[0] == "step":
            if len(fields) != 4:
                raise ParseError(f"line {lineno}: step takes 3 numbers")
            a, b, density = (_number(t, lineno) for t in fields[1:])
            if density < 0:
                raise NegativeMassError(f"line {lineno}: negative density {density}")
            if not a < b:
                raise ParseError(f"line {lineno}: empty step [{a}, {b}]")
            pieces.append(StepPiece(Interval(a, b), density))
        else:
            raise ParseError(f"line {lineno}: unknown record {fields[0]!r}")
    return Measure(atoms, pieces)


def write_measure(m: Measure) -> str:
    out = [HEADER]
    out += [f"atom {x} {mass}" for x, mass in m.atom_rows()]
    out += [f"step {lo} {hi} {d}" for lo, hi, d in m.piece_rows()]
    return "\n".join(out) + "\n"


def load_measure(path) -> Measure:
    with open(path, encoding="utf-8") as fh:
        return parse_measure(fh.read())


def save_measure(m: Measure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_measure(m))
