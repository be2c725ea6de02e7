"""Plain-text measure files.

Format: first non-blank line is the header `# wtc-measure v1`, then one
record per line, `atom <x> <mass>` or `step <a> <b> <density>`.  Numbers are
integers, decimals or p/q rationals; `#` starts a comment.  Writing is
canonical, so parse(write(m)) == m.

Both directions work on the measure's int columns.  The parser reads each
number as an (int numerator, int denominator) pair, `int()` taking the
plain `n` and `n/d` forms and `Fraction` any other, brings each column onto
the lcm of its denominators and builds the measure with
`Measure.from_columns`.  It keeps one table per file from token to pair,
so a token that repeats (a piece's `lo` is most often the `hi` before it,
and a cascade has few distinct densities) is read once, at its first line:
a bad token raises there, as it would with no table.  The writer formats
each entry of the measure's stored columns with one gcd, and each distinct
density once.

Python converts between int and str only up to a digit limit
(`sys.get_int_max_str_digits()`, 4,300 by default), so a number of more
digits can be neither read nor written: both directions raise
`DigitLimitError`, which names the limit and quotes the number's first 20
characters.  The parser also refuses a decimal exponent of magnitude past
the limit, whose power of ten would have more digits, before it builds it.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import DigitLimitError, NegativeMassError, ParseError
from .measure import Measure, _over_lcm

HEADER = "# wtc-measure v1"
# error messages quote at most this many characters of a number
_QUOTED = 20
# the exponent digits of a decimal token, as Fraction reads them
_EXPONENT = re.compile(r"[eE][-+]?0*(\d+)$")


def _digit_limit() -> int:
    """Python's int-string digit limit; 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _quote(token: str) -> str:
    return repr(token[:_QUOTED]) + ("..." if len(token) > _QUOTED else "")


def _number(token: str, lineno: int) -> tuple[int, int]:
    """(numerator, denominator > 0) of a number token, not reduced."""
    num, slash, den = token.partition("/")
    try:
        if not slash:
            return int(token), 1
        # Fraction takes no sign on the denominator; int() would
        if den[:1] not in ("+", "-"):
            d = int(den)
            if d:
                return int(num), d
    except ValueError:
        pass
    limit = _digit_limit()
    exponent = None if slash else _EXPONENT.search(token)
    if limit and exponent and (len(exponent[1]) > len(str(limit)) or int(exponent[1]) > limit):
        raise DigitLimitError(f"number {_quote(token)} has an exponent past {limit}, "
                              "Python's int-string limit", lineno)
    try:
        f = Fraction(token)
    except (ValueError, ZeroDivisionError):
        if limit and sum(ch.isdigit() for ch in token) > limit:
            raise DigitLimitError(f"number {_quote(token)} has more than {limit} digits, "
                                  "Python's int-string limit", lineno) from None
        raise ParseError(f"bad number {_quote(token)}", lineno) from None
    return f.numerator, f.denominator


def parse_measure(text: str) -> Measure:
    lines = text.splitlines()
    body_start = None
    for idx, raw in enumerate(lines):
        if raw.strip():
            if raw.strip() != HEADER:
                raise ParseError(f"missing header {HEADER!r}", idx + 1)
            body_start = idx + 1
            break
    if body_start is None:
        raise ParseError("empty file", 1)
    numbers = {}    # token -> (numerator, denominator), one parse per distinct token
    known = numbers.get

    def number(token: str, lineno: int) -> tuple[int, int]:
        value = numbers[token] = _number(token, lineno)
        return value

    points, masses = [], []          # atoms
    los, his, densities = [], [], []  # pieces
    for lineno, line in enumerate(lines[body_start:], body_start + 1):
        if "#" in line:
            line = line[:line.index("#")]
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "atom":
            if len(fields) != 3:
                raise ParseError("atom takes 2 numbers", lineno)
            _, x, mass = fields
            x, mass = known(x) or number(x, lineno), known(mass) or number(mass, lineno)
            if mass[0] < 0:
                raise NegativeMassError(f"negative mass {Fraction(*mass)}", lineno)
            points.append(x)
            masses.append(mass)
        elif fields[0] == "step":
            if len(fields) != 4:
                raise ParseError("step takes 3 numbers", lineno)
            _, a, b, density = fields
            a, b = known(a) or number(a, lineno), known(b) or number(b, lineno)
            density = known(density) or number(density, lineno)
            if density[0] < 0:
                raise NegativeMassError(f"negative density {Fraction(*density)}", lineno)
            if not a[0] * b[1] < b[0] * a[1]:
                raise ParseError(f"empty step [{Fraction(*a)}, {Fraction(*b)}]", lineno)
            los.append(a)
            his.append(b)
            densities.append(density)
        else:
            raise ParseError(f"unknown record {_quote(fields[0])}", lineno)
    n, m = len(points), len(los)
    den, xs = _over_lcm(points + los + his)
    mass_den, am = _over_lcm(masses)
    density_den, pd = _over_lcm(densities)
    return Measure.from_columns(den, xs[n:n + m], xs[n + m:], pd, density_den,
                                xs[:n], am, mass_den)


def _fmt(v: int, den: int) -> str:
    """str(Fraction(v, den)), from one gcd."""
    g = math.gcd(v, den)
    num, d = v // g, den // g
    try:
        return str(num) if d == 1 else f"{num}/{d}"
    except ValueError:
        long = num if abs(num) >= d else d
        raise DigitLimitError(f"number {_quote(_head(long))} has more than "
                              f"{_digit_limit()} digits, Python's int-string limit") from None


def _head(v: int) -> str:
    """The leading characters of str(v), at least _QUOTED + 1 of them
    when v has that many digits, without converting all of v."""
    drop = max(0, int(abs(v).bit_length() * math.log10(2)) - 2 * _QUOTED)
    head = abs(v) // 10 ** drop
    return str(-head if v < 0 else head)


def number_text(v: Fraction) -> str:
    """str(v), or DigitLimitError when v has too many digits to print."""
    return _fmt(v.numerator, v.denominator)


def write_measure(m: Measure) -> str:
    # the stored columns: `m.columns()` would make every `range` position an int
    den, mass_den, density_den = m._xden, m._mden, m._dden
    out = [HEADER]
    out += [f"atom {_fmt(x, den)} {_fmt(v, mass_den)}" for x, v in zip(m._ax, m._am)]
    # each distinct density, and a breakpoint shared by two neighbouring
    # pieces, is formatted once, in line order
    densities = {}
    prev, prev_s = None, None
    for lo, hi, d in zip(m._plo, m._phi, m._pd):
        lo_s = prev_s if lo == prev else _fmt(lo, den)
        prev, prev_s = hi, _fmt(hi, den)
        d_s = densities.get(d) or densities.setdefault(d, _fmt(d, density_den))
        out.append(f"step {lo_s} {prev_s} {d_s}")
    return "\n".join(out) + "\n"


def read_text(path) -> str:
    """The text of a UTF-8 file; bytes that are not UTF-8 raise ParseError
    naming the line that holds them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{path} is not UTF-8 text", line) from None


def load_measure(path) -> Measure:
    return parse_measure(read_text(path))


def save_measure(m: Measure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_measure(m))
