"""The exact integer kernel for the integral of (M1_I)^p, the Poisson integral
it gives, and measure files read and written on the int columns.

Each is checked against the per-record `Fraction` code it replaced, kept
here as the reference; results must be equal as Fractions.
"""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtc import Atom, Interval, Measure, StepPiece
from wtc.constructions import gks_cascade
from wtc.errors import AtomPresentError, NegativeMassError, OverlappingStepsError, ParseError
from wtc.fileformat import load_measure, parse_measure, write_measure
from wtc.functionals import maximal_indicator_integral, poisson

BIG = 2 ** 61 - 1          # a prime above 2^53
ODD = 7 * 3 ** 40          # above 2^53


# -- the replaced Fraction loops ---------------------------------------------

def old_poisson(interval, mu):
    a, b, L = interval.lo, interval.hi, interval.length
    total = F(0)
    for atom in mu.atoms:
        total += atom.mass * L / (L + interval.dist(atom.x)) ** 2
    for p in mu.pieces:
        lo, hi, density = p.support.lo, p.support.hi, p.density
        olo, ohi = max(lo, a), min(hi, b)
        if ohi > olo:
            total += density * (ohi - olo) / L
        if hi > b:
            t0, t1 = max(lo, b) - b, hi - b
            total += density * L * (F(1) / (L + t0) - F(1) / (L + t1))
        if lo < a:
            u0, u1 = a - min(hi, a), a - lo
            total += density * L * (F(1) / (L + u0) - F(1) / (L + u1))
    return total


def old_maximal(w, interval, p):
    def power_tail(L, u0, u1):
        return L ** p * (u0 ** (1 - p) - u1 ** (1 - p)) / (p - 1)

    a, b, L = interval.lo, interval.hi, interval.length
    total = F(0)
    for piece in w.pieces:
        lo, hi, den = piece.support.lo, piece.support.hi, piece.density
        olo, ohi = max(lo, a), min(hi, b)
        if ohi > olo:
            total += den * (ohi - olo)
        if hi > b:
            total += den * power_tail(L, max(lo, b) - a, hi - a)
        if lo < a:
            total += den * power_tail(L, b - min(hi, a), b - lo)
    return total


def old_parse(text):
    """The object-built parser: a Fraction per token, an Atom or StepPiece
    per record, then Measure(atoms, pieces)."""
    def number(token, lineno):
        try:
            return F(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: bad number {token!r}") from None

    lines = text.splitlines()
    body_start = None
    for idx, raw in enumerate(lines):
        if raw.strip():
            if raw.strip() != "# wtc-measure v1":
                raise ParseError(f"line {idx + 1}: missing header '# wtc-measure v1'")
            body_start = idx + 1
            break
    if body_start is None:
        raise ParseError("line 1: empty file")
    atoms, pieces = [], []
    for idx in range(body_start, len(lines)):
        lineno = idx + 1
        line = lines[idx].split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "atom":
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: atom takes 2 numbers")
            x, mass = (number(t, lineno) for t in fields[1:])
            if mass < 0:
                raise NegativeMassError(f"line {lineno}: negative mass {mass}")
            atoms.append(Atom(x, mass))
        elif fields[0] == "step":
            if len(fields) != 4:
                raise ParseError(f"line {lineno}: step takes 3 numbers")
            a, b, density = (number(t, lineno) for t in fields[1:])
            if density < 0:
                raise NegativeMassError(f"line {lineno}: negative density {density}")
            if not a < b:
                raise ParseError(f"line {lineno}: empty step [{a}, {b}]")
            pieces.append(StepPiece(Interval(a, b), density))
        else:
            raise ParseError(f"line {lineno}: unknown record {fields[0]!r}")
    return Measure(atoms, pieces)


# -- kernels -------------------------------------------------------------------

@st.composite
def measures_and_intervals(draw, with_atoms=True):
    """A step-plus-atom measure with gaps, over a position denominator
    coprime to the interval's, and an interval that cuts its pieces: ends
    inside pieces (one piece may straddle both), on breakpoints, or
    outside the support."""
    xden = draw(st.sampled_from([1, 2, 9, 2 ** 55]))
    ks = sorted(draw(st.lists(st.integers(-40, 40), min_size=2, max_size=10, unique=True)))
    xs = sorted({F(k, 3) + F(draw(st.integers(0, 5)), xden) for k in ks})
    dden = draw(st.sampled_from([1, 4, ODD]))
    pieces = [StepPiece(Interval(lo, hi), F(draw(st.integers(1, 9)), dden))
              for lo, hi in zip(xs, xs[1:]) if draw(st.booleans())]
    atoms = []
    if with_atoms:
        mden = draw(st.sampled_from([1, 5, BIG]))
        spots = draw(st.lists(st.sampled_from(xs + [x + F(1, 7) for x in xs]), unique=True))
        atoms = [Atom(x, F(draw(st.integers(1, 8)), mden)) for x in spots]
    qden = draw(st.sampled_from([5, 7, 11, BIG]))
    span = 50 * qden
    ends = [F(draw(st.integers(-span, span)), qden) for _ in range(2)]
    ends += draw(st.lists(st.sampled_from(xs), max_size=2))
    lo = draw(st.sampled_from(ends))
    hi = draw(st.sampled_from([e for e in ends if e > lo] + [lo + F(1, qden)]))
    return Measure(atoms, pieces), Interval(lo, hi)


@settings(max_examples=150, deadline=None)
@given(measures_and_intervals())
def test_poisson_matches_fraction_loop(case):
    mu, interval = case
    got = poisson(interval, mu)
    assert type(got) is F and got == old_poisson(interval, mu)


@settings(max_examples=150, deadline=None)
@given(measures_and_intervals(with_atoms=False), st.sampled_from([2, 3, 4]))
def test_maximal_matches_fraction_loop(case, p):
    w, interval = case
    assert maximal_indicator_integral(w, interval, p) == old_maximal(w, interval, p)


@settings(max_examples=100, deadline=None)
@given(measures_and_intervals(with_atoms=False))
def test_poisson_is_maximal_square_over_length(case):
    # |I|/(|I|+d)^2 = (M1_I)^2/|I|, M1_I = |I|/(|I|+d) in one dimension
    w, interval = case
    assert poisson(interval, w) * interval.length == maximal_indicator_integral(w, interval, 2)


def test_kernel_on_the_cascade():
    mu = gks_cascade(F(1, 4), 6)
    for interval in (Interval(F(10, 81), F(50, 81)), Interval(F(1, 7), F(2, 7)),
                     Interval(-1, 2), Interval(F(-3, 5), F(1, 11))):
        assert poisson(interval, mu) == old_poisson(interval, mu)
        assert maximal_indicator_integral(mu, interval, 3) == old_maximal(mu, interval, 3)


def test_kernel_edge_cases():
    unit = Interval(0, 1)
    assert poisson(unit, Measure()) == 0
    # one piece straddling both ends, an atom on each side and one on an end
    mu = Measure([Atom(-2, 1), Atom(1, 3), Atom(F(7, 2), 2)],
                 [StepPiece(Interval(-3, 5), F(1, 3))])
    for interval in (unit, Interval(F(1, 3), F(2, 5)), Interval(-5, -4)):
        assert poisson(interval, mu) == old_poisson(interval, mu)
    with pytest.raises(AtomPresentError):
        maximal_indicator_integral(mu, unit, 2)


# -- measure files ---------------------------------------------------------------

def _token(draw, value):
    """A spelling of the Fraction value that Fraction() reads back."""
    forms = [str(value), f"{value.numerator * 2}/{value.denominator * 2}"]
    if value.denominator == 1:
        forms += [f"+{value}" if value >= 0 else str(value), f"{value}e0",
                  f"{value.numerator * 10}e-1", f"{value}/1"]
    if 10 ** 6 % value.denominator == 0:
        forms.append(f"{float(value):.6f}" if value else "-0.0")
    if value.numerator % 1000 == 0 and value.denominator == 1:
        forms.append(f"{value.numerator // 1000}e3")
    return draw(st.sampled_from(forms))


@st.composite
def measure_files(draw):
    """A measure file with varied number spellings, comments, blank lines
    and line ends; most are valid, some overlap, reverse a step or carry a
    negative mass."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    vals = st.sampled_from([F(0), F(1), F(3), F(-2), F(1000), F(1, 4), F(-5, 8),
                            F(2, 3), F(7, 2), F(1, 3 ** 40)])
    records = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            x, m = draw(vals), abs(draw(vals))
            if draw(st.integers(0, 9)) == 0:
                m = -m - 1
            records.append(["atom", _token(draw, x), _token(draw, m)])
        else:
            a, b, d = draw(vals), draw(vals), abs(draw(vals))
            if draw(st.integers(0, 4)):
                a, b = sorted((a, b))
            records.append(["step", _token(draw, a), _token(draw, b), _token(draw, d)])
    lines = [draw(st.sampled_from(["", "  ", "# lead"])), "# wtc-measure v1"]
    for rec in records:
        lines.append(" ".join(rec) + draw(st.sampled_from(["", "  # note", "\t"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# c", "   "])))
    return eol.join(lines) + eol


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, OverlappingStepsError) as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(measure_files())
def test_parse_matches_object_parse(text):
    got, want = _outcome(parse_measure, text), _outcome(old_parse, text)
    assert got == want
    if isinstance(got, Measure):
        assert parse_measure(write_measure(got)) == got


def test_number_forms():
    cases = {"3": F(3), "+3": F(3), "-0": F(0), "2/4": F(1, 2), "-6/4": F(-3, 2),
             "+3/2": F(3, 2), "1e3": F(1000), "-.5e-2": F(-1, 200), "5.": F(5),
             "1_0": F(10), "1_0/3": F(10, 3), "00012/0004": F(3)}
    for token, value in cases.items():
        mu = parse_measure(f"# wtc-measure v1\natom {token} 1\n")
        assert mu.atoms[0].x == value == old_parse(f"# wtc-measure v1\natom {token} 1\n").atoms[0].x
    for token in ("3/+2", "3/-2", "1/0", "/3", "3/", "inf", "nan", "0x10", "1/2/3", "1__0"):
        with pytest.raises(ParseError) as e:
            parse_measure(f"# wtc-measure v1\n\natom {token} 1\n")
        assert str(e.value) == f"line 3: bad number {token!r}" and e.value.line == 3


@pytest.mark.parametrize("body, error, line, message", [
    ("", ParseError, 1, "empty file"),
    ("\n  \n", ParseError, 1, "empty file"),
    ("\nstep 0 1 1\n", ParseError, 2, "missing header '# wtc-measure v1'"),
    ("# wtc-measure v1\natom 0\n", ParseError, 2, "atom takes 2 numbers"),
    ("# wtc-measure v1\n\nstep 0 1\n", ParseError, 3, "step takes 3 numbers"),
    ("# wtc-measure v1\natom x 1\n", ParseError, 2, "bad number 'x'"),
    ("# wtc-measure v1\natom 0 -2/4\n", NegativeMassError, 2, "negative mass -1/2"),
    ("# wtc-measure v1\nstep 0 1 -1\n", NegativeMassError, 2, "negative density -1"),
    ("# wtc-measure v1\nstep 4/2 2 1\n", ParseError, 2, "empty step [2, 2]"),
    ("# wtc-measure v1\n# c\nblob 1 2\n", ParseError, 3, "unknown record 'blob'"),
])
def test_parse_error_paths(body, error, line, message):
    with pytest.raises(error) as e:
        parse_measure(body)
    assert type(e.value) is error and e.value.line == line
    assert str(e.value) == f"line {line}: {message}"
    assert _outcome(old_parse, body) == (error, str(e.value))


def test_overlap_error_is_the_object_path_one():
    text = "# wtc-measure v1\nstep 0 1 1\nstep 1/2 2 1\n"
    assert _outcome(parse_measure, text) == _outcome(old_parse, text)
    assert _outcome(parse_measure, text)[0] is OverlappingStepsError


def test_write_is_byte_identical_to_fraction_format():
    mu = Measure([Atom(F(-1, 3), F(5, 2)), Atom(2, 1)],
                 [StepPiece(Interval(-1, F(1, 2)), F(2, 3)), StepPiece(Interval(F(1, 2), 1), 4),
                  StepPiece(Interval(3, F(7, 2)), F(1, 3 ** 40))])
    want = "# wtc-measure v1\n" + "".join(f"atom {a.x} {a.mass}\n" for a in mu.atoms) + "".join(
        f"step {p.support.lo} {p.support.hi} {p.density}\n" for p in mu.pieces)
    assert write_measure(mu) == want
    assert write_measure(Measure()) == "# wtc-measure v1\n"


def test_non_utf8_measure_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"# wtc-measure v1\nstep 0 1 1\natom \xff 1\n")
    with pytest.raises(ParseError) as e:
        load_measure(path)
    assert str(e.value).startswith("line 3: ")


# -- the CLI exits 2 with one error line -------------------------------------------

def _files(tmp_path):
    (tmp_path / "huge.txt").write_text("# wtc-measure v1\nstep 0 1 1e400\n")
    (tmp_path / "bad.txt").write_bytes(b"# wtc-measure v1\n\xff\n")
    (tmp_path / "leb.txt").write_text("# wtc-measure v1\nstep 0 1 1\n")
    (tmp_path / "bad.csv").write_bytes(b"claim,param\n\xff\n")


@pytest.mark.parametrize("args, env", [
    (["--shifts", "0", "verify", "powerweight-ap"], {}),
    (["--shifts", "2", "verify", "powerweight-ap"], {}),
    (["--shifts", "3", "sweep", "cp-not-ainfty", "--param", "K=1..2"], {}),
    (["--shifts", "0", "sup", "avg-density", "--omega", "{tmp}/leb.txt", "--window", "0,1",
      "--levels=-1..0"], {}),
    (["--shifts", "2", "construct", "lebesgue", "--out", "{tmp}/m.txt"], {}),
    (["eval", "poisson", "--omega", "{tmp}/bad.txt", "--interval", "0,1"], {}),
    (["plot", "{tmp}/bad.csv", "--out", "{tmp}/x.svg"], {}),
    (["eval", "avg-density", "--omega", "{tmp}/huge.txt", "--interval", "0,1"], {}),
    # refused from the level count alone: the blocks of 10^9 levels are never built
    (["sup", "avg-density", "--omega", "{tmp}/leb.txt", "--window", "0,1",
      "--levels=0..1000000000"], {}),
    # refused from the count of values past grid.MAX_CANDIDATES, before any is drawn
    (["sweep", "powerweight-ap", "--param", "alphaExp=-1000000000..4"], {}),
    (["sweep", "powerweight-ap", "--param", "alphaExp=0..4..1/100000000"], {}),
])
def test_cli_bad_input_exits_two(tmp_path, args, env):
    _files(tmp_path)
    r = subprocess.run([sys.executable, "-m", "wtc.cli", *(a.format(tmp=tmp_path) for a in args)],
                       capture_output=True, text=True, env=dict(os.environ, **env))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert r.stdout == ""
