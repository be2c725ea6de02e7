from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtc import Atom, Interval, Measure, NegativeMassError, OverlappingStepsError, ParseError, StepPiece
from wtc import fileformat
from wtc.errors import DigitLimitError, WtcError
from wtc.fileformat import _number, parse_measure, write_measure

from oracles import density_at


def test_atom_line():
    m = parse_measure("# wtc-measure v1\natom 0 1\n")
    assert m == Measure.point_mass(0, 1)


def test_step_rational():
    m = parse_measure("# wtc-measure v1\nstep 0 1 3/2\n")
    assert density_at(m, F(1, 2)) == F(3, 2)


def test_decimal_and_comments():
    text = "# wtc-measure v1\n# a comment\natom 0.25 2  # trailing\n\nstep -1 0 1\n"
    m = parse_measure(text)
    assert m.atoms[0].x == F(1, 4)
    assert m.mass(Interval(-1, 0)) == 1
    assert m.total_mass() == 3


def test_overlap_rejected():
    with pytest.raises(OverlappingStepsError):
        parse_measure("# wtc-measure v1\nstep 0 1 1\nstep 1/2 2 1\n")


def test_negative_mass():
    with pytest.raises(NegativeMassError) as e:
        parse_measure("# wtc-measure v1\natom 0 -1\n")
    assert "line 2" in str(e.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_measure("# wtc-measure v1\natom 0 1\nblob 1 2\n")
    assert "line 3" in str(e.value)
    with pytest.raises(ParseError):
        parse_measure("not a header\n")
    with pytest.raises(ParseError) as e:
        parse_measure("# wtc-measure v1\nstep 1 1 1\n")
    assert "line 2" in str(e.value)


def test_round_trip():
    m = Measure(
        [Atom(F(1, 3), F(2))],
        [StepPiece(Interval(F(-5, 2), 0), F(7, 3))],
    )
    assert parse_measure(write_measure(m)) == m


# one more digit than Python converts between int and str by default
LONG = 4301


@pytest.mark.parametrize("token", ["1" * LONG, "-" + "2" * LONG, "1/" + "3" * LONG,
                                   "0." + "5" * LONG],
                         ids=["integer", "negative", "denominator", "decimal"])
def test_parse_number_past_digit_limit(token):
    with pytest.raises(DigitLimitError) as e:
        parse_measure(f"# wtc-measure v1\natom 0 1\nstep 0 1 {token}\n")
    message = str(e.value)
    assert isinstance(e.value, WtcError)
    assert "line 3" in message and "4300 digits" in message
    assert repr(token[:20]) + "..." in message and token[:21] not in message


@pytest.mark.parametrize("token", ["1e4301", "2.5E-4301", "1e+00000000000000004301",
                                   "1e" + "9" * LONG])
def test_parse_exponent_past_digit_limit(token):
    with pytest.raises(DigitLimitError) as e:
        parse_measure(f"# wtc-measure v1\nstep 0 1 {token}\n")
    assert str(e.value).startswith(f"line 2: number {token[:20]!r}")
    assert "exponent past 4300" in str(e.value)


def test_exponent_at_digit_limit_parses():
    m = parse_measure("# wtc-measure v1\natom 0 1e4300\natom 1 1e-4300\n")
    assert [a.mass for a in m.atoms] == [10 ** 4300, F(1, 10 ** 4300)]


def test_unknown_record_quotes_its_start_only():
    with pytest.raises(ParseError) as e:
        parse_measure("# wtc-measure v1\n" + "r" * 100_000 + " 1 2\n")
    assert str(e.value) == "line 2: unknown record " + repr("r" * 20) + "..."


def test_bad_number_quotes_its_start_only():
    with pytest.raises(ParseError) as e:
        parse_measure("# wtc-measure v1\nstep 0 1 " + "x" * LONG + "\n")
    assert not isinstance(e.value, DigitLimitError)
    assert str(e.value).endswith("bad number " + repr("x" * 20) + "...")


@pytest.mark.parametrize("m, start", [
    (Measure.from_steps([(0, 1, 10 ** LONG)]), "1" + "0" * 19),
    (Measure.from_steps([(0, 1, F(1, 3 ** 9100))]), str(3 ** 9100 // 10 ** 4300)[:20]),
    (Measure.point_mass(-7 * 10 ** LONG, 1), "-7" + "0" * 18),
], ids=["density", "density-denominator", "negative-atom"])
def test_write_number_past_digit_limit(m, start):
    with pytest.raises(DigitLimitError) as e:
        write_measure(m)
    message = str(e.value)
    assert "4300 digits" in message and repr(start) + "..." in message


def test_round_trip_below_digit_limit():
    m = Measure.from_steps([(F(-1, 10 ** 4299), 1, 10 ** 4299)])
    assert parse_measure(write_measure(m)) == m


@st.composite
def shared_measures(draw):
    """Measures whose pieces mostly touch, so breakpoints repeat, with
    densities drawn from a few values and atoms on breakpoints."""
    q = draw(st.sampled_from([1, 3, 8, 3 ** 9]))
    ks = sorted(draw(st.sets(st.integers(-40, 40), min_size=2, max_size=30)))
    xs = [F(k, q) for k in ks]
    density = st.sampled_from([F(1), F(3, 2), F(387420489, 134217728), F(1, 3 ** 40)])
    steps = [(lo, hi, draw(density)) for lo, hi in zip(xs, xs[1:]) if draw(st.integers(0, 4))]
    atoms = [Atom(x, draw(density)) for x in draw(st.lists(st.sampled_from(xs), unique=True))]
    return Measure(atoms) + Measure.from_steps(steps)


@settings(max_examples=100, deadline=None)
@given(shared_measures())
def test_round_trip_with_repeated_tokens(m):
    back = parse_measure(write_measure(m))
    assert back == m and back.columns() == m.columns()


def test_each_distinct_token_is_read_once(monkeypatch):
    read = []
    monkeypatch.setattr(fileformat, "_number",
                        lambda token, lineno: read.append(token) or _number(token, lineno))
    m = parse_measure("# wtc-measure v1\nstep 0 1/3 1\nstep 1/3 2/3 2/4\nstep 2/3 1 1\n"
                      "atom 1 1/3\n")
    assert read == ["0", "1/3", "1", "2/3", "2/4"]
    assert m == Measure([Atom(1, F(1, 3))], [StepPiece(Interval(0, F(1, 3)), 1),
                                             StepPiece(Interval(F(1, 3), F(2, 3)), F(1, 2)),
                                             StepPiece(Interval(F(2, 3), 1), 1)])


def test_repeated_bad_token_reports_its_first_line():
    with pytest.raises(ParseError) as e:
        parse_measure("# wtc-measure v1\nstep 0 1 1\nstep 1 2 x1\nstep 2 3 x1\n")
    assert str(e.value) == "line 3: bad number 'x1'"


def test_repeated_long_token_raises_at_its_first_line():
    token = "7" * LONG
    with pytest.raises(DigitLimitError) as e:
        parse_measure(f"# wtc-measure v1\natom 0 1\nstep 0 1 {token}\nstep 1 2 {token}\n")
    assert str(e.value).startswith(f"line 3: number {token[:20]!r}...")
