"""The one verdict routine: `_stat_verdict` judges a statistic from its
values at two sizes (`run_claim`) or at one (`sweep`), and both entry points
build their rows from the same expectations."""

import math
from fractions import Fraction

import pytest

from wtc.claims import (
    _REL_EPS,
    BOUNDED,
    CAPPED,
    DIVERGENT,
    FINITE,
    FLOOR,
    REPORT,
    Expectation,
    _point_verdict,
    _stat_verdict,
    run_claim,
    sweep,
)

CAP = Expectation(CAPPED, cap=2.0)
FLOOR_ = Expectation(FLOOR, floor=0.8)
STABLE = Expectation(BOUNDED, slack=1.05)
STABLE_CAPPED = Expectation(BOUNDED, slack=1.05, cap=1.0)
GROWS = Expectation(DIVERGENT, min_growth=1.8)
INSIDE, OUTSIDE = _REL_EPS / 2, 2 * _REL_EPS

# (expectation, values at the sizes run, label, ok)
CASES = [
    # a probe is never judged
    (Expectation(REPORT), [1.0, 2.0], "INCONCLUSIVE", True),
    (Expectation(REPORT), [1.0], "INCONCLUSIVE", True),
    # finiteness is reported, never failed
    (Expectation(FINITE), [1.0, 3.0], "FINITE", True),
    (Expectation(FINITE), [1.0, math.inf], "INFINITE", True),
    (Expectation(FINITE), [4.0], "FINITE", True),
    (Expectation(FINITE), [math.inf], "INFINITE", True),
    # a cap holds up to a relative slack of _REL_EPS, at every size given
    (CAP, [1.0, 2.0 * (1 + INSIDE)], "PASS", True),
    (CAP, [1.0, 2.0 * (1 + OUTSIDE)], "FAIL", False),
    (CAP, [2.0 * (1 + INSIDE)], "PASS", True),
    (CAP, [2.0 * (1 + OUTSIDE)], "FAIL", False),
    # pointwise kinds judge the sizes that gave a value, and fail with none
    (CAP, [None, 1.0], "PASS", True),
    (CAP, [None, None], "FAIL", False),
    # a floor likewise, from below
    (FLOOR_, [0.8 * (1 - INSIDE), 1.0], "PASS", True),
    (FLOOR_, [0.8 * (1 - OUTSIDE), 1.0], "FAIL", False),
    (FLOOR_, [0.8 * (1 - INSIDE)], "PASS", True),
    (FLOOR_, [0.8 * (1 - OUTSIDE)], "FAIL", False),
    # a bounded trend: two-sided stability within the slack
    (STABLE, [1.0, 1.05 * (1 + INSIDE)], "BOUNDED", True),
    (STABLE, [1.05 * (1 + OUTSIDE), 1.0], "FAIL", False),
    (STABLE, [0.0, 0.0], "BOUNDED", True),
    (STABLE, [0.0, 1.0], "FAIL", False),
    (STABLE_CAPPED, [0.98, 1.0], "BOUNDED", True),
    (STABLE_CAPPED, [1.0, 1.0 + OUTSIDE], "FAIL", False),
    # a divergent trend: growth from the first size to the second
    (GROWS, [1.0, 1.8 * (1 - INSIDE)], "DIVERGENT", True),
    (GROWS, [1.0, 1.8 * (1 - OUTSIDE)], "FAIL", False),
    (GROWS, [2.0, 1.0], "FAIL", False),
    (GROWS, [0.0, 5.0], "FAIL", False),
    # a trend needs both sizes: one missing fails, one size alone reads NA
    (STABLE, [None, 1.0], "FAIL", False),
    (GROWS, [1.0, None], "FAIL", False),
    (STABLE, [1.0], "NA", True),
    (GROWS, [1.0], "NA", True),
]


@pytest.mark.parametrize("exp, values, label, ok", CASES)
def test_stat_verdict_table(exp, values, label, ok):
    assert _stat_verdict(exp, values) == (label, ok)
    if len(values) == 1:
        assert _point_verdict(exp, values[0]) == label


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        _stat_verdict(Expectation("SIDEWAYS"), [1.0, 2.0])


@pytest.mark.parametrize("claim, size", [("energy-le-pivotal", 5), ("t2-equiv-t1", 2)])
def test_sweep_rows_match_run_claim_rows(claim, size):
    # a CAPPED and a FLOOR claim: their rows carry the same value and bound
    # whether judged at one size or at two
    report = run_claim(claim, size)
    rows = sweep(claim, [size])
    at_size = [r for r in report.rows if r.param == size]
    assert [(r.statistic, r.value, r.bound) for r in rows] == \
        [(r.statistic, r.value, r.bound) for r in at_size]
    assert all(r.bound is not None for r in rows)


def test_fractional_integer_size_runs_as_int():
    report = run_claim("energy-le-pivotal", Fraction(5))
    assert report == run_claim("energy-le-pivotal", 5)
    assert {type(r.param) for r in report.rows} == {int}


def test_missing_statistic_gets_a_row_that_shows_the_fail():
    # at alphaExp 2 and 1 the closed form is infinite and the evaluator returns
    # no ratio: run_claim still writes a row per size, value None, and the
    # verdict _stat_verdict gives; a sweep row means "undefined here" and is
    # left out as before
    rep = run_claim("powerweight-ap", 2)
    assert not rep.passed
    assert [(r.statistic, r.param, r.value, r.verdict) for r in rep.rows] == [
        ("analytic_bound", 2, math.inf, "INFINITE"), ("analytic_bound", 1, math.inf, "INFINITE"),
        ("sup_to_bound", 2, None, "FAIL"), ("sup_to_bound", 1, None, "FAIL"),
        ("bound_to_sup", 2, None, "FAIL"), ("bound_to_sup", 1, None, "FAIL")]
    assert [r.statistic for r in sweep("powerweight-ap", [2])] == ["analytic_bound"]
