"""Every library parameter is checked where it is consumed, through the
owner of its kind of number in `wtc.measure`: `rat` owns rationals (ends,
masses, factors, sizes), `real` floats the real exponents of the float
kernels, `is_whole` is the one test of a whole number, which decides an
exact path, and `whole` owns counts, depths, levels and integer exponents.
Every value outside its domain raises `ParamDomainError`, a `WtcError`."""

import ast
import math
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from wtc import Interval, Measure, WtcError
from wtc.claims import REGISTRY
from wtc.constructions import (
    _pick_stage_depth,
    cp_weight,
    gks_cascade,
    pivotal_example_pair,
    power_weight,
    thm5_part1_pair,
    thm5_part2_pair,
)
from wtc.errors import (
    CapExceededError,
    FamilyTooLargeError,
    NonIntegrableError,
    ParamDomainError,
    ScaleDomainError,
    StageOverflowError,
)
from wtc.functionals import (
    _tail_many,
    ap_local,
    ap_local_many,
    avg_density,
    doubling_constant,
    dyadic_maximal_integral,
    maximal_indicator_integral,
    pivotal_sum,
    pivotal_sup,
    poisson,
    power_weight_ap_bound,
    riesz_potential_sup,
    sawyer_ratio,
)
from wtc.grid import Partition, ScanFamily, partitions, stopping_cubes
from wtc.measure import Atom, StepPiece, rat, whole

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wtc"
UNIT = Interval(0, 1)
LEB = Measure.lebesgue(UNIT)


@pytest.mark.parametrize("v, least, most, want", [
    (3, 0, None, 3), (0, 0, None, 0), (F(4, 2), 0, None, 2), (-2, None, None, -2),
    (6, 1, 6, 6), (1, 1, 6, 1), (-5, None, -5, -5)])
def test_whole_accepts(v, least, most, want):
    got = whole(v, "n", least, most)
    assert got == want and type(got) is int


@pytest.mark.parametrize("v, least, most", [
    (True, 0, None), (2.0, 0, None), ("3", 0, None), (F(1, 2), None, None),
    (None, 0, None), (-1, 0, None), (0, 1, None), (7, 1, 6), (-4, None, -5)])
def test_whole_rejects_naming_the_parameter(v, least, most):
    with pytest.raises(ParamDomainError, match="^stage count "):
        whole(v, "stage count", least, most)


BAD = {
    "thm5-part1 K=5/2": lambda: thm5_part1_pair(F(5, 2)),
    "thm5-part2 N=5/2": lambda: thm5_part2_pair(F(5, 2)),
    "pivotal N=5/2": lambda: pivotal_example_pair(F(5, 2)),
    "cp K=5/2": lambda: cp_weight(K=F(5, 2)),
    "cp p=5/2": lambda: cp_weight(p=F(5, 2)),
    "cp K=6": lambda: cp_weight(K=6),
    "cascade depth 14": lambda: gks_cascade(F(1, 4), 14),
    "power resolution 1/2": lambda: power_weight(F(1, 2), UNIT, F(1, 2)),
    "power resolution 19": lambda: power_weight(F(1, 2), UNIT, 19),
    "scan levels (1, 0)": lambda: ScanFamily(UNIT, 1, 0),
    "scan level 1/2": lambda: ScanFamily(UNIT, F(1, 2), 1),
    "scan shifts 0": lambda: ScanFamily(UNIT, 0, 1, shifts=0),
    "scan base 1": lambda: ScanFamily(UNIT, 0, 1, base=1),
    "partitions depth 1/2": lambda: partitions(UNIT, 2, F(1, 2)),
    "partitions depth -1": lambda: partitions(UNIT, 2, -1),
    "partitions base 1": lambda: partitions(UNIT, 1, 2),
    "partition not tiling": lambda: Partition(UNIT, (Interval(0, F(1, 2)),)),
    "partition with a gap": lambda: Partition(
        UNIT, (Interval(0, F(1, 4)), Interval(F(1, 2), 1))),
    "stopping K=1": lambda: stopping_cubes(LEB, UNIT, 1, 4),
    "stopping depth -1": lambda: stopping_cubes(LEB, UNIT, 8, -1),
    "dyadic p=-1": lambda: dyadic_maximal_integral(LEB, LEB, UNIT, -1),
    "dyadic depth -1": lambda: dyadic_maximal_integral(LEB, LEB, UNIT, 2, -1),
    "riesz alpha 2": lambda: riesz_potential_sup(LEB, UNIT, 2, [F(1, 2)]),
    "riesz sample outside": lambda: riesz_potential_sup(LEB, UNIT, F(1, 2), [2]),
    "riesz no samples": lambda: riesz_potential_sup(LEB, UNIT, F(1, 2), []),
    # with no mass in I the samples are still checked
    "riesz no mass, sample outside": lambda: riesz_potential_sup(
        Measure(), UNIT, F(1, 2), [2]),
    "riesz no mass, sample x": lambda: riesz_potential_sup(
        Measure(), UNIT, F(1, 2), ["x"]),
    "riesz mass off I, sample outside": lambda: riesz_potential_sup(
        Measure.lebesgue(Interval(5, 6)), UNIT, F(1, 2), [2]),
    "riesz mass off I, sample x": lambda: riesz_potential_sup(
        Measure.lebesgue(Interval(5, 6)), UNIT, F(1, 2), ["x"]),
    "riesz mass off I, no samples": lambda: riesz_potential_sup(
        Measure.lebesgue(Interval(5, 6)), UNIT, F(1, 2), []),
    "power Ap p=1": lambda: power_weight_ap_bound(0, 1),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_parameter_is_a_library_error(case):
    with pytest.raises(ParamDomainError) as info:
        BAD[case]()
    assert isinstance(info.value, WtcError)


# values no owner takes as a number
NOT_NUMBERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "None": None, "x": "x",
               "1/0": "1/0"}


@pytest.mark.parametrize("value", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
def test_rat_refuses_what_is_no_finite_rational(value):
    with pytest.raises(ParamDomainError):
        rat(value)


WIDE = Measure.lebesgue(Interval(-1, 2))
HALVES = Partition(UNIT, (Interval(0, F(1, 2)), Interval(F(1, 2), 1)))

# every exponent the library takes, at a value v
EXPONENTS = {
    "avg_density alpha": lambda v: avg_density(WIDE, UNIT, v),
    "poisson alpha": lambda v: poisson(UNIT, WIDE, v),
    "ap_local p": lambda v: ap_local(WIDE, WIDE, UNIT, v),
    "ap_local alpha": lambda v: ap_local(WIDE, WIDE, UNIT, 2, v, "two_tailed"),
    "riesz alpha": lambda v: riesz_potential_sup(WIDE, UNIT, v, [F(1, 2)]),
    "power Ap alpha": lambda v: power_weight_ap_bound(v, 2),
    "power Ap p": lambda v: power_weight_ap_bound(0, v),
    "power weight alpha": lambda v: power_weight(v, UNIT, 2),
    "maximal p": lambda v: maximal_indicator_integral(WIDE, UNIT, v),
    "pivotal p": lambda v: pivotal_sum(WIDE, WIDE, UNIT, HALVES, v),
    "pivotal alpha": lambda v: pivotal_sum(WIDE, WIDE, UNIT, HALVES, 2, v),
    "dyadic p": lambda v: dyadic_maximal_integral(WIDE, WIDE, UNIT, v, 4),
    "sawyer p": lambda v: sawyer_ratio(WIDE, WIDE, UNIT, v, 4),
}
BAD_EXPONENTS = {**NOT_NUMBERS, "True": True, "10**400": 10 ** 400}


@pytest.mark.parametrize("value", list(BAD_EXPONENTS.values()), ids=list(BAD_EXPONENTS))
@pytest.mark.parametrize("exponent", sorted(EXPONENTS))
def test_exponent_outside_its_owner_refused(exponent, value):
    with pytest.raises(ParamDomainError):
        EXPONENTS[exponent](value)


@pytest.mark.parametrize("exponent, whole_value", [
    ("maximal p", 2), ("pivotal p", 2), ("poisson alpha", 0), ("avg_density alpha", 0)])
def test_whole_exponent_is_exact_by_value(exponent, whole_value):
    # 2 and Fraction(2) are one whole number: the same exact value; a float
    # runs in floats
    f = EXPONENTS[exponent]
    got, as_fraction = f(whole_value), f(F(whole_value))
    assert type(got) is type(as_fraction) is F and got == as_fraction
    assert type(f(float(whole_value))) is float


@pytest.mark.parametrize("p", [0, -3, F(-1, 2), 0.0])
def test_maximal_integral_refuses_p_not_above_zero(p):
    with pytest.raises(ParamDomainError):
        maximal_indicator_integral(WIDE, UNIT, p)


@pytest.mark.parametrize("kernel", ["maximal p", "pivotal p", "dyadic p", "sawyer p"])
def test_exact_kernel_refuses_p_past_its_budget_at_once(kernel):
    start = time.perf_counter()
    with pytest.raises(ParamDomainError, match="exponent p "):
        EXPONENTS[kernel](10 ** 400)
    assert time.perf_counter() - start < 1


def test_power_budget_refuses_above_p_two_only():
    # the cascade's 19,683 pieces hold about 180,000 bits of distances to a
    # middle interval: past the budget from p = 7, never at p = 2
    mu, middle = gks_cascade(F(1, 4), 9), Interval(F(1, 3), F(2, 3))
    assert maximal_indicator_integral(mu, middle, 2) > 0
    assert maximal_indicator_integral(mu, middle, 6) > 0
    with pytest.raises(ParamDomainError):
        maximal_indicator_integral(mu, middle, 7)


@pytest.mark.parametrize("depth", [16, 24, 10 ** 9])
def test_deep_partitions_refused_at_once(depth):
    # the count's bit length doubles per level: it is never built in full
    start = time.perf_counter()
    with pytest.raises(FamilyTooLargeError) as info:
        partitions(UNIT, 2, depth)
    assert time.perf_counter() - start < 1
    assert len(str(info.value)) < 100


SCAN = ScanFamily(UNIT, -2, 0)

# every call that takes a concentric dilation factor, at a factor it refuses
BAD_FACTORS = {
    "interval 0": lambda: UNIT.dilate(0),
    "interval -1/2": lambda: UNIT.dilate(F(-1, 2)),
    "interval nan": lambda: UNIT.dilate(math.nan),
    "endpoints -3": lambda: SCAN.endpoints(-3),
    "doubling 0": lambda: doubling_constant(LEB, SCAN, 0),
    # each dilate's ends pass float range, where the screen floats them
    "doubling 10**400": lambda: doubling_constant(LEB, SCAN, 10 ** 400),
    "measure 0": lambda: LEB.dilate(0),
}


def test_screen_origin_refused_naming_it():
    # a kind passed where the origin goes never reaches the position columns
    lo, hi = np.array([0.0]), np.array([1.0])
    for call in (lambda: LEB.float_data(F(1, 2)), lambda: LEB.float_data(1.0),
                 lambda: _tail_many(LEB, lo, hi, 2, "classical"),
                 lambda: ap_local_many(LEB, LEB, lo, hi, "classical")):
        with pytest.raises(ParamDomainError, match="^origin "):
            call()
    with pytest.raises(TypeError):
        ap_local_many(LEB, LEB, lo, hi, 0, "classical")


@pytest.mark.parametrize("case", list(BAD_FACTORS))
def test_dilation_factor_refused_naming_it(case):
    # a factor <= 0 once reached Interval as a degenerate interval, and
    # 10**400 raised a bare OverflowError from the screen
    with pytest.raises(ParamDomainError, match="^dilation factor ") as info:
        BAD_FACTORS[case]()
    assert len(str(info.value)) < 200


def test_partitions_check_before_enumerating():
    # the checks run at the call, not at the first item drawn
    assert len(list(partitions(UNIT, 2, F(4, 2)))) == 5
    with pytest.raises(ParamDomainError):
        partitions(UNIT, 2, F(1, 2))


HUGE = 10 ** 5000        # past Python's int-string digit limit

# a call given a number too long to print, and the error it raises
HUGE_CASES = {
    "whole +": (lambda: whole(HUGE, "depth", 0, 13), ParamDomainError),
    "whole -": (lambda: whole(-HUGE, "depth"), ParamDomainError),
    "interval lo": (lambda: Interval(HUGE, 1), ParamDomainError),
    "interval hi": (lambda: Interval(1, -HUGE), ParamDomainError),
    "atom mass": (lambda: Atom(0, -HUGE), ParamDomainError),
    "piece density": (lambda: StepPiece(UNIT, -HUGE), ParamDomainError),
    "scan levels": (lambda: ScanFamily(UNIT, HUGE, 0), ParamDomainError),
    "scan level count": (lambda: ScanFamily(UNIT, -HUGE, 0).blocks(), FamilyTooLargeError),
    "scan candidate count": (lambda: ScanFamily(Interval(0, HUGE), 0, 0).blocks(),
                             FamilyTooLargeError),
    "partitions depth +": (lambda: partitions(UNIT, 2, HUGE), FamilyTooLargeError),
    "partitions depth -": (lambda: partitions(UNIT, 2, -HUGE), ParamDomainError),
    "pivotal_sup depth +": (lambda: pivotal_sup(LEB, LEB, UNIT, HUGE), FamilyTooLargeError),
    "pivotal_sup depth -": (lambda: pivotal_sup(LEB, LEB, UNIT, -HUGE), ParamDomainError),
    "stopping K": (lambda: stopping_cubes(LEB, UNIT, -HUGE, 4), ParamDomainError),
    "stopping depth": (lambda: stopping_cubes(LEB, UNIT, 8, -HUGE), ParamDomainError),
    "claim size +": (lambda: REGISTRY["cp-not-ainfty"].check_scale(HUGE), CapExceededError),
    "claim size -": (lambda: REGISTRY["cp-not-ainfty"].check_scale(-HUGE), ScaleDomainError),
    "claim size fraction": (lambda: REGISTRY["cp-not-ainfty"].check_scale(F(HUGE + 1, 2)),
                            ScaleDomainError),
    "cascade delta": (lambda: gks_cascade(HUGE, 2), ParamDomainError),
    "cascade depth": (lambda: gks_cascade(F(1, 4), -HUGE), ParamDomainError),
    "cp delta1": (lambda: cp_weight(delta1=HUGE), ParamDomainError),
    "cp delta2": (lambda: cp_weight(delta2=-HUGE), ParamDomainError),
    "power alpha": (lambda: power_weight(-HUGE, UNIT, 2), ParamDomainError),
    "power alpha near -1": (lambda: power_weight(F(-HUGE - 1, HUGE), UNIT, 2),
                            NonIntegrableError),
    "maximal p": (lambda: maximal_indicator_integral(WIDE, UNIT, F(-1, HUGE)),
                  ParamDomainError),
    "riesz sample": (lambda: riesz_potential_sup(LEB, UNIT, F(1, 2), [HUGE]),
                     ParamDomainError),
}


@pytest.mark.parametrize("case", list(HUGE_CASES))
def test_number_too_long_to_print_refused_with_a_short_message(case):
    # such a number is named by its size: printing it would raise a bare
    # ValueError from the int-string digit limit
    call, error = HUGE_CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and len(str(info.value)) < 200


def test_stage_depth_search_stops_at_the_cascade_bound():
    # a C_p stage deeper than gks_cascade builds is refused by the search,
    # naming the stage, not by the cascade's own depth check
    assert _pick_stage_depth(F(1, 10), 5) == 13
    with pytest.raises(StageOverflowError, match=r"2\^-5"):
        _pick_stage_depth(F(1, 9), 5)


# the one bare ValueError left: an Expectation kind no registry entry uses,
# a programming error rather than an input
ALLOWED_RAISES = {("claims.py", "_stat_verdict", "ValueError")}


def bare_raises():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                exc = node.exc if isinstance(node, ast.Raise) else None
                exc = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.add((path.name, func.name, exc.id))
    return found


def test_no_bare_value_or_type_error():
    assert bare_raises() == ALLOWED_RAISES
