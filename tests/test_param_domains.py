"""Every library parameter is checked where it is consumed: a count, depth,
level or integer exponent through `measure.whole`, and every value outside
its domain raises `ParamDomainError`, a `WtcError`."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from wtc import Interval, Measure, WtcError
from wtc.constructions import (
    _pick_stage_depth,
    cp_weight,
    gks_cascade,
    pivotal_example_pair,
    power_weight,
    thm5_part1_pair,
    thm5_part2_pair,
)
from wtc.errors import ParamDomainError, StageOverflowError
from wtc.functionals import dyadic_maximal_integral, power_weight_ap_bound, riesz_potential_sup
from wtc.grid import Partition, ScanFamily, partitions, stopping_cubes
from wtc.measure import whole

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
    "power Ap p=1": lambda: power_weight_ap_bound(0, 1),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_bad_parameter_is_a_library_error(case):
    with pytest.raises(ParamDomainError) as info:
        BAD[case]()
    assert isinstance(info.value, WtcError)


def test_partitions_check_before_enumerating():
    # the checks run at the call, not at the first item drawn
    assert len(list(partitions(UNIT, 2, F(4, 2)))) == 5
    with pytest.raises(ParamDomainError):
        partitions(UNIT, 2, F(1, 2))


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
