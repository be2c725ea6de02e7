"""The value records (`measure.Record` subclasses) keep the semantics they
had as frozen dataclasses: the repr ``Name(field=value!r, ...)``, equality
with their own class only (never with a tuple of their fields), one hash for
equal values, assignment refused, pickling, and fresh mutable defaults."""

import pickle
from fractions import Fraction as F

import pytest

from wtc.claims import CAPPED, ClaimReport, ClaimSpec, Expectation, StatResult
from wtc.constructions import ConstructionOutput, StageWitness
from wtc.functionals import DoublingScan, RieszReport
from wtc.grid import Partition, ScanBlock, ScanFamily, StoppingForest
from wtc.measure import Atom, Interval, Measure, StepPiece
from wtc.report import ReportRow

U = Interval(0, 1)
HALF = "Interval(lo=Fraction(0, 1), hi=Fraction(1, 2))"
UNIT = "Interval(lo=Fraction(0, 1), hi=Fraction(1, 1))"


# a ClaimSpec's size step and evaluator, at module level so that they pickle
def _twice(size):
    return 2 * size


def _evaluate(size):
    return [StatResult("s", size)]


CAP = Expectation(CAPPED, cap=1.0)
CAP_TEXT = "Expectation(kind='CAPPED', slack=None, min_growth=None, cap=1.0, floor=None)"
ROW = ReportRow("c", 1, "s", 0.5, 1.0, "PASS")
ROW_TEXT = ("ReportRow(claim='c', param=1, statistic='s', value=0.5, bound=1.0, "
            "verdict='PASS')")

# (build, its repr, its field names); the records with a dict or list field
# have no hash
CASES = {
    "Interval": (lambda: Interval(0, F(1, 2)), HALF, "lo hi"),
    "Atom": (lambda: Atom(F(1, 2), 2), "Atom(x=Fraction(1, 2), mass=Fraction(2, 1))", "x mass"),
    "StepPiece": (lambda: StepPiece(U, 3),
                  f"StepPiece(support={UNIT}, density=Fraction(3, 1))", "support density"),
    "ScanFamily": (lambda: ScanFamily(U, -2, 0),
                   f"ScanFamily(window={UNIT}, min_level=-2, max_level=0, base=2, shifts=1)",
                   "window min_level max_level base shifts"),
    "ScanBlock": (lambda: ScanBlock(0, 3, 1, 2, 9),
                  "ScanBlock(start=0, n=3, num0=1, step=2, den=9)", "start n num0 step den"),
    "Partition": (lambda: Partition(U, (Interval(0, F(1, 2)), Interval(F(1, 2), 1))),
                  f"Partition(parent={UNIT}, cells=({HALF}, "
                  "Interval(lo=Fraction(1, 2), hi=Fraction(1, 1))))", "parent cells"),
    "StoppingForest": (lambda: StoppingForest(root=U, snapped=False, threshold_base=F(2),
                                              levels={}, truncated=[], depth_exhausted=False),
                       f"StoppingForest(root={UNIT}, snapped=False, threshold_base="
                       "Fraction(2, 1), levels={}, truncated=[], depth_exhausted=False)",
                       "root snapped threshold_base levels truncated depth_exhausted"),
    "DoublingScan": (lambda: DoublingScan(F(3), U, (Interval(1, 2),)),
                     f"DoublingScan(value=Fraction(3, 1), witness={UNIT}, "
                     "skipped=(Interval(lo=Fraction(1, 1), hi=Fraction(2, 1)),))",
                     "value witness skipped"),
    "RieszReport": (lambda: RieszReport(1.5, 0.75, F(1, 3)),
                    "RieszReport(sup=1.5, normalized=0.75, witness=Fraction(1, 3))",
                    "sup normalized witness"),
    "StageWitness": (lambda: StageWitness(1, 2, 3, Interval(F(-1, 2), F(1, 2)), F(1, 4),
                                          F(1, 9)),
                     "StageWitness(k=1, n=2, i=3, il0=Interval(lo=Fraction(-1, 2), "
                     "hi=Fraction(1, 2)), e_mass_fraction=Fraction(1, 4), "
                     "e_size_fraction=Fraction(1, 9))",
                     "k n i il0 e_mass_fraction e_size_fraction"),
    "ConstructionOutput": (lambda: ConstructionOutput(Measure.lebesgue(U)),
                           "ConstructionOutput(measure=Measure(atoms=0, pieces=1), "
                           "witnesses={})", "measure witnesses"),
    "ReportRow": (lambda: ReportRow("c", 1, "s", 0.5, None, "PASS"),
                  "ReportRow(claim='c', param=1, statistic='s', value=0.5, bound=None, "
                  "verdict='PASS')", "claim param statistic value bound verdict"),
    "Expectation": (lambda: Expectation(CAPPED, cap=1.0), CAP_TEXT,
                    "kind slack min_growth cap floor"),
    "StatResult": (lambda: StatResult("s", F(1, 2), U),
                   f"StatResult(name='s', value=0.5, witness={UNIT})", "name value witness"),
    "ClaimSpec": (lambda: ClaimSpec("c", "a claim", "N", 2, _twice, 1, 8, _evaluate,
                                    {"s": CAP}),
                  f"ClaimSpec(id='c', summary='a claim', scale_name='N', default_scale=2, "
                  f"next_scale={_twice!r}, min_scale=1, max_scale=8, evaluate={_evaluate!r}, "
                  f"expectations={{'s': {CAP_TEXT}}})",
                  "id summary scale_name default_scale next_scale min_scale max_scale "
                  "evaluate expectations"),
    "ClaimReport": (lambda: ClaimReport("c", (ROW,), True, {(1, "s"): U}),
                    f"ClaimReport(claim_id='c', rows=({ROW_TEXT},), passed=True, "
                    f"witnesses={{(1, 's'): {UNIT}}})", "claim_id rows passed witnesses"),
}
UNHASHABLE = {"StoppingForest", "ConstructionOutput", "ClaimSpec", "ClaimReport"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    build, text, fields = CASES[name]
    a, b = build(), build()
    assert repr(a) == text
    assert a == b and not a != b
    values = tuple(getattr(a, f) for f in fields.split())
    assert a != values and values != a
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    first = fields.split()[0]
    with pytest.raises(AttributeError):
        setattr(a, first, values[1])
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert a == b


def test_records_of_different_classes_differ():
    # equal field values, different classes
    assert Atom(1, 2) != Interval(1, 2) and Interval(1, 2) != Atom(1, 2)


def test_mutable_defaults_are_fresh():
    one, two = CASES["ConstructionOutput"][0](), CASES["ConstructionOutput"][0]()
    assert one.witnesses is not two.witnesses
    one, two = ClaimReport("c", (), True), ClaimReport("c", (), True)
    assert one.witnesses == {} and one.witnesses is not two.witnesses



def test_scan_family_keeps_its_caches_and_takes_a_class_patch():
    # perfbench's tracer replaces ScanFamily.intervals on the class
    fam = ScanFamily(U, -1, 0)
    original = ScanFamily.intervals
    try:
        ScanFamily.intervals = lambda self: iter(())
        assert list(fam.intervals()) == []
    finally:
        ScanFamily.intervals = original
    assert len(list(fam.intervals())) == fam.count()
    assert fam.endpoints() is fam.endpoints() and fam.origin == 0
