"""Claim registry: each entry re-derives one implication or counterexample.

A claim bundles a construction, a handful of named statistics, and an
expectation for how each statistic behaves when the size parameter grows.
Infinite suprema are reported as DIVERGENT trends (growth ratio above a
per-claim floor between two sizes); finite ones as BOUNDED (two-sided
stability within a slack factor), optionally with a hard cap.  Pointwise
inequalities use CAPPED/FLOOR.  Probe entries carry no expectation and
always report INCONCLUSIVE.

One routine, `_stat_verdict`, judges every statistic, for both `wtc verify`
and `wtc sweep`: `run_claim` judges it from its values at two sizes, and
`sweep` at one size, where the BOUNDED and DIVERGENT trends read NA.  A
report row's bound is its expectation's cap, else its floor.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice
from operator import length_hint
from typing import Callable

from .constructions import (
    CASCADE_MAX_DEPTH,
    CP_MAX_STAGES,
    PIVOTAL_MAX_ATOMS,
    THM5_PART1_MAX_STAGES,
    cp_weight,
    gks_cascade,
    lebesgue_on,
    pivotal_example_pair,
    power_weight,
    thm5_part1_pair,
    thm5_part2_pair,
)
from .errors import CapExceededError, ScaleDomainError, UnknownClaimError
from .functionals import (
    _tail_many,
    ap_local_many,
    ap_local_squared,
    doubling_constant,
    dyadic_maximal_integral,
    energy_e2,
    energy_e2_many,
    maximal_indicator_integral,
    pivotal_sums,
    pivotal_sup,
    power_weight_ap_bound,
    reverse_doubling_constant,
    riesz_potential_sup,
    sawyer_ratio,
    sup_over_family,
)
from .grid import MAX_CANDIDATES, ScanFamily, first_best, partitions, stopping_cubes
from .measure import Interval, Measure, Record, _canonicalize, is_whole, rat, shown
from .report import ReportRow

BOUNDED = "BOUNDED"
DIVERGENT = "DIVERGENT"
CAPPED = "CAPPED"
FLOOR = "FLOOR"
FINITE = "FINITE"
REPORT = "REPORT"

_REL_EPS = 1e-9


class Expectation(Record):
    __slots__ = ("kind", "slack", "min_growth", "cap", "floor")

    def __init__(self, kind: str,
                 slack: float | None = None,       # BOUNDED: two-sided stability factor
                 min_growth: float | None = None,  # DIVERGENT: growth floor between sizes
                 cap: float | None = None,         # CAPPED (or extra pointwise cap)
                 floor: float | None = None):      # FLOOR
        self._set(kind, slack, min_growth, cap, floor)

    @property
    def bound(self) -> float | None:
        """The bound a report row shows: the cap, else the floor."""
        return self.floor if self.cap is None else self.cap


class StatResult(Record):
    __slots__ = ("name", "value", "witness")

    def __init__(self, name: str, value, witness: object = None):
        # the value is given exactly where rational, floated once here
        self._set(name, float(value), witness)


class ClaimSpec(Record):
    __slots__ = ("id", "summary", "scale_name", "default_scale", "next_scale", "min_scale",
                 "max_scale", "evaluate", "expectations")

    def __init__(self, id: str, summary: str, scale_name: str, default_scale,
                 next_scale: Callable[[object], object],
                 min_scale,  # None: no least size
                 max_scale, evaluate: Callable[[object], list[StatResult]],
                 expectations: dict):
        self._set(id, summary, scale_name, default_scale, next_scale, min_scale, max_scale,
                  evaluate, expectations)

    def check_scale(self, v):
        """Return size v in the form the evaluator takes: an int when the
        default size is one, else a Fraction.  Raise ScaleDomainError unless
        the construction accepts v (integral when the default size is, at
        least min_scale), CapExceededError when v exceeds max_scale, and
        ParamDomainError, through `rat`, when v is no finite rational."""
        if isinstance(self.default_scale, int):
            if not is_whole(v):
                raise ScaleDomainError(f"{self.id}: size {shown(v)} is not an integer")
            v = int(v)
        else:
            v = rat(v, f"{self.id}: size")
        if self.min_scale is not None and v < self.min_scale:
            raise ScaleDomainError(
                f"{self.id}: size {shown(v)} is below the least size {self.min_scale}")
        if v > self.max_scale:
            raise CapExceededError(f"{self.id}: size {shown(v)} exceeds cap {self.max_scale}")
        return v


class ClaimReport(Record):
    __slots__ = ("claim_id", "rows", "passed", "witnesses")

    def __init__(self, claim_id: str, rows: tuple[ReportRow, ...], passed: bool,
                 witnesses: dict | None = None):
        self._set(claim_id, rows, passed, {} if witnesses is None else witnesses)

    @property
    def overall(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _stat_verdict(exp: Expectation, values) -> tuple[str, bool]:
    """Judge one statistic from its values at the sizes run, None where a
    size gave no value: two sizes for run_claim, one for sweep, where the
    BOUNDED and DIVERGENT trends cannot be judged and read NA."""
    if exp.kind == REPORT:
        return "INCONCLUSIVE", True
    vals = [v for v in values if v is not None]
    if exp.kind == FINITE:
        ok = bool(vals) and all(math.isfinite(v) for v in vals)
        return ("FINITE" if ok else "INFINITE"), True
    if exp.kind == CAPPED:
        ok = bool(vals) and all(v <= exp.cap * (1 + _REL_EPS) for v in vals)
        return ("PASS" if ok else "FAIL"), ok
    if exp.kind == FLOOR:
        ok = bool(vals) and all(v >= exp.floor * (1 - _REL_EPS) for v in vals)
        return ("PASS" if ok else "FAIL"), ok
    if len(values) == 1:
        return "NA", True
    if len(vals) < 2:
        return "FAIL", False
    v1, v2 = vals
    if exp.kind == BOUNDED:
        ok = exp.cap is None or max(v1, v2) <= exp.cap * (1 + _REL_EPS)
        if ok:
            lo, hi = min(v1, v2), max(v1, v2)
            ok = hi == 0 or (lo > 0 and hi / lo <= exp.slack * (1 + _REL_EPS))
        return ("BOUNDED" if ok else "FAIL"), ok
    if exp.kind == DIVERGENT:
        ok = v1 > 0 and v2 / v1 >= exp.min_growth * (1 - _REL_EPS)
        return ("DIVERGENT" if ok else "FAIL"), ok
    raise ValueError(f"unknown expectation kind {exp.kind!r}")


def _point_verdict(exp: Expectation, v) -> str:
    """A sweep row's verdict: the statistic judged at its one size."""
    return _stat_verdict(exp, [v])[0]


def get_claim(claim_id: str) -> ClaimSpec:
    try:
        return REGISTRY[claim_id]
    except KeyError:
        raise UnknownClaimError(f"no claim registered under {claim_id!r}") from None


def run_claim(claim_id: str, scale=None) -> ClaimReport:
    spec = get_claim(claim_id)
    s1 = spec.check_scale(spec.default_scale if scale is None else scale)
    s2 = spec.next_scale(s1)
    if s2 == s1:
        raise ScaleDomainError(
            f"{claim_id}: size {shown(s1)} gives the same next size, so no trend can be judged")
    s2 = spec.check_scale(s2)
    found = [{s.name: s for s in spec.evaluate(size)} for size in (s1, s2)]
    rows = []
    witnesses = {}
    passed = True
    for name, exp in spec.expectations.items():
        stats = [f.get(name) for f in found]
        values = [None if s is None else s.value for s in stats]
        verdict, ok = _stat_verdict(exp, values)
        passed = passed and ok
        # a size that gave no such statistic still gets its row, value None
        for size, stat, value in zip((s1, s2), stats, values):
            rows.append(ReportRow(claim_id, size, name, value, exp.bound, verdict))
            if stat is not None and stat.witness is not None:
                witnesses[(size, name)] = stat.witness
    return ClaimReport(claim_id, tuple(rows), passed, witnesses)


def sweep(claim_id: str, values) -> list[ReportRow]:
    """One row-block per parameter value, judged at that size alone.  Every
    value is checked against the claim's size domain, and their count
    against grid.MAX_CANDIDATES, before the first one is evaluated; sized
    values are counted undrawn, others drawn at most one past the cap."""
    spec = get_claim(claim_id)
    if length_hint(values) <= MAX_CANDIDATES:
        values = [spec.check_scale(v) for v in islice(values, MAX_CANDIDATES + 1)]
    if length_hint(values) > MAX_CANDIDATES:
        raise CapExceededError(f"{claim_id}: more than {MAX_CANDIDATES} sweep values")
    rows = []
    for v in values:
        found = {s.name: s for s in spec.evaluate(v)}
        for name, exp in spec.expectations.items():
            if name in found:
                value = found[name].value
                rows.append(ReportRow(claim_id, v, name, value, exp.bound,
                                      _point_verdict(exp, value)))
    return rows


# --------------------------------------------------------------------------
# shared corpus helpers

def random_compact_measure(rng: random.Random, allow_atoms: bool = True) -> Measure:
    """Random rational measure in [-2, 2]: a few steps on the 1/8 lattice, maybe an atom."""
    q = 8
    lo_t, hi_t = -2 * q, 2 * q
    lo, hi, density, ax, am = [], [], [], [], []
    for _ in range(rng.randint(1, 3)):
        lo.append(rng.randint(lo_t, hi_t - 1))
        hi.append(rng.randint(lo[-1] + 1, hi_t))
        density.append(rng.randint(1, 16))
    if allow_atoms and rng.random() < 1 / 3:
        ax, am = [rng.randint(lo_t, hi_t)], [rng.randint(1, 8)]
    # positions over q, densities and masses over 4; overlapping steps add up
    return Measure._make(*_canonicalize(q, ax, am, 4, lo, hi, density, 4, add=True))


def _ap_sup(omega, sigma, kind, family):
    """Sup over the family of the squared local Ap quantity (p = 2,
    alpha = 0), exact: `ap_local_squared` certifies what the square of
    `ap_local_many` screens."""
    return sup_over_family(
        lambda cand: ap_local_squared(omega, sigma, cand, kind), family,
        lambda fam: ap_local_many(omega, sigma, *fam.endpoints(), kind=kind) ** 2)


def _min_dual_recovery(omega, sigma, family):
    """Min over the family of the squared ratio of the best triadic-dilate
    dual one-tailed value to the two-tailed value, exact, skipping
    candidates where the latter is 0, negated with its witness: the min
    search is sup_over_family's max search.  (None, None) when every
    candidate is skipped."""
    def functional(cand):
        t2 = ap_local_squared(omega, sigma, cand, "two_tailed")
        if t2 <= 0:
            return None
        dual = max(ap_local_squared(omega, sigma, cand.dilate(3 ** j), "one_tailed_dual")
                   for j in range(8))
        return -(dual / t2)

    def screen(fam):
        import numpy as np

        t2 = ap_local_many(omega, sigma, *fam.endpoints(), kind="two_tailed") ** 2
        # the eight dilates in one call: block j of the joined arrays holds the 3^j-dilates
        lo, hi = (np.concatenate(ends) for ends in
                  zip(*(fam.endpoints(3 ** j)[:2] for j in range(8))))
        dual = ap_local_many(omega, sigma, lo, hi, fam.origin, kind="one_tailed_dual")
        return -(dual.reshape(8, -1).max(axis=0) ** 2) / t2

    return sup_over_family(functional, family, screen)


def _doubling_corpus(depth: int = 5) -> list[Measure]:
    """Ten weights whose measured factor-3 doubling constants sit below 9."""
    steps = Measure.from_steps([(0, 1, 1), (1, 2, 3), (2, 3, 1)])
    return [
        lebesgue_on(Interval(0, 1)),
        lebesgue_on(Interval(-1, 1), 2),
        gks_cascade(Fraction(1, 4), depth),
        gks_cascade(Fraction(1, 5), depth),
        gks_cascade(Fraction(2, 7), depth),
        gks_cascade(Fraction(3, 10), depth),
        power_weight(Fraction(1, 2), Interval(-2, 2), depth),
        power_weight(Fraction(-1, 2), Interval(-2, 2), depth),
        power_weight(Fraction(1, 4), Interval(-2, 2), depth),
        steps,
    ]


# --------------------------------------------------------------------------
# claim evaluators

# ap-not-t1's cap: twice its pair's largest stage bound, at i = 3; and
# cp-not-ainfty's deltas and its cap 9/min(delta1, delta2) on doubling
_AP_NOT_T1_CAP = 2 * max((4 ** (i + 1) - 1) / (3 * (2 ** (i - 1) - 2) ** 2)
                         for i in range(3, 12))
_CP_DELTAS = (Fraction(1, 6), Fraction(1, 18))
_CP_DOUBLING_CAP = float(9 / min(_CP_DELTAS))


def _eval_ap_not_t1(K):
    """Classical stays under 2M while both tailed quantities climb stage by
    stage at the unit blocks."""
    omega, sigma, wit = thm5_part1_pair(K)
    sups = [(None, 0)]
    for k in range(1, K + 1):
        c = Fraction(100) ** k
        for center in (c, -c):
            window = Interval(center - 2 ** (k + 1), center + 2 ** (k + 1) + 1)
            fam = ScanFamily(window, 0, k + 2, base=2, shifts=3)
            v, w_ = _ap_sup(omega, sigma, "classical", fam)
            sups.append((w_, v))
    best, best_wit = first_best(sups)
    stats = [StatResult("classical_sq_sup", best, witness=best_wit)]
    t1 = [ap_local_squared(omega, sigma, blk, "one_tailed") for blk in wit["blocks"]]
    duals = [Interval(-(Fraction(100) ** k), -(Fraction(100) ** k) + 1)
             for k in range(1, K + 1)]
    t1d = [ap_local_squared(omega, sigma, blk, "one_tailed_dual") for blk in duals]
    if K >= 2:
        stats.append(StatResult("t1_sq_increment_min",
                                min(b - a for a, b in zip(t1, t1[1:])),
                                witness=wit["blocks"][-1]))
        stats.append(StatResult("t1_dual_sq_increment_min",
                                min(b - a for a, b in zip(t1d, t1d[1:])),
                                witness=duals[-1]))
    return stats


def _eval_t1_not_t2(N):
    """One-tailed sup saturates near 1/3; the two-tailed value at [0,1] is N/2."""
    omega, sigma = thm5_part2_pair(N)
    fam = ScanFamily(Interval(0, 2 ** (N + 1)), 0, N + 1, base=2, shifts=3)
    v, w_ = _ap_sup(omega, sigma, "one_tailed", fam)
    unit = Interval(0, 1)
    t2 = ap_local_squared(omega, sigma, unit, "two_tailed")
    return [StatResult("t1_sq_sup", v, witness=w_),
            StatResult("t2_sq_at_unit", t2, witness=unit)]


def _eval_t2_equiv_t1(n_pairs):
    """For every scanned I, some triadic dilate J recovers a fixed fraction of
    the two-tailed value through the dual one-tailed quantity."""
    rng = random.Random(0x5EED)
    fam = ScanFamily(Interval(-2, 2), -3, 1, base=2, shifts=2)
    negs = [(None, -math.inf)]
    for _ in range(n_pairs):
        omega = random_compact_measure(rng)
        sigma = random_compact_measure(rng)
        neg, wit = _min_dual_recovery(omega, sigma, fam)
        negs.append((wit, neg))
    neg, worst_wit = first_best(negs)
    return [StatResult("min_witness_ratio", math.sqrt(-neg), witness=worst_wit)]


def _eval_doubling_ap_equiv(r):
    """Doubling power-weight pair: two-tailed sup within a fixed factor of the
    classical sup."""
    omega = power_weight(Fraction(1, 2), Interval(-4, 4), r)
    sigma = power_weight(Fraction(-1, 2), Interval(-4, 4), r)
    fam = ScanFamily(Interval(-2, 2), -6, 1, base=2, shifts=3)
    cl, cl_w = _ap_sup(omega, sigma, "classical", fam)
    t2, t2_w = _ap_sup(omega, sigma, "two_tailed", fam)
    return [StatResult("classical_sup", math.sqrt(cl), witness=cl_w),
            StatResult("two_tailed_sup", math.sqrt(t2), witness=t2_w),
            StatResult("t2_to_classical", math.sqrt(t2 / cl))]


def _eval_cp_not_ainfty(K):
    """Doubling stays capped and the mass-concentration witness doubles per
    stage, while the normalized small-set maximal ratio stays stable."""
    built = cp_weight(2, *_CP_DELTAS, K=K)
    w = built.measure
    stages = built.witnesses["stages"]
    c = stages[-1].il0.midpoint
    fam = ScanFamily(Interval(c - 5, c + 5), -3, 2, base=3, shifts=3)
    dbl = doubling_constant(w, fam, 3)
    ratio_min = min(sw.e_mass_fraction / sw.e_size_fraction / 2 ** (sw.k - 1)
                    for sw in stages)
    cp_sup, cp_wit = first_best((sw.il0, sw.e_mass_fraction * w.mass(sw.il0) / sw.e_size_fraction
                                 / maximal_indicator_integral(w, sw.il0, 2)) for sw in stages)
    return [StatResult("doubling3_sup", dbl.value, witness=dbl.witness),
            StatResult("ainfty_witness_ratio_min", ratio_min, witness=stages[-1].il0),
            StatResult("cp_ratio_sup", cp_sup, witness=cp_wit)]


def _eval_cp_smalldoubling(r):
    """Weights with factor-3 doubling below 9: the maximal-indicator integral
    normalized by the geometric series bound stays below one.  The size
    parameter refines the corpus; the scan family is held fixed so that the
    statistic measures the weights, not the scan."""
    sups = [(None, 0)]
    for w in _doubling_corpus(depth=r + 2):
        hull = w.support()
        dbl_fam = ScanFamily(hull, -4, 0, base=3, shifts=2)
        c_w = doubling_constant(w, dbl_fam, 3).value
        if c_w >= 9:
            continue
        series = 36 / (1 - c_w / 9)
        scan = ScanFamily(hull, -4, 0, base=3, shifts=1)

        def normalized(cand):
            wm = w.mass(cand)
            if wm == 0:
                return None
            return maximal_indicator_integral(w, cand, 2) / wm / series

        def screen(fam):
            lo, hi, origin = fam.endpoints()
            return _tail_many(w, lo, hi, 2, origin) / (w.mass_many(lo, hi, origin)
                                                       * float(series))

        val, wit = sup_over_family(normalized, scan, screen)
        sups.append((wit, val))
    worst, worst_wit = first_best(sups)
    return [StatResult("normalized_mii_sup", worst, witness=worst_wit)]


def _eval_sawyer_ainfty(depth):
    """Dyadic testing ratios converge for absolutely continuous sigma and
    blow up for an atom."""
    leb = lebesgue_on(Interval(0, 1))
    pw = power_weight(Fraction(1, 2), Interval(0, 2), 6)
    leb2 = lebesgue_on(Interval(0, 2))
    probes = [Interval(0, 1), Interval(0, Fraction(1, 2)),
              Interval(Fraction(1, 4), Fraction(3, 4))]
    s_leb = max(sawyer_ratio(leb, leb, cand, 2, depth) for cand in probes)
    s_pw = max(sawyer_ratio(leb2, pw, cand, 2, depth) for cand in probes)
    s_atom = sawyer_ratio(leb, Measure.point_mass(Fraction(1, 3), 1), Interval(0, 1), 2, depth)
    return [StatResult("sawyer_sup_lebesgue", s_leb),
            StatResult("sawyer_sup_powerweight", s_pw),
            StatResult("sawyer_atom", s_atom)]


def _eval_ainfty_pivotal(depth):
    """Stopping-cube mass stays under 2 sigma(I) and every partition's pivotal
    sum sits under the dyadic-maximal bound; an atomic sigma breaks both."""
    leb = lebesgue_on(Interval(0, 1))
    pw = power_weight(Fraction(1, 2), Interval(0, 1), 6)
    unit = Interval(0, 1)
    stop = max(stopping_cubes(s, unit, 8, depth).total() / s.mass(unit) for s in (leb, pw))
    pairs = [(leb, leb), (leb, pw), (gks_cascade(Fraction(1, 4), 4), leb)]
    ratios = [(None, 0)]
    for omega, sigma in pairs:
        dmi, _ = dyadic_maximal_integral(sigma, omega, unit, 2,
                                         max_depth=min(depth, 10))
        ps, part = pivotal_sup(omega, sigma, unit, 3)
        ratios.append((part.cells[0], ps / (64 * dmi / sigma.mass(unit))))
    worst, worst_wit = first_best(ratios)
    atom_total = stopping_cubes(Measure.point_mass(Fraction(1, 3), 1), unit, 2, depth).total()
    return [StatResult("stopping_mass_ratio", stop),
            StatResult("pivotal_to_maximal_max", worst, witness=worst_wit),
            StatResult("stopping_atom_total", atom_total)]


def _energy_ratios(omega, sigma, parent, parts, plains):
    """Energy-weighted over plain pivotal sum (p = 2, exact) for each
    partition whose plain sum `plains` holds is positive, in order."""
    live = [(part, plain) for part, plain in zip(parts, plains) if plain > 0]
    withes = pivotal_sums(omega, sigma, parent, [part for part, _ in live], 2,
                          with_energy=True)
    return [withe / plain for (_, plain), withe in zip(live, withes)]


def _eval_pivotal_not_t1(N):
    """Pivotal sup stays near 1/2 while the one-tailed value at [0,1] follows
    the harmonic sum; the energy variant never exceeds half the plain sum."""
    omega, sigma = pivotal_example_pair(N)
    parent = Interval(-1, N + 1)
    parts = list(partitions(parent, 2, 3))
    plains = pivotal_sums(omega, sigma, parent, parts, 2)
    best, best_part = first_best([(None, 0), *zip(parts, plains)])
    energy_worst = max([0, *_energy_ratios(omega, sigma, parent, parts, plains)])
    unit = Interval(0, 1)
    t1 = ap_local_squared(omega, sigma, unit, "one_tailed")
    return [StatResult("pivotal_sup", best, witness=best_part.cells[0]),
            StatResult("t1_sq_at_unit", t1, witness=unit),
            StatResult("energy_pivotal_ratio_max", energy_worst)]


def _eval_energy_le_pivotal(n_pairs):
    """Per-partition energy-to-pivotal ratio never exceeds 1/2."""
    rng = random.Random(0xE4E557)
    parent = Interval(-2, 2)
    worst = 0
    pair_list = [pivotal_example_pair(10)]
    while len(pair_list) < n_pairs:
        omega = random_compact_measure(rng)
        sigma = random_compact_measure(rng)
        if sigma.mass(parent) == 0 or omega.mass(parent) == 0:
            continue
        pair_list.append((omega, sigma))
    parts = list(partitions(parent, 2, 2))
    for omega, sigma in pair_list:
        plains = pivotal_sums(omega, sigma, parent, parts, 2)
        worst = max([worst, *_energy_ratios(omega, sigma, parent, parts, plains)])
    return [StatResult("energy_pivotal_ratio_max", worst)]


def _eval_smalldoubling_pivotal(depth):
    """Pairs meeting K_sigma < 2^p (1+delta_omega): pivotal sums are controlled
    by the classical quantity."""
    unit = Interval(0, 1)
    pairs = [(lebesgue_on(unit), lebesgue_on(unit)),
             (gks_cascade(Fraction(1, 4), 5), gks_cascade(Fraction(3, 10), 5))]
    fam = ScanFamily(unit, -4, -1, base=3, shifts=2)
    margin = 0
    ratios = [(None, 0)]
    for omega, sigma in pairs:
        k_sigma = doubling_constant(sigma, fam, 2).value
        rev = reverse_doubling_constant(omega, fam, 2).value
        margin = max(margin, k_sigma / (4 * rev))
        ap_fam = ScanFamily(unit, -4, 0, base=2, shifts=2)
        apsq, _ = _ap_sup(omega, sigma, "classical", ap_fam)
        ps, part = pivotal_sup(omega, sigma, unit, depth)
        ratios.append((part.cells[0], ps / (10 * apsq)))
    conclusion, wit = first_best(ratios)
    return [StatResult("hypothesis_margin", margin),
            StatResult("pivotal_to_ap_max", conclusion, witness=wit)]


def _eval_gks_afrac(depth):
    """Cascade at delta = 1/4: the normalized fractional potential and both
    doubling constants settle as the depth grows."""
    mu = gks_cascade(Fraction(1, 4), depth)
    unit = Interval(0, 1)
    samples = [Fraction(i, 37) for i in range(1, 37)]
    riesz = riesz_potential_sup(mu, unit, 0.6, samples)
    fam = ScanFamily(unit, -5, -1, base=3, shifts=2)
    dbl = doubling_constant(mu, fam, 2)
    rev = reverse_doubling_constant(mu, fam, 2)
    return [StatResult("riesz_normalized", riesz.normalized, witness=riesz.witness),
            StatResult("doubling2", dbl.value, witness=dbl.witness),
            StatResult("reverse_doubling2", rev.value, witness=rev.witness)]


def _eval_doubling_energy_floor(r):
    """Doubling weights keep the normalized variance of every scanned interval
    above a fixed floor, so inserting the energy factor costs a constant."""
    corpus = [lebesgue_on(Interval(0, 1)),
              gks_cascade(Fraction(1, 4), 5),
              gks_cascade(Fraction(3, 10), 5),
              power_weight(Fraction(1, 2), Interval(-2, 2), 5)]
    # negated, so that the min search is a max search
    negs = [(None, -math.inf)]
    for w in corpus:
        hull = w.support()
        fam = ScanFamily(hull, -r, 0, base=3, shifts=2)
        neg, wit = sup_over_family(
            lambda cand: None if w.mass(cand) == 0 else -energy_e2(cand, w), fam,
            lambda fam: -energy_e2_many(w, *fam.endpoints()))
        negs.append((wit, neg))
    neg, worst_wit = first_best(negs)
    return [StatResult("energy_min", -neg, witness=worst_wit)]


def _eval_powerweight_ap(alpha):
    """One-weight comparison: the scanned constant brackets the closed form
    within a factor of 4 whenever the exponent is admissible."""
    finite, bound = power_weight_ap_bound(alpha, 2)
    stats = [StatResult("analytic_bound", bound if finite else math.inf)]
    if not finite:
        return stats
    omega = power_weight(alpha, Interval(-2, 2), 7)
    sigma = power_weight(-alpha, Interval(-2, 2), 7)
    fam = ScanFamily(Interval(-1, 1), -5, 0, base=2, shifts=2)
    sup, wit = _ap_sup(omega, sigma, "classical", fam)
    stats.append(StatResult("sup_to_bound", sup / bound, witness=wit))
    stats.append(StatResult("bound_to_sup", bound / sup if sup else math.inf,
                            witness=wit))
    return stats


def _eval_dual_pivotal_probe(N):
    """Open question: both pivotal directions against the one-tailed quantity.
    Reported without an expectation."""
    omega, sigma = pivotal_example_pair(N)
    parent = Interval(-1, N + 1)
    fwd, _ = pivotal_sup(omega, sigma, parent, 2)
    dual, _ = pivotal_sup(sigma, omega, parent, 2)
    t1 = ap_local_squared(omega, sigma, Interval(0, 1), "one_tailed")
    return [StatResult("pivotal_forward", fwd),
            StatResult("pivotal_dual", dual),
            StatResult("t1_sq_at_unit", t1)]


# --------------------------------------------------------------------------
# registry

REGISTRY: dict[str, ClaimSpec] = {s.id: s for s in [
    ClaimSpec("ap-not-t1",
              "classical two-weight constant bounded, both tailed ones divergent",
              "K", 3, lambda s: s + 1, 1, THM5_PART1_MAX_STAGES, _eval_ap_not_t1,
              {"classical_sq_sup": Expectation(BOUNDED, slack=1.05, cap=_AP_NOT_T1_CAP),
               # growth floor 0.8 per stage; the exact tail integral contributes
               # 1/2 per stage, so this floor records a known discrepancy
               "t1_sq_increment_min": Expectation(FLOOR, floor=0.8),
               "t1_dual_sq_increment_min": Expectation(FLOOR, floor=0.8)}),
    ClaimSpec("t1-not-t2",
              "one-tailed constant bounded, two-tailed divergent at the unit interval",
              # at 3 shifts the family has 3 * 2^(N+2) + 2N + 1 candidates:
              # 196,637 at N = 14, 393,247 at 15, past grid.MAX_CANDIDATES
              "N", 6, lambda s: 2 * s, 1, 14, _eval_t1_not_t2,
              {"t1_sq_sup": Expectation(BOUNDED, slack=1.05),
               "t2_sq_at_unit": Expectation(DIVERGENT, min_growth=1.8)}),
    ClaimSpec("t2-equiv-t1",
              "a triadic dilate witness recovers the two-tailed value via the dual",
              "pairs", 20, lambda s: 2 * s, 1, 200, _eval_t2_equiv_t1,
              {"min_witness_ratio": Expectation(FLOOR, floor=1 / 64)}),
    ClaimSpec("doubling-ap-equiv",
              "for doubling power weights the tailed and classical sups are comparable",
              "resolution", 6, lambda s: s + 1, 0, 9, _eval_doubling_ap_equiv,
              {"classical_sup": Expectation(BOUNDED, slack=1.10),
               "two_tailed_sup": Expectation(BOUNDED, slack=1.10),
               "t2_to_classical": Expectation(CAPPED, cap=10.0)}),
    ClaimSpec("cp-not-ainfty",
              "doubling weight with stable small-set maximal ratio but mass "
              "concentration doubling per stage",
              "K", 2, lambda s: s + 1, 1, CP_MAX_STAGES, _eval_cp_not_ainfty,
              {"doubling3_sup": Expectation(CAPPED, cap=_CP_DOUBLING_CAP),
               "ainfty_witness_ratio_min": Expectation(FLOOR, floor=1.0),
               "cp_ratio_sup": Expectation(BOUNDED, slack=1.25)}),
    ClaimSpec("cp-smalldoubling-ainfty",
              "small factor-3 doubling forces the geometric maximal-integral bound",
              "depth", 3, lambda s: s + 1, 0, 6, _eval_cp_smalldoubling,
              {"normalized_mii_sup": Expectation(BOUNDED, slack=1.05, cap=1.0)}),
    ClaimSpec("sawyer-ainfty",
              "dyadic testing ratio settles for absolutely continuous sigma, "
              "diverges for an atom",
              "depth", 6, lambda s: s + 2, 0, 16, _eval_sawyer_ainfty,
              {"sawyer_sup_lebesgue": Expectation(BOUNDED, slack=1.05),
               "sawyer_sup_powerweight": Expectation(BOUNDED, slack=1.05),
               "sawyer_atom": Expectation(DIVERGENT, min_growth=3.0)}),
    ClaimSpec("ainfty-pivotal",
              "stopping mass under 2 sigma(I) and pivotal sums under the "
              "dyadic-maximal bound",
              "depth", 8, lambda s: s + 4, 0, 16, _eval_ainfty_pivotal,
              {"stopping_mass_ratio": Expectation(CAPPED, cap=2.0),
               "pivotal_to_maximal_max": Expectation(CAPPED, cap=1.0),
               "stopping_atom_total": Expectation(DIVERGENT, min_growth=1.2)}),
    ClaimSpec("pivotal-not-t1",
              "pivotal sup settles near 1/2 while the one-tailed value follows "
              "the harmonic sum",
              "N", 50, lambda s: 4 * s, 2, PIVOTAL_MAX_ATOMS, _eval_pivotal_not_t1,
              {"pivotal_sup": Expectation(BOUNDED, slack=1.05),
               "t1_sq_at_unit": Expectation(DIVERGENT, min_growth=1.3),
               "energy_pivotal_ratio_max": Expectation(CAPPED, cap=0.5)}),
    ClaimSpec("energy-le-pivotal",
              "per-partition energy variant never exceeds half the plain sum",
              "pairs", 10, lambda s: 2 * s, 1, 100, _eval_energy_le_pivotal,
              {"energy_pivotal_ratio_max": Expectation(CAPPED, cap=0.5)}),
    ClaimSpec("smalldoubling-pivotal",
              "small doubling plus the classical constant controls pivotal sums",
              # 4 is the size domain the claim's reports are judged on; pivotal_sup
              # walks only 2^(depth+1) - 1 cells, so a higher cap would be cheap
              "depth", 3, lambda s: s + 1, 0, 4, _eval_smalldoubling_pivotal,
              {"hypothesis_margin": Expectation(CAPPED, cap=1.0),
               "pivotal_to_ap_max": Expectation(CAPPED, cap=1.0)}),
    ClaimSpec("gks-afrac-doubling",
              "cascade potential constant and doubling constants are depth-stable",
              "depth", 8, lambda s: s + 4, 0, CASCADE_MAX_DEPTH, _eval_gks_afrac,
              {"riesz_normalized": Expectation(BOUNDED, slack=1.10),
               "doubling2": Expectation(BOUNDED, slack=1.05),
               "reverse_doubling2": Expectation(BOUNDED, slack=1.05)}),
    ClaimSpec("doubling-energy-floor",
              "doubling keeps the normalized variance of every interval above a floor",
              "depth", 3, lambda s: s + 1, 0, 6, _eval_doubling_energy_floor,
              {"energy_min": Expectation(FLOOR, floor=0.01)}),
    ClaimSpec("powerweight-ap",
              "scanned one-weight constant brackets the closed form within 4x",
              "alphaExp", Fraction(1, 2), lambda s: s / 2, None, Fraction(4),
              _eval_powerweight_ap,
              {"analytic_bound": Expectation(FINITE),
               "sup_to_bound": Expectation(CAPPED, cap=4.0),
               "bound_to_sup": Expectation(CAPPED, cap=4.0)}),
    ClaimSpec("dual-pivotal-probe",
              "exploratory: both pivotal directions next to the one-tailed value",
              "N", 10, lambda s: 2 * s, 2, PIVOTAL_MAX_ATOMS, _eval_dual_pivotal_probe,
              {"pivotal_forward": Expectation(REPORT),
               "pivotal_dual": Expectation(REPORT),
               "t1_sq_at_unit": Expectation(REPORT)}),
]}

# the probe is exploratory and sits outside the one-id-per-theorem manifest
MANIFEST = tuple(k for k in REGISTRY if k != "dual-pivotal-probe")
