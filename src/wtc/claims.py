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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .config import Config
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
    ap_local,
    ap_local_many,
    ap_local_squared,
    doubling_constant,
    dyadic_maximal_integral,
    energy_e2,
    maximal_indicator_integral,
    pivotal_sums,
    power_weight_ap_bound,
    reverse_doubling_constant,
    riesz_potential_sup,
    sawyer_ratio,
    sup_over_family,
)
from .grid import ScanFamily, first_best, partitions, stopping_cubes
from .measure import Interval, Measure, StepPiece, rat
from .report import ReportRow

BOUNDED = "BOUNDED"
DIVERGENT = "DIVERGENT"
CAPPED = "CAPPED"
FLOOR = "FLOOR"
FINITE = "FINITE"
REPORT = "REPORT"

_REL_EPS = 1e-9


@dataclass(frozen=True)
class Expectation:
    kind: str
    slack: float | None = None       # BOUNDED: two-sided stability factor
    min_growth: float | None = None  # DIVERGENT: growth floor between sizes
    cap: float | None = None         # CAPPED (or extra pointwise cap)
    floor: float | None = None       # FLOOR

    @property
    def bound(self) -> float | None:
        """The bound a report row shows: the cap, else the floor."""
        return self.floor if self.cap is None else self.cap


@dataclass(frozen=True)
class StatResult:
    name: str
    value: float
    bound: float | None = None
    witness: object = None


@dataclass(frozen=True)
class ClaimSpec:
    id: str
    summary: str
    scale_name: str
    default_scale: object
    next_scale: Callable[[object], object]
    min_scale: object                # None: no least size
    max_scale: object
    evaluate: Callable[[object, Config], list[StatResult]]
    expectations: dict

    def check_scale(self, v):
        """Return size v in the form the evaluator takes: an int when the
        default size is one, else a Fraction.  Raise ScaleDomainError unless
        the construction accepts v (integral when the default size is, at
        least min_scale), and CapExceededError when v exceeds max_scale."""
        if isinstance(self.default_scale, int):
            if not (isinstance(v, (int, Fraction)) and v.denominator == 1):
                raise ScaleDomainError(f"{self.id}: size {v} is not an integer")
            v = int(v)
        else:
            v = rat(v)
        if self.min_scale is not None and v < self.min_scale:
            raise ScaleDomainError(
                f"{self.id}: size {v} is below the least size {self.min_scale}")
        if v > self.max_scale:
            raise CapExceededError(f"{self.id}: size {v} exceeds cap {self.max_scale}")
        return v


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    rows: tuple[ReportRow, ...]
    passed: bool
    witnesses: dict = field(default_factory=dict)

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


def run_claim(claim_id: str, scale=None, config: Config | None = None) -> ClaimReport:
    spec = get_claim(claim_id)
    config = config or Config.default()
    s1 = spec.check_scale(spec.default_scale if scale is None else scale)
    s2 = spec.next_scale(s1)
    if s2 == s1:
        raise ScaleDomainError(
            f"{claim_id}: size {s1} gives the same next size, so no trend can be judged")
    s2 = spec.check_scale(s2)
    found = [{s.name: s for s in spec.evaluate(size, config)} for size in (s1, s2)]
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


def sweep(claim_id: str, values, config: Config | None = None) -> list[ReportRow]:
    """One row-block per parameter value, judged at that size alone.  Every
    value is checked against the claim's size domain before the first one
    is evaluated."""
    spec = get_claim(claim_id)
    config = config or Config.default()
    values = [spec.check_scale(v) for v in values]
    rows = []
    for v in values:
        found = {s.name: s for s in spec.evaluate(v, config)}
        for name, exp in spec.expectations.items():
            if name in found:
                value = found[name].value
                rows.append(ReportRow(claim_id, v, name, value, exp.bound,
                                      _point_verdict(exp, value)))
    return rows


# --------------------------------------------------------------------------
# shared corpus helpers

def random_compact_measure(rng: random.Random, lo=-2, hi=2, q=8,
                           allow_atoms: bool = True) -> Measure:
    """Random rational measure supported in [lo, hi]: a few steps, maybe an atom."""
    lo_t, hi_t = int(lo) * q, int(hi) * q
    m = Measure.zero()
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(lo_t, hi_t - 1)
        b = rng.randint(a + 1, hi_t)
        den = Fraction(rng.randint(1, 16), 4)
        m = m + Measure(pieces=[StepPiece(Interval(Fraction(a, q), Fraction(b, q)), den)])
    if allow_atoms and rng.random() < 1 / 3:
        x = Fraction(rng.randint(lo_t, hi_t), q)
        m = m + Measure.point_mass(x, Fraction(rng.randint(1, 8), 4))
    return m


def _ap_sup(omega, sigma, kind, family, squared=True):
    """Screened sup over the family of the local Ap quantity (p = 2,
    alpha = 0), squared unless asked otherwise."""
    e = 2 if squared else 1
    return sup_over_family(lambda cand: ap_local(omega, sigma, cand, 2, 0, kind) ** e, family,
                           lambda fam: ap_local_many(omega, sigma, *fam.endpoints(), kind) ** e)


def _min_dual_recovery(omega, sigma, family):
    """Min over the family of the best triadic-dilate dual one-tailed value
    over the two-tailed value, skipping candidates where the latter is not
    positive, negated with its witness: the min search is sup_over_family's
    max search.  (None, None) when every candidate is skipped."""
    def functional(cand):
        t2 = ap_local(omega, sigma, cand, 2, 0, "two_tailed")
        if t2 <= 0:
            return None
        dual = max(ap_local(omega, sigma, cand.dilate(3 ** j), 2, 0,
                            "one_tailed_dual")
                   for j in range(8))
        return -(dual / t2)

    def screen(fam):
        t2 = ap_local_many(omega, sigma, *fam.endpoints(), "two_tailed")
        dual = np.max([ap_local_many(omega, sigma, *fam.endpoints(3 ** j),
                                     "one_tailed_dual")
                       for j in range(8)], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t2 > 0, -dual / t2, np.nan)

    return sup_over_family(functional, family, screen)


def _doubling_corpus(depth: int = 5) -> list[Measure]:
    """Ten weights whose measured factor-3 doubling constants sit below 9."""
    steps = Measure(pieces=[StepPiece(Interval(0, 1), Fraction(1)),
                            StepPiece(Interval(1, 2), Fraction(3)),
                            StepPiece(Interval(2, 3), Fraction(1))])
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

def _eval_ap_not_t1(K, config):
    """Classical stays under 2M while both tailed quantities climb stage by
    stage at the unit blocks."""
    omega, sigma, wit = thm5_part1_pair(K)
    sups = [(None, 0.0)]
    for k in range(1, K + 1):
        c = Fraction(100) ** k
        for center in (c, -c):
            window = Interval(center - 2 ** (k + 1), center + 2 ** (k + 1) + 1)
            fam = ScanFamily(window, 0, k + 2, base=2, shifts=config.shifts,
                             max_candidates=config.max_candidates)
            v, w_ = _ap_sup(omega, sigma, "classical", fam)
            sups.append((w_, v))
    best, best_wit = first_best(sups)
    m_cap = 2 * max((4 ** (i + 1) - 1) / (3 * (2 ** (i - 1) - 2) ** 2)
                    for i in range(3, 12))
    stats = [StatResult("classical_sq_sup", best, bound=m_cap, witness=best_wit)]
    t1 = [float(ap_local_squared(omega, sigma, blk, "one_tailed"))
          for blk in wit["blocks"]]
    duals = [Interval(-(Fraction(100) ** k), -(Fraction(100) ** k) + 1)
             for k in range(1, K + 1)]
    t1d = [float(ap_local_squared(omega, sigma, blk, "one_tailed_dual"))
           for blk in duals]
    if K >= 2:
        stats.append(StatResult("t1_sq_increment_min",
                                min(b - a for a, b in zip(t1, t1[1:])),
                                witness=wit["blocks"][-1]))
        stats.append(StatResult("t1_dual_sq_increment_min",
                                min(b - a for a, b in zip(t1d, t1d[1:])),
                                witness=duals[-1]))
    return stats


def _eval_t1_not_t2(N, config):
    """One-tailed sup saturates near 1/3; the two-tailed value at [0,1] is N/2."""
    omega, sigma = thm5_part2_pair(N)
    fam = ScanFamily(Interval(0, 2 ** (N + 1)), 0, N + 1, base=2,
                     shifts=config.shifts, max_candidates=config.max_candidates)
    v, w_ = _ap_sup(omega, sigma, "one_tailed", fam)
    unit = Interval(0, 1)
    t2 = float(ap_local_squared(omega, sigma, unit, "two_tailed"))
    return [StatResult("t1_sq_sup", v, witness=w_),
            StatResult("t2_sq_at_unit", t2, witness=unit)]


def _eval_t2_equiv_t1(n_pairs, config):
    """For every scanned I, some triadic dilate J recovers a fixed fraction of
    the two-tailed value through the dual one-tailed quantity."""
    rng = random.Random(0x5EED)
    fam = ScanFamily(Interval(-2, 2), -3, 1, base=2, shifts=2,
                     max_candidates=config.max_candidates)
    negs = [(None, -math.inf)]
    for _ in range(n_pairs):
        omega = random_compact_measure(rng)
        sigma = random_compact_measure(rng)
        neg, wit = _min_dual_recovery(omega, sigma, fam)
        negs.append((wit, neg))
    neg, worst_wit = first_best(negs)
    return [StatResult("min_witness_ratio", -neg, witness=worst_wit)]


def _eval_doubling_ap_equiv(r, config):
    """Doubling power-weight pair: two-tailed sup within a fixed factor of the
    classical sup."""
    omega = power_weight(Fraction(1, 2), Interval(-4, 4), r)
    sigma = power_weight(Fraction(-1, 2), Interval(-4, 4), r)
    fam = ScanFamily(Interval(-2, 2), -6, 1, base=2, shifts=config.shifts,
                     max_candidates=config.max_candidates)
    cl, cl_w = _ap_sup(omega, sigma, "classical", fam, squared=False)
    t2, t2_w = _ap_sup(omega, sigma, "two_tailed", fam, squared=False)
    return [StatResult("classical_sup", cl, witness=cl_w),
            StatResult("two_tailed_sup", t2, witness=t2_w),
            StatResult("t2_to_classical", t2 / cl)]


def _eval_cp_not_ainfty(K, config):
    """Doubling stays capped and the mass-concentration witness doubles per
    stage, while the normalized small-set maximal ratio stays stable."""
    d1, d2 = Fraction(1, 6), Fraction(1, 18)
    built = cp_weight(p=2, delta1=d1, delta2=d2, K=K)
    w = built.measure
    stages = built.witnesses["stages"]
    c = stages[-1].il0.midpoint
    fam = ScanFamily(Interval(c - 5, c + 5), -3, 2, base=3, shifts=3,
                     max_candidates=config.max_candidates)
    dbl = doubling_constant(w, fam, 3)
    ratio_min = min(float(sw.e_mass_fraction / sw.e_size_fraction) / 2 ** (sw.k - 1)
                    for sw in stages)
    ratios = [(None, 0.0)]
    for sw in stages:
        wc = w.translate(-sw.il0.midpoint)
        j0 = Interval(Fraction(-1, 2), Fraction(1, 2))
        mii = maximal_indicator_integral(wc, j0, 2, exact=False)
        ratios.append((sw.il0, float(sw.e_mass_fraction) * float(wc.mass(j0)) / mii
                       / float(sw.e_size_fraction)))
    cp_sup, cp_wit = first_best(ratios)
    return [StatResult("doubling3_sup", float(dbl.value), bound=float(9 / min(d1, d2)),
                       witness=dbl.witness),
            StatResult("ainfty_witness_ratio_min", ratio_min, witness=stages[-1].il0),
            StatResult("cp_ratio_sup", cp_sup, witness=cp_wit)]


def _eval_cp_smalldoubling(r, config):
    """Weights with factor-3 doubling below 9: the maximal-indicator integral
    normalized by the geometric series bound stays below one.  The size
    parameter refines the corpus; the scan family is held fixed so that the
    statistic measures the weights, not the scan."""
    sups = [(None, 0.0)]
    for w in _doubling_corpus(depth=r + 2):
        hull = w.support()
        dbl_fam = ScanFamily(hull, -4, 0, base=3, shifts=2,
                             max_candidates=config.max_candidates)
        c_w = float(doubling_constant(w, dbl_fam, 3).value)
        if c_w >= 9:
            continue
        series = 36.0 / (1 - c_w / 9)
        scan = ScanFamily(hull, -4, 0, base=3, shifts=1,
                          max_candidates=config.max_candidates)

        def normalized(cand):
            wm = float(w.mass(cand))
            if wm == 0:
                return None
            return maximal_indicator_integral(w, cand, 2, exact=False) / wm / series

        def screen(fam):
            lo, hi = fam.endpoints()
            wm = w.mass_many(lo, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(wm > 0, _tail_many(w, lo, hi, 2) / wm / series, np.nan)

        val, wit = sup_over_family(normalized, scan, screen)
        sups.append((wit, val))
    worst, worst_wit = first_best(sups)
    return [StatResult("normalized_mii_sup", worst, witness=worst_wit)]


def _eval_sawyer_ainfty(depth, config):
    """Dyadic testing ratios converge for absolutely continuous sigma and
    blow up for an atom."""
    leb = lebesgue_on(Interval(0, 1))
    pw = power_weight(Fraction(1, 2), Interval(0, 2), 6)
    leb2 = lebesgue_on(Interval(0, 2))
    probes = [Interval(0, 1), Interval(0, Fraction(1, 2)),
              Interval(Fraction(1, 4), Fraction(3, 4))]
    s_leb = max(float(sawyer_ratio(leb, leb, cand, 2, depth)) for cand in probes)
    s_pw = max(float(sawyer_ratio(leb2, pw, cand, 2, depth)) for cand in probes)
    atom = Measure.point_mass(Fraction(1, 3), 1)
    s_atom = float(sawyer_ratio(leb, atom, Interval(0, 1), 2, depth))
    return [StatResult("sawyer_sup_lebesgue", s_leb),
            StatResult("sawyer_sup_powerweight", s_pw),
            StatResult("sawyer_atom", s_atom)]


def _eval_ainfty_pivotal(depth, config):
    """Stopping-cube mass stays under 2 sigma(I) and every partition's pivotal
    sum sits under the dyadic-maximal bound; an atomic sigma breaks both."""
    leb = lebesgue_on(Interval(0, 1))
    pw = power_weight(Fraction(1, 2), Interval(0, 1), 6)
    unit = Interval(0, 1)
    stop = max(float(stopping_cubes(s, unit, 8, depth).total() / s.mass(unit))
               for s in (leb, pw))
    pairs = [(leb, leb), (leb, pw), (gks_cascade(Fraction(1, 4), 4), leb)]
    parts = list(partitions(unit, 2, 3))
    ratios = [(None, 0.0)]
    for omega, sigma in pairs:
        dmi, _ = dyadic_maximal_integral(sigma, omega, unit, 2,
                                         max_depth=min(depth, 10))
        cap = 64.0 * float(dmi) / float(sigma.mass(unit))
        ratios += [(part.cells[0], float(ps) / cap)
                   for part, ps in zip(parts, pivotal_sums(omega, sigma, unit, parts, 2))]
    worst, worst_wit = first_best(ratios)
    atom = Measure.point_mass(Fraction(1, 3), 1)
    atom_total = float(stopping_cubes(atom, unit, 2, depth).total())
    return [StatResult("stopping_mass_ratio", stop),
            StatResult("pivotal_to_maximal_max", worst, witness=worst_wit),
            StatResult("stopping_atom_total", atom_total)]


def _energy_ratios(omega, sigma, parent, parts, plains):
    """Energy-weighted over plain pivotal sum (p = 2, float) for each
    partition whose plain sum `plains` holds is positive, in order."""
    live = [(part, plain) for part, plain in zip(parts, plains) if plain > 0]
    withes = pivotal_sums(omega, sigma, parent, [part for part, _ in live], 2,
                          with_energy=True, exact=False)
    return [withe / plain for (_, plain), withe in zip(live, withes)]


def _eval_pivotal_not_t1(N, config):
    """Pivotal sup stays near 1/2 while the one-tailed value at [0,1] follows
    the harmonic sum; the energy variant never exceeds half the plain sum."""
    omega, sigma = pivotal_example_pair(N)
    parent = Interval(-1, N + 1)
    parts = list(partitions(parent, 2, 3))
    plains = pivotal_sums(omega, sigma, parent, parts, 2, exact=False)
    best, best_part = first_best([(None, 0.0), *zip(parts, plains)])
    energy_worst = max([0.0, *_energy_ratios(omega, sigma, parent, parts, plains)])
    unit = Interval(0, 1)
    t1 = float(ap_local_squared(omega, sigma, unit, "one_tailed"))
    return [StatResult("pivotal_sup", best, witness=best_part.cells[0]),
            StatResult("t1_sq_at_unit", t1, witness=unit),
            StatResult("energy_pivotal_ratio_max", energy_worst)]


def _eval_energy_le_pivotal(n_pairs, config):
    """Per-partition energy-to-pivotal ratio never exceeds 1/2."""
    rng = random.Random(0xE4E557)
    parent = Interval(-2, 2)
    worst = 0.0
    pair_list = [pivotal_example_pair(10)]
    while len(pair_list) < n_pairs:
        omega = random_compact_measure(rng)
        sigma = random_compact_measure(rng)
        if sigma.mass(parent) == 0 or omega.mass(parent) == 0:
            continue
        pair_list.append((omega, sigma))
    for omega, sigma in pair_list:
        p0 = parent if sigma.mass(parent) > 0 else Interval(-1, 12)
        parts = list(partitions(p0, 2, 2))
        plains = pivotal_sums(omega, sigma, p0, parts, 2, exact=False)
        worst = max([worst, *_energy_ratios(omega, sigma, p0, parts, plains)])
    return [StatResult("energy_pivotal_ratio_max", worst)]


def _eval_smalldoubling_pivotal(depth, config):
    """Pairs meeting K_sigma < 2^p (1+delta_omega): pivotal sums are controlled
    by the classical quantity."""
    unit = Interval(0, 1)
    pairs = [(lebesgue_on(unit), lebesgue_on(unit)),
             (gks_cascade(Fraction(1, 4), 5), gks_cascade(Fraction(3, 10), 5))]
    fam = ScanFamily(unit, -4, -1, base=3, shifts=2,
                     max_candidates=config.max_candidates)
    margin = 0.0
    ratios = [(None, 0.0)]
    parts = list(partitions(unit, 2, depth))
    for omega, sigma in pairs:
        k_sigma = float(doubling_constant(sigma, fam, 2).value)
        rev = float(reverse_doubling_constant(omega, fam, 2).value)
        margin = max(margin, k_sigma / (4 * rev))
        ap_fam = ScanFamily(unit, -4, 0, base=2, shifts=2,
                            max_candidates=config.max_candidates)
        apsq, _ = _ap_sup(omega, sigma, "classical", ap_fam)
        ratios += [(part.cells[0], ps / (10 * apsq))
                   for part, ps in zip(parts, pivotal_sums(omega, sigma, unit, parts, 2,
                                                           exact=False))]
    conclusion, wit = first_best(ratios)
    return [StatResult("hypothesis_margin", margin),
            StatResult("pivotal_to_ap_max", conclusion, witness=wit)]


def _eval_gks_afrac(depth, config):
    """Cascade at delta = 1/4: the normalized fractional potential and both
    doubling constants settle as the depth grows."""
    mu = gks_cascade(Fraction(1, 4), depth)
    unit = Interval(0, 1)
    samples = [Fraction(i, 37) for i in range(1, 37)]
    riesz = riesz_potential_sup(mu, unit, 0.6, samples)
    fam = ScanFamily(unit, -5, -1, base=3, shifts=2,
                     max_candidates=config.max_candidates)
    dbl = doubling_constant(mu, fam, 2)
    rev = reverse_doubling_constant(mu, fam, 2)
    return [StatResult("riesz_normalized", riesz.normalized, witness=riesz.witness),
            StatResult("doubling2", float(dbl.value), witness=dbl.witness),
            StatResult("reverse_doubling2", float(rev.value), witness=rev.witness)]


def _eval_doubling_energy_floor(r, config):
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
        fam = ScanFamily(hull, -r, 0, base=3, shifts=2,
                         max_candidates=config.max_candidates)
        neg, wit = sup_over_family(
            lambda cand: None if w.mass(cand) == 0 else -float(energy_e2(cand, w)), fam)
        negs.append((wit, neg))
    neg, worst_wit = first_best(negs)
    return [StatResult("energy_min", -neg, witness=worst_wit)]


def _eval_powerweight_ap(alpha, config):
    """One-weight comparison: the scanned constant brackets the closed form
    within a factor of 4 whenever the exponent is admissible."""
    finite, bound = power_weight_ap_bound(alpha, 2)
    stats = [StatResult("analytic_bound", bound if finite else math.inf)]
    if not finite:
        return stats
    omega = power_weight(alpha, Interval(-2, 2), 7)
    sigma = power_weight(-alpha, Interval(-2, 2), 7)
    fam = ScanFamily(Interval(-1, 1), -5, 0, base=2, shifts=2,
                     max_candidates=config.max_candidates)
    sup, wit = _ap_sup(omega, sigma, "classical", fam)
    stats.append(StatResult("sup_to_bound", sup / bound, witness=wit))
    stats.append(StatResult("bound_to_sup", bound / sup if sup else math.inf,
                            witness=wit))
    return stats


def _eval_dual_pivotal_probe(N, config):
    """Open question: both pivotal directions against the one-tailed quantity.
    Reported without an expectation."""
    omega, sigma = pivotal_example_pair(N)
    parent = Interval(-1, N + 1)
    parts = list(partitions(parent, 2, 2))
    fwd = max(pivotal_sums(omega, sigma, parent, parts, 2, exact=False))
    dual = max(pivotal_sums(sigma, omega, parent, parts, 2, exact=False))
    t1 = float(ap_local_squared(omega, sigma, Interval(0, 1), "one_tailed"))
    return [StatResult("pivotal_forward", fwd),
            StatResult("pivotal_dual", dual),
            StatResult("t1_sq_at_unit", t1)]


# --------------------------------------------------------------------------
# registry

REGISTRY: dict[str, ClaimSpec] = {s.id: s for s in [
    ClaimSpec("ap-not-t1",
              "classical two-weight constant bounded, both tailed ones divergent",
              "K", 3, lambda s: s + 1, 1, THM5_PART1_MAX_STAGES, _eval_ap_not_t1,
              {"classical_sq_sup": Expectation(BOUNDED, slack=1.05, cap=42.5),
               # growth floor 0.8 per stage; the exact tail integral contributes
               # 1/2 per stage, so this floor records a known discrepancy
               "t1_sq_increment_min": Expectation(FLOOR, floor=0.8),
               "t1_dual_sq_increment_min": Expectation(FLOOR, floor=0.8)}),
    ClaimSpec("t1-not-t2",
              "one-tailed constant bounded, two-tailed divergent at the unit interval",
              # at 3 shifts the family has 3 * 2^(N+2) + 2N + 1 candidates:
              # 196,637 at N = 14, 393,247 at 15, past the default cap 200,000
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
              {"doubling3_sup": Expectation(CAPPED, cap=162.0),
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
              # partition_count(2, depth): 677 at 4, 458,330 at 5
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
