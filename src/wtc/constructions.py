"""Parameterized gallery of the counterexample measures.

Everything is built as exact step/atom data on a finite window; "infinite"
objects take a size parameter and the interesting behaviour is read off as a
trend across sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import NonIntegrableError, ParamDomainError, StageOverflowError
from .functionals import _tail_many
from .measure import (Atom, Interval, Measure, Record, StepPiece, _over_lcm, rat, real,
                      shown, whole)

# size bounds, also the caps of the claims that build these constructions
CASCADE_MAX_DEPTH = 13  # 3^13 cells
CP_MAX_STAGES = 5
THM5_PART1_MAX_STAGES = 6
PIVOTAL_MAX_ATOMS = 400
# the largest ring index n at which `cp_weight` places a stage
CP_MAX_SCALE = 60


class StageWitness(Record):
    """Per-stage data certifying the flat-mass/small-size worst set.

    e_mass_fraction = w(E)/w(J) and e_size_fraction = |E|/|J| for the
    extremal prefix set E of the depth-i cascade cells inside J.
    """

    __slots__ = ("k", "n", "i", "il0", "e_mass_fraction", "e_size_fraction")

    def __init__(self, k: int, n: int, i: int, il0: Interval, e_mass_fraction: Fraction,
                 e_size_fraction: Fraction):
        self._set(k, n, i, il0, e_mass_fraction, e_size_fraction)


class ConstructionOutput(Record):
    __slots__ = ("measure", "witnesses")

    def __init__(self, measure: Measure, witnesses: dict | None = None):
        self._set(measure, {} if witnesses is None else witnesses)


def lebesgue_on(interval: Interval, density=1) -> Measure:
    return Measure.lebesgue(interval, rat(density))


def power_weight(alpha_exp, window: Interval, resolution_level: int = 6) -> Measure:
    """Step approximation of |x|^alpha_exp by exact cell averages.

    Cells straddling 0 are split there so every average uses the closed-form
    antiderivative on one side.  Averages are computed in floating point and
    snapped to (binary) rationals, so the output is deterministic.
    """
    a = real(alpha_exp, "power exponent alphaExp")
    if a <= -1:
        raise NonIntegrableError(f"|x|^{shown(alpha_exp)} is not locally integrable")
    n = 2 ** whole(resolution_level, "resolution level", 0, 18)  # 7 s, 216 MB at 18
    h = window.length / n
    # cell [lo, lo + step] / den; lo / den is the float of its Fraction end
    den = math.lcm(window.lo.denominator, h.denominator)
    lo0, step = int(window.lo * den), int(h * den)
    avgs = {lo: _abs_power_integral(lo / den, (lo + step) / den, a) / float(h)
            for lo in range(lo0, lo0 + n * step, step)}
    cells = [lo for lo, avg in avgs.items() if avg > 0]
    dden, density = _over_lcm([avgs[lo].as_integer_ratio() for lo in cells])
    return Measure.from_columns(den, cells, [lo + step for lo in cells], density, dden)


def _abs_power_integral(lo: float, hi: float, a: float) -> float:
    """Integral of |x|^a over [lo, hi]."""
    def one_side(u: float) -> float:  # integral over [0, u], u >= 0
        return u ** (a + 1) / (a + 1)

    if lo >= 0:
        return one_side(hi) - one_side(lo)
    if hi <= 0:
        return one_side(-lo) - one_side(-hi)
    return one_side(-lo) + one_side(hi)


def gks_cascade(delta, depth: int) -> Measure:
    """Triadic multiplicative cascade on [0,1] with total mass 1.

    Children sharing an endpoint with their parent get (1-delta)/2 of its
    mass, the middle child gets delta.  Doubling, and singular in the depth
    limit, for every delta in the domain (0, 1/3).
    """
    delta = rat(delta)
    if not 0 < delta < Fraction(1, 3):
        raise ParamDomainError(f"cascade delta {shown(delta)} outside (0, 1/3)")
    depth = whole(depth, "cascade depth", 0, CASCADE_MAX_DEPTH)
    # Cell j is [j, j+1] / cells.  Its density, cells * (its mass), is an
    # int over (2*den)^depth: with delta = num/den a parent's mass splits as
    # (den - num, 2*num, den - num) / (2*den).  So it depends only on the
    # count k of middle digits in j's depth-digit triadic expansion: it is
    # cells * side^(depth-k) * middle^k, one shared int per k.
    side, middle = delta.denominator - delta.numerator, 2 * delta.numerator
    cells = 3 ** depth
    counts = [0]
    for _ in range(depth):
        step = [0] * (3 * len(counts))
        step[0::3] = step[2::3] = counts
        step[1::3] = [k + 1 for k in counts]
        counts = step
    values = [cells * side ** (depth - k) * middle ** k for k in range(depth + 1)]
    # every k occurs, so this is the gcd that Measure would divide out entry
    # by entry; dividing it out here keeps the column's ints shared
    den = (2 * delta.denominator) ** depth
    g = math.gcd(den, *values)
    values = [v // g for v in values]
    lo = list(range(cells))
    # The columns are canonical as built, so they skip `from_columns`'s
    # checks: the cells are sorted, disjoint and of length 1, every density
    # is positive, and neighbours never have equal density, since cells j
    # and j+1 differ by exactly one in their count of middle digits (a last
    # digit going 0 -> 1 adds one, 1 -> 2 removes one, and a carry past
    # trailing 2s ends in one of those two steps).  `hi` shares `lo`'s ints.
    return Measure._make(cells, [], [], 1, lo, lo[1:] + [cells],
                         list(map(values.__getitem__, counts)), den // g)


def cascade_half_mass_prefix(delta, depth: int) -> tuple[Fraction, Fraction]:
    """(mass fraction, Lebesgue fraction) of the densest-prefix set reaching
    half the cascade mass at the given depth, computed combinatorially."""
    delta = rat(delta)
    side = (1 - delta) / 2
    target = Fraction(1, 2)
    cum_mass = Fraction(0)
    cum_cells = 0
    for j in range(depth + 1):  # j = number of middle choices, densest first
        count = math.comb(depth, j) * 2 ** (depth - j)
        cell_mass = side ** (depth - j) * delta ** j
        if cum_mass + count * cell_mass < target:
            cum_mass += count * cell_mass
            cum_cells += count
            continue
        need = math.ceil((target - cum_mass) / cell_mass)
        cum_mass += need * cell_mass
        cum_cells += need
        break
    return cum_mass, Fraction(cum_cells, 3 ** depth)


def _pick_stage_depth(delta2, k: int) -> int:
    """Smallest cascade depth whose half-mass prefix has size <= 2^-k."""
    for i in range(1, CASCADE_MAX_DEPTH + 1):
        mass, size = cascade_half_mass_prefix(delta2, i)
        if size <= Fraction(1, 2 ** k) and Fraction(3, 10) <= mass <= Fraction(7, 10):
            return i
    raise StageOverflowError(f"no cascade depth up to {CASCADE_MAX_DEPTH} reaches 2^-{k}")


def _stage_tower(center: Fraction, n: int, i: int, delta2: Fraction,
                  w_left_third: Fraction) -> Measure:
    """One stage tower inside a left ring third, as a measure.

    The third has length 3^(n-1) and total mass w_left_third; the tower is
    the concentric family of lengths 3^m, m = 0..n-1, with masses
    delta2^(n-1-m) * w_left_third (mass-conserving indexing).
    """
    lmax = n - 1
    side = (1 - delta2) / 2
    rows = []                       # (lo, hi, density) of the pieces outside the cascade
    # annuli m >= 2: uniform density over the two flanking thirds
    for m in range(2, lmax + 1):
        tower_mass = delta2 ** (lmax - m) * w_left_third
        ann_mass = (1 - delta2) * tower_mass
        third = Fraction(3) ** (m - 1)
        dens = ann_mass / (2 * third)
        half = Fraction(3) ** m / 2
        rows.append((center - half, center - half + third, dens))
        rows.append((center + half - third, center + half, dens))
    # m = 1 annulus: the two graded boundary cells J^l, J^r
    wj = side * delta2 ** (lmax - 1) * w_left_third if lmax >= 1 else Fraction(0)
    rows += _graded_cell(center - Fraction(3, 2), center - Fraction(1, 2), wj, delta2, i,
                         inner_right=True)
    rows += _graded_cell(center + Fraction(1, 2), center + Fraction(3, 2), wj, delta2, i,
                         inner_right=False)
    # the central cell carries the depth-i cascade
    w0 = delta2 ** lmax * w_left_third
    cascade = gks_cascade(delta2, i).scale(w0).translate(center - Fraction(1, 2))
    return Measure.from_steps(rows) + cascade


def _graded_cell(lo: Fraction, hi: Fraction, mass: Fraction, delta2: Fraction, depth: int,
                 inner_right: bool) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(lo, hi, density) rows of the graded third-splitting of [lo, hi]
    toward its inner edge; keeps w doubling.

    At each step the outer third gets (1-delta2)/2 of the current mass, the
    middle gets delta2, and the inner third recurses; the final inner cell is
    uniform.
    """
    if mass == 0:
        return []
    side = (1 - delta2) / 2
    rows = []
    for _ in range(depth):
        h = (hi - lo) / 3
        if inner_right:
            rows.append((lo, lo + h, side * mass / h))
            rows.append((lo + h, lo + 2 * h, delta2 * mass / h))
            lo = lo + 2 * h
        else:
            rows.append((hi - h, hi, side * mass / h))
            rows.append((hi - 2 * h, hi - h, delta2 * mass / h))
            hi = hi - 2 * h
        mass = side * mass
    rows.append((lo, hi, mass / (hi - lo)))
    return rows


def _stage_scan_intervals(center: Fraction, n: int, i: int) -> tuple[Interval, ...]:
    """Intervals whose maximal-integral gain must reach 2^k.

    Only the stage core matters: the central cell, its triple, the graded
    boundary cells and the extreme cascade cells.  The worst sets live
    there; for the outer tower members the flat-set mass ratio is already
    harmless, and their gain saturates at a constant by construction.
    """
    out = []
    for m in range(min(n, 2)):
        half = Fraction(3) ** m / 2
        out.append(Interval(center - half, center + half))
    x0 = center + Fraction(1, 2)
    for j in range(i + 1):
        out.append(Interval(x0, x0 + Fraction(1, 3 ** j)))
    lo0 = center - Fraction(1, 2)
    for j in range(1, i + 1):
        out.append(Interval(lo0, lo0 + Fraction(1, 3 ** j)))          # all-side corner
        half = Fraction(1, 2 * 3 ** j)
        out.append(Interval(center - half, center + half))            # all-middle core
    return tuple(out)


def _build_cp_measure(delta1: Fraction, delta2: Fraction,
                      stages: Sequence[tuple[int, int]], n_total: int,
                      stage_tower=_stage_tower) -> Measure:
    rows = [(Fraction(-1, 2), Fraction(1, 2), Fraction(1))]
    towers = []
    stage_at = {n: i for n, i in stages}
    for n in range(1, n_total + 1):
        ring_half_mass = (1 - delta1) / (2 * delta1 ** n)
        third = Fraction(3) ** (n - 1)
        dens = ring_half_mass / third
        half = Fraction(3) ** n / 2
        rows.append((half - third, half, dens))
        if n in stage_at:
            center = -third  # midpoint of the left ring third
            towers.append(stage_tower(center, n, stage_at[n], delta2, ring_half_mass))
        else:
            rows.append((-half, -half + third, dens))
    return sum(towers, Measure.from_steps(rows))


def cp_weight(p: int = 2, delta1=None, delta2=None, K: int = 1) -> ConstructionOutput:
    """Doubling weight with small-set mass concentration at K nested scales.

    Ring masses grow like delta1^-n (delta1 > 3^-p keeps maximal-function
    integrals finite); each stage k installs a concentric tower whose mass
    collapses like delta2^-m with delta2 <= 3^-p/2, which makes the
    maximal-integral gain at stage-k intervals reach 2^k once the stage
    scale n_k is large enough.  n_k is found by direct search; i_k is the
    smallest cascade depth whose half-mass set has size <= 2^-k.
    """
    p = whole(p, "cp exponent p", 1, 12)  # at 13 the float gain check divides by 0 from K = 3
    K = whole(K, "stage count K", 1, CP_MAX_STAGES)
    three_mp = Fraction(1, 3 ** p)
    delta1 = rat(delta1) if delta1 is not None else (three_mp + Fraction(1, 3)) / 2
    delta2 = rat(delta2) if delta2 is not None else three_mp / 2
    if not three_mp < delta1 < Fraction(1, 3):
        raise ParamDomainError(f"delta1 {shown(delta1)} outside (3^-{p}, 1/3)")
    if not 0 < delta2 <= three_mp:
        raise ParamDomainError(f"delta2 {shown(delta2)} outside (0, 3^-{p}]")

    resolved: list[tuple[int, int]] = []
    witnesses = []
    # each stage is built once per call; a rejected trial's is the first dropped
    stage_tower = lru_cache(maxsize=K)(_stage_tower)
    for k in range(1, K + 1):
        i_k = _pick_stage_depth(delta2, k)
        prev_n = resolved[-1][0] if resolved else 1
        n_k = max(prev_n + 1, i_k + 2, 3)
        target = 2.0 ** k
        while True:
            if n_k > CP_MAX_SCALE:
                raise StageOverflowError(f"stage {k} needs scale beyond {CP_MAX_SCALE}")
            trial = resolved + [(n_k, i_k)]
            w = _build_cp_measure(delta1, delta2, trial, n_k + 1, stage_tower)
            center = -(Fraction(3) ** (n_k - 1))
            # floats suffice for a search with a 1% margin; the recentered
            # copy keeps tiny intervals far out well conditioned
            wc = w.translate(-center)
            scan = _stage_scan_intervals(Fraction(0), n_k, i_k)
            gains = _tail_many(wc, [float(I.lo) for I in scan], [float(I.hi) for I in scan], p)
            ratio = min(g / float(wc.mass(I)) for g, I in zip(gains.tolist(), scan))
            if ratio >= target * 1.01:
                break
            n_k += max(1, math.ceil(math.log2(target * 1.01 / ratio)))
        resolved.append((n_k, i_k))
        mass_frac, size_frac = cascade_half_mass_prefix(delta2, i_k)
        center = -(Fraction(3) ** (n_k - 1))
        il0 = Interval(center - Fraction(1, 2), center + Fraction(1, 2))
        witnesses.append(StageWitness(k, n_k, i_k, il0, mass_frac, size_frac))

    # the last trial's measure is the whole tower: resolved is that trial
    n_total = resolved[-1][0] + 1
    return ConstructionOutput(w, {
        "stages": tuple(witnesses),
        "delta1": delta1,
        "delta2": delta2,
        "n_total": n_total,
    })


def _block_train(base: Fraction, count: int) -> list[StepPiece]:
    """Pieces of the dyadic-block measure: density 2^i on [base+2^i, base+2^(i+1)],
    i = 0..count."""
    return [StepPiece(Interval(base + 2 ** i, base + 2 ** (i + 1)), Fraction(2 ** i))
            for i in range(count + 1)]


def thm5_part1_pair(K: int = 3) -> tuple[Measure, Measure, dict]:
    """Pair with bounded classical A2 but both tailed variants failing.

    omega carries a unit block at 100^k and a dyadic block train at -100^k;
    sigma mirrors them.  Witnesses are the unit blocks [100^k, 100^k+1].
    """
    K = whole(K, "stage count K", 1, THM5_PART1_MAX_STAGES)
    om_pieces = []
    sg_pieces = []
    for k in range(1, K + 1):
        c = Fraction(100) ** k
        om_pieces.append(StepPiece(Interval(c, c + 1), Fraction(1)))
        om_pieces += _block_train(-c, k)
        sg_pieces.append(StepPiece(Interval(-c, -c + 1), Fraction(1)))
        sg_pieces += _block_train(c, k)
    witnesses = {"blocks": tuple(Interval(Fraction(100) ** k, Fraction(100) ** k + 1)
                                 for k in range(1, K + 1))}
    return Measure(pieces=om_pieces), Measure(pieces=sg_pieces), witnesses


def thm5_part2_pair(N: int = 8) -> tuple[Measure, Measure]:
    """omega = dyadic blocks 2^n on [2^n, 2^(n+1)], sigma = Lebesgue on [0,1].

    The two-tailed quantity at [0,1] grows linearly in N while the one-tailed
    one stays bounded.
    """
    N = whole(N, "block count N", 1, 20)
    omega = Measure(pieces=[StepPiece(Interval(2 ** n, 2 ** (n + 1)), Fraction(2 ** n))
                            for n in range(1, N + 1)])
    sigma = Measure.lebesgue(Interval(0, 1))
    return omega, sigma


def pivotal_example_pair(N: int = 10) -> tuple[Measure, Measure]:
    """omega = point mass at 0, sigma = sum of n * delta_n for n = 2..N."""
    N = whole(N, "atom count N", 2, PIVOTAL_MAX_ATOMS)
    omega = Measure.point_mass(0, 1)
    sigma = Measure(atoms=[Atom(Fraction(n), Fraction(n)) for n in range(2, N + 1)])
    return omega, sigma


def remark2_weight(radius=8) -> Measure:
    """Lebesgue measure with the unit interval removed (zero unit-ball mass)."""
    r = rat(radius)
    if r <= 1:
        raise ParamDomainError("radius must exceed 1")
    return Measure.from_steps([(-r, -1, 1), (1, r, 1)])
