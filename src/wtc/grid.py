"""Dyadic/triadic grids, finite scan families, partitions, stopping cubes.

Every "sup over all cubes / all decompositions" in the library is estimated
from the finite candidate families defined here, so the reported values are
certified lower bounds of the true suprema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable, Iterator

from .errors import FamilyTooLargeError, ParamDomainError
from .measure import DyadicMasses, Interval, Measure, dilation_factor, rat, shown, whole

# the enumeration cap of scan families, partitions, pivotal cell trees and sweeps
MAX_CANDIDATES = 200_000


def first_best(pairs: Iterable[tuple[object, object]]) -> tuple[object, object]:
    """(value, witness) of the first (witness, value) pair of greatest value,
    skipping None values; (None, None) if all are.  Every search that reports
    a witness goes through here, so a tie keeps the candidate enumerated
    first.  A search seeded with a value v leads with the pair (None, v)."""
    best = witness = None
    for cand, v in pairs:
        if v is not None and (best is None or v > best):
            best, witness = v, cand
    return best, witness


@dataclass(frozen=True)
class ScanFamily:
    """Finite family of grid intervals (with fractional translates) in a window."""

    window: Interval
    min_level: int
    max_level: int
    base: int = 2
    shifts: int = 1

    def __post_init__(self):
        for name, least in (("min_level", None), ("max_level", None), ("base", 2),
                            ("shifts", 1)):
            object.__setattr__(self, name, whole(getattr(self, name), name, least))
        if self.min_level > self.max_level:
            raise ParamDomainError(
                f"min_level {shown(self.min_level)} exceeds max_level {shown(self.max_level)}")

    def _level_range(self, level: int, shift: int) -> tuple[int, int]:
        h = Fraction(self.base) ** level
        off = h * shift / self.shifts
        # floor((lo - off)/h) is the least k with (k+1)h + off > lo, and
        # ceil((hi - off)/h) - 1 the greatest k with kh + off < hi
        return (math.floor((self.window.lo - off) / h),
                math.ceil((self.window.hi - off) / h) - 1)

    def count(self) -> int:
        return sum(b.n for b in self._blocks)

    def blocks(self) -> tuple["ScanBlock", ...]:
        """The candidates as one block per (level, shift), in enumeration
        order."""
        # each block holds at least one candidate, since its cells tile the
        # line: a family of too many blocks is refused before any is built
        least = (self.max_level - self.min_level + 1) * self.shifts
        if least > MAX_CANDIDATES:
            raise FamilyTooLargeError(
                f"family of at least {shown(least)} candidates exceeds cap {MAX_CANDIDATES}")
        if self.count() > MAX_CANDIDATES:
            raise FamilyTooLargeError(
                f"family of {shown(self.count())} candidates exceeds cap {MAX_CANDIDATES}")
        return self._blocks

    @cached_property
    def _blocks(self) -> tuple["ScanBlock", ...]:
        out = []
        start = 0
        for level in range(self.min_level, self.max_level + 1):
            h = Fraction(self.base) ** level
            for shift in range(self.shifts):
                k0, k1 = self._level_range(level, shift)
                # k*h + shift*h/shifts over the denominator h.den * shifts
                step = h.numerator * self.shifts
                out.append(ScanBlock(start, k1 - k0 + 1,
                                     h.numerator * (k0 * self.shifts + shift),
                                     step, h.denominator * self.shifts))
                start += k1 - k0 + 1
        return tuple(out)

    def intervals(self) -> Iterator[Interval]:
        """Candidates, exactly once each, in (level, shift, index) order."""
        for block in self.blocks():
            for j in range(block.n):
                yield block.interval(j)

    @cached_property
    def origin(self) -> int:
        """The whole number that `endpoints` measures from: 0 for a window
        that holds 0, else the greatest whole number at or below the
        window's start.  Far from 0 the offsets from it stay small, so they
        keep the precision that absolute floats would lose."""
        if self.window.lo <= 0 <= self.window.hi:
            return 0
        return math.floor(self.window.lo)

    def endpoints(self, factor=1):
        """(lo, hi, origin): float64 arrays of every candidate's concentric
        factor-dilate, in enumeration order, as offsets from the whole
        number `origin` (see `ScanBlock.endpoints`).  Every float screen
        takes the three in this order, so ``mu.mass_many(*fam.endpoints())``
        screens the family's masses.

        The arrays are built once per factor and kept on the family,
        read-only, since every screen of the family shares them.  A factor
        that is not positive, or at which an offset passes float range,
        raises ParamDomainError.
        """
        f = dilation_factor(factor)
        if f not in self._endpoints:
            import numpy as np

            blocks = self.blocks()
            lo, hi = np.empty(self.count()), np.empty(self.count())
            try:
                for b in blocks:
                    lo[b.start:b.start + b.n], hi[b.start:b.start + b.n] = \
                        b.endpoints(f, self.origin)
            except OverflowError:
                raise ParamDomainError(f"dilation factor {shown(f)}: the dilated "
                                       "candidates pass float range") from None
            lo.flags.writeable = hi.flags.writeable = False
            self._endpoints[f] = lo, hi, self.origin
        return self._endpoints[f]

    @cached_property
    def _endpoints(self) -> dict:
        return {}


@dataclass(frozen=True)
class ScanBlock:
    """The candidates of one (level, shift) of a scan family: candidate j,
    0 <= j < n, is [(num0 + j*step)/den, (num0 + (j+1)*step)/den], and it is
    candidate start + j of the whole family in enumeration order."""

    start: int
    n: int
    num0: int
    step: int
    den: int

    def interval(self, j: int) -> Interval:
        """Candidate j, exact."""
        a = self.num0 + j * self.step
        return Interval(Fraction(a, self.den), Fraction(a + self.step, self.den))

    def endpoints(self, factor: Fraction, origin: int):
        """Float64 (lo, hi) arrays of the candidates' concentric factor-dilates,
        for a factor > 0, as offsets from the whole number origin.

        Each offset is the correctly rounded float of its exact value
        (Python int division), so it compares with the correctly rounded
        breakpoints of `Measure.float_data` at the same origin as the exact
        values do, except where two exact values round to one float.
        """
        import numpy as np

        p, q = factor.numerator, factor.denominator
        den = 2 * q * self.den
        # 2*q*den * (centre - origin -+ factor*length/2)
        first = q * (2 * self.num0 + self.step) - origin * den
        stride = 2 * q * self.step
        half = p * self.step
        centres = range(first, first + self.n * stride, stride)
        return (np.fromiter(((c - half) / den for c in centres), float, self.n),
                np.fromiter(((c + half) / den for c in centres), float, self.n))


@dataclass(frozen=True)
class Partition:
    """Disjoint half-open cover of a parent interval by ordered subintervals.

    Cells are stored as Interval values; all mass bookkeeping over a
    partition treats them as [lo, hi) so that cell masses add exactly.
    """

    parent: Interval
    cells: tuple[Interval, ...]

    def __post_init__(self):
        prev = self.parent.lo
        for c in self.cells:
            if c.lo is not prev and c.lo != prev:   # split_cell shares ends
                raise ParamDomainError("partition cells must tile the parent")
            prev = c.hi
        if prev is not self.parent.hi and prev != self.parent.hi:
            raise ParamDomainError("partition cells must tile the parent")


def split_cell(cell: Interval, base: int) -> list[Interval]:
    """The cell's base equal kids, in order.  Neighbours share their common
    end object, and the outer kids the cell's own ends."""
    h = cell.length / base
    ends = [cell.lo, *(cell.lo + j * h for j in range(1, base)), cell.hi]
    return [Interval(a, b) for a, b in zip(ends, ends[1:])]


def partition_count(base: int, max_depth: int) -> int:
    """The number of grid partitions of a cell to max_depth when it is at
    most MAX_CANDIDATES, else a number above it.  The count is 1 at depth 0
    and one more than the base-th power of the count a level down, so its
    bit length grows base-fold per level: counting stops at the first level
    past the cap."""
    # once c >= 2, c ** e passes the cap for any e past the cap's bit length
    e = min(base, MAX_CANDIDATES.bit_length() + 1)
    c = 1
    for _ in range(max_depth):
        c = 1 + c ** e
        if c > MAX_CANDIDATES:
            break
    return c


def partitions(parent: Interval, base: int = 2, max_depth: int = 2) -> Iterator[Partition]:
    """All grid-aligned recursive partitions of the parent up to max_depth."""
    base, max_depth = whole(base, "partition base", 2), whole(max_depth, "partition depth")
    if partition_count(base, max_depth) > MAX_CANDIDATES:
        raise FamilyTooLargeError(
            f"partitions of depth {shown(max_depth)} exceed cap {MAX_CANDIDATES}")

    def rec(cell: Interval, depth: int) -> list[tuple[Interval, ...]]:
        out = [(cell,)]
        if depth > 0:
            # one choice per kid, the last kid's varying fastest; each
            # partition's cells are chained in one pass
            out.extend(tuple(chain.from_iterable(choice)) for choice
                       in product(*[rec(k, depth - 1) for k in split_cell(cell, base)]))
        return out

    return (Partition(parent, cells) for cells in rec(parent, max_depth))


def snap_to_dyadic(interval: Interval) -> tuple[Interval, bool]:
    """Minimal dyadic cell containing the interval.

    Intervals straddling 0 have no enclosing dyadic cell; they are snapped
    to the smallest symmetric [-2^a, 2^a], whose halves are dyadic.
    """
    lo, hi = interval.lo, interval.hi
    if lo < 0 < hi:
        a = 0
        while Fraction(2) ** a < max(-lo, hi):
            a += 1
        while Fraction(2) ** (a - 1) >= max(-lo, hi):
            a -= 1
        root = Interval(-(Fraction(2) ** a), Fraction(2) ** a)
        return root, root != interval
    level = 0
    while Fraction(2) ** level < interval.length:
        level += 1
    while Fraction(2) ** (level - 1) >= interval.length:
        level -= 1
    while True:
        h = Fraction(2) ** level
        k = math.floor(lo / h)
        if (k + 1) * h >= hi:
            root = Interval(k * h, (k + 1) * h)
            return root, root != interval
        level += 1


@dataclass
class StoppingForest:
    """Maximal dyadic cells where the running average beats K^m, per level m."""

    root: Interval
    snapped: bool
    threshold_base: Fraction
    levels: dict[int, list[tuple[Interval, Fraction]]] = field(default_factory=dict)
    truncated: list[tuple[int, Interval, Fraction]] = field(default_factory=list)
    depth_exhausted: bool = False

    def level_mass(self, m: int) -> Fraction:
        return sum((mass for _, mass in self.levels.get(m, ())), Fraction(0))

    def total(self) -> Fraction:
        return sum((self.level_mass(m) for m in self.levels), Fraction(0))


def stopping_cubes(sigma: Measure, interval: Interval, K, max_depth: int) -> StoppingForest:
    """Calderon-Zygmund selection: per threshold K^m, the maximal dyadic
    subcells of the (snapped) interval whose sigma-average exceeds K^m."""
    K, max_depth = rat(K, "threshold base K"), whole(max_depth, "stopping depth")
    if K <= 1:
        raise ParamDomainError(f"threshold base K = {shown(K)} does not exceed 1")
    root, snapped = snap_to_dyadic(interval)
    forest = StoppingForest(root=root, snapped=snapped, threshold_base=K)
    cells = DyadicMasses(sigma, root, max_depth)
    den = cells.den
    total = Fraction(cells.mass(0, 0), den)
    if total == 0:
        return forest
    length = root.length
    root_avg = total / length
    m = 0
    while K ** m < root_avg:
        m += 1

    def search(d: int, k: int, m: int, lhs: int, rhs: int, found: list):
        # cell (d, k) has average (mass/den) / (|root|/2^d); it beats
        # thresh = K^m exactly when (mass << d) * lhs > rhs
        mass = cells.mass(d, k)
        if mass == 0:
            return
        if d and (mass << d) * lhs > rhs:
            found.append((cells.interval(d, k), Fraction(mass, den)))
            return
        if d >= max_depth:
            # An interior atom makes averages blow up on descent; report the
            # truncation instead of recursing forever.
            if cells.has_atom(d, k):
                forest.truncated.append((m, cells.interval(d, k), Fraction(mass, den)))
                forest.depth_exhausted = True
            return
        search(d + 1, 2 * k, m, lhs, rhs, found)
        search(d + 1, 2 * k + 1, m, lhs, rhs, found)

    while True:
        thresh = K ** m
        found: list[tuple[Interval, Fraction]] = []
        search(0, 0, m, length.denominator * thresh.denominator,
               thresh.numerator * den * length.numerator, found)
        if not found:
            break
        forest.levels[m] = found
        m += 1
    return forest


def brute_force_sup(functional: Callable[[Interval], float], window: Interval,
                    q: int, cap: int = 10_000) -> tuple[float, Interval]:
    """Exact max over every interval with endpoints on the 1/q lattice."""
    lo_ticks = math.ceil(window.lo * q)
    hi_ticks = math.floor(window.hi * q)
    n = hi_ticks - lo_ticks + 1
    if n * (n - 1) // 2 > cap:
        raise FamilyTooLargeError(
            f"{shown(n * (n - 1) // 2)} lattice intervals exceed cap {cap}")
    lattice = (Interval(Fraction(i, q), Fraction(j, q))
               for i in range(lo_ticks, hi_ticks) for j in range(i + 1, hi_ticks + 1))
    return first_best((cand, functional(cand)) for cand in lattice)
