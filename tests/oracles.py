"""Reference oracles of the tests, written over the public API of `wtc`
(`Measure.atoms`, `Measure.pieces` and the `Interval` ends) and no faster
path, so each stays an independent check of the code it is compared with.
No claim or CLI command needs them, so they are not part of the library."""

import math
from fractions import Fraction

from wtc import Atom, Interval, Measure, StepPiece
from wtc.errors import FamilyTooLargeError
from wtc.grid import first_best
from wtc.measure import shown


def contains_point(interval: Interval, x) -> bool:
    return interval.lo <= x <= interval.hi


def intersection(a: Interval, b: Interval) -> Interval | None:
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return Interval(lo, hi) if lo < hi else None


def dist(interval: Interval, x) -> Fraction:
    """Distance from a point to the interval (0 inside)."""
    return max(interval.lo - x, x - interval.hi, Fraction(0))


def dilate(mu: Measure, lam) -> Measure:
    """Pushforward under x -> lam*x (lam > 0); masses are preserved."""
    lam = Fraction(lam)
    return Measure([Atom(a.x * lam, a.mass) for a in mu.atoms],
                   [StepPiece(Interval(p.support.lo * lam, p.support.hi * lam),
                              p.density / lam) for p in mu.pieces])


def is_zero(mu: Measure) -> bool:
    return not mu.atoms and not mu.pieces


def density_at(mu: Measure, x) -> Fraction:
    """Density of the absolutely continuous part, half-open convention."""
    return sum((p.density for p in mu.pieces if p.support.lo <= x < p.support.hi),
               Fraction(0))


def brute_force_sup(functional, window: Interval, q: int,
                    cap: int = 10_000) -> tuple[object, Interval]:
    """Max over every interval with endpoints on the 1/q lattice, and the
    first interval reaching it."""
    lo_ticks = math.ceil(window.lo * q)
    hi_ticks = math.floor(window.hi * q)
    n = hi_ticks - lo_ticks + 1
    if n * (n - 1) // 2 > cap:
        raise FamilyTooLargeError(
            f"{shown(n * (n - 1) // 2)} lattice intervals exceed cap {cap}")
    lattice = (Interval(Fraction(i, q), Fraction(j, q))
               for i in range(lo_ticks, hi_ticks) for j in range(i + 1, hi_ticks + 1))
    return first_best((cand, functional(cand)) for cand in lattice)
