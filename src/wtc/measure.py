"""Exact measures on the real line: point atoms plus piecewise-constant densities.

All data is stored as `fractions.Fraction`, so interval masses, restrictions
and moments are computed without rounding.  Measures are immutable after
construction and canonicalized (sorted, merged, zero parts dropped), which
makes equality structural and every operation safe to share across workers.

Each measure builds two prefix-sum tables once, one over its atom masses and
one over its piece masses.  A table holds Python ints over one shared
denominator, the least common multiple of the masses' reduced denominators,
so an interval-mass query subtracts two ints and builds a single Fraction.
`mass`, `restrict` and `complement_restrict` bisect the sorted breakpoints
and rebuild only the pieces at the two ends of the interval; `moments`
visits only the pieces that overlap it.  `DyadicMasses` reads the masses of
the dyadic cells of a root interval from the same tables, as differences
of an integer cumulative mass at the grid points.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

from .errors import OverlappingStepsError, ZeroMassError

RatLike = Union[Fraction, int, str]

# `mass_many` works through its intervals this many at a time, which bounds
# its temporary arrays.
_MANY_ROWS = 4096


def rat(x: RatLike) -> Fraction:
    """Coerce ints, strings ('3/2', '0.25') and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # Floats are accepted but converted exactly (they are binary rationals).
        return Fraction(x)
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_point(self, x: RatLike) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            return Interval(lo, hi)
        return None

    def dilate(self, factor: RatLike) -> "Interval":
        """Concentric dilation factor*I."""
        factor = rat(factor)
        half = self.length * factor / 2
        c = self.midpoint
        return Interval(c - half, c + half)

    def translate(self, dx: RatLike) -> "Interval":
        dx = rat(dx)
        return Interval(self.lo + dx, self.hi + dx)

    def dist(self, x: RatLike) -> Fraction:
        """Distance from a point to the interval (0 inside)."""
        x = rat(x)
        if x < self.lo:
            return self.lo - x
        if x > self.hi:
            return x - self.hi
        return Fraction(0)

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True, slots=True)
class Atom:
    """Point mass at x."""

    x: Fraction
    mass: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", rat(self.x))
        object.__setattr__(self, "mass", rat(self.mass))
        if self.mass < 0:
            raise ValueError(f"negative atom mass {self.mass}")


@dataclass(frozen=True, slots=True)
class StepPiece:
    """Constant density on a support interval."""

    support: Interval
    density: Fraction

    def __post_init__(self):
        object.__setattr__(self, "density", rat(self.density))
        if self.density < 0:
            raise ValueError(f"negative density {self.density}")

    @property
    def mass(self) -> Fraction:
        return self.density * self.support.length


class Measure:
    """A locally finite positive measure: finitely many atoms + step pieces.

    Pieces must be disjoint up to shared endpoints.  Use ``a + b`` to
    superpose measures with overlapping supports (densities add).
    """

    __slots__ = ("atoms", "pieces", "_axs", "_acum", "_aden", "_plo", "_phi",
                 "_pcum", "_pden", "_floats")

    def __init__(self, atoms: Iterable[Atom] = (), pieces: Iterable[StepPiece] = ()):
        atoms = _canonical_atoms(tuple(atoms))
        pieces = _canonical_pieces(tuple(pieces))
        self.atoms: tuple[Atom, ...] = atoms
        self.pieces: tuple[StepPiece, ...] = pieces
        # Cumulative tables for O(log n) interval-mass queries: the mass of
        # atoms[i:j] is (_acum[j] - _acum[i]) / _aden, likewise for pieces.
        self._axs = [a.x for a in atoms]
        self._acum, self._aden = _prefix_sums(
            (a.mass.numerator, a.mass.denominator) for a in atoms)
        self._plo = [p.support.lo for p in pieces]
        self._phi = [p.support.hi for p in pieces]
        self._pcum, self._pden = _prefix_sums(map(_piece_mass, pieces))
        self._floats = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Measure":
        return cls()

    @classmethod
    def point_mass(cls, x: RatLike, mass: RatLike = 1) -> "Measure":
        return cls(atoms=[Atom(rat(x), rat(mass))])

    @classmethod
    def lebesgue(cls, interval: Interval, density: RatLike = 1) -> "Measure":
        return cls(pieces=[StepPiece(interval, rat(density))])

    @classmethod
    def from_steps(cls, steps: Sequence[tuple[RatLike, RatLike, RatLike]]) -> "Measure":
        return cls(pieces=[StepPiece(Interval(a, b), rat(d)) for a, b, d in steps])

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Measure") -> "Measure":
        if not isinstance(other, Measure):
            return NotImplemented
        atoms = list(self.atoms) + list(other.atoms)
        pieces = _superpose(list(self.pieces) + list(other.pieces))
        return Measure(atoms, pieces)

    def scale(self, c: RatLike) -> "Measure":
        c = rat(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return Measure(
            [Atom(a.x, a.mass * c) for a in self.atoms],
            [StepPiece(p.support, p.density * c) for p in self.pieces],
        )

    def translate(self, dx: RatLike) -> "Measure":
        """Pushforward under x -> x + dx."""
        dx = rat(dx)
        return Measure(
            [Atom(a.x + dx, a.mass) for a in self.atoms],
            [StepPiece(p.support.translate(dx), p.density) for p in self.pieces],
        )

    def dilate(self, lam: RatLike) -> "Measure":
        """Pushforward under x -> lam*x (lam > 0); masses are preserved."""
        lam = rat(lam)
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        return Measure(
            [Atom(a.x * lam, a.mass) for a in self.atoms],
            [StepPiece(Interval(p.support.lo * lam, p.support.hi * lam),
                       p.density / lam) for p in self.pieces],
        )

    # -- queries -------------------------------------------------------------

    def mass(self, interval: Interval, include_hi: bool = True) -> Fraction:
        """Exact mass of [lo, hi] (closed) or [lo, hi) when include_hi=False.

        Step pieces contribute by overlap length either way; only atoms on
        the right endpoint are affected by the convention.
        """
        a, b = interval.lo, interval.hi
        i0 = bisect_left(self._axs, a)
        i1 = bisect_right(self._axs, b) if include_hi else bisect_left(self._axs, b)
        return (Fraction(self._acum[i1] - self._acum[i0], self._aden)
                + self._density_mass(a, b))

    def _density_mass(self, a: Fraction, b: Fraction) -> Fraction:
        pieces = self.pieces
        if not pieces or b <= self._plo[0] or a >= self._phi[-1]:
            return Fraction(0)
        k0 = bisect_right(self._phi, a)          # first piece with hi > a
        k1 = bisect_left(self._plo, b) - 1       # last piece with lo < b
        if k1 < k0:
            return Fraction(0)
        if k0 == k1:
            p = pieces[k0]
            lo = max(a, p.support.lo)
            hi = min(b, p.support.hi)
            return p.density * (hi - lo) if hi > lo else Fraction(0)
        # fully covered middles
        total = Fraction(self._pcum[k1] - self._pcum[k0 + 1], self._pden)
        first = pieces[k0]
        total += first.density * (first.support.hi - max(a, first.support.lo))
        last = pieces[k1]
        total += last.density * (min(b, last.support.hi) - last.support.lo)
        return total

    def total_mass(self) -> Fraction:
        return (Fraction(self._acum[-1], self._aden)
                + Fraction(self._pcum[-1], self._pden))

    def is_zero(self) -> bool:
        return not self.atoms and not self.pieces

    def restrict(self, interval: Interval) -> "Measure":
        """The measure 1_I * mu (closed-interval convention for atoms).

        Returns ``self`` when I covers every atom and piece; measures are
        immutable, so sharing is safe.
        """
        lo, hi = interval.lo, interval.hi
        axs, plo, phi = self._axs, self._plo, self._phi
        if ((not axs or lo <= axs[0] and axs[-1] <= hi)
                and (not plo or lo <= plo[0] and phi[-1] <= hi)):
            return self
        atoms = self.atoms[bisect_left(axs, lo):bisect_right(axs, hi)]
        k0, k1 = self._piece_range(lo, hi)
        pieces = list(self.pieces[k0:k1])
        if pieces:
            first = pieces[0]
            if first.support.lo < lo:
                pieces[0] = StepPiece(Interval(lo, min(hi, first.support.hi)),
                                      first.density)
            last = pieces[-1]
            if last.support.hi > hi:
                pieces[-1] = StepPiece(Interval(max(lo, last.support.lo), hi),
                                       last.density)
        return Measure(atoms, pieces)

    def complement_restrict(self, interval: Interval) -> "Measure":
        """The measure restricted to the open complement of the interval."""
        lo, hi = interval.lo, interval.hi
        axs = self._axs
        atoms = (self.atoms[:bisect_left(axs, lo)]
                 + self.atoms[bisect_right(axs, hi):])
        k0, k1 = self._piece_range(lo, hi)
        pieces = list(self.pieces[:k0])
        if k0 < k1:
            first, last = self.pieces[k0], self.pieces[k1 - 1]
            if first.support.lo < lo:
                pieces.append(StepPiece(Interval(first.support.lo, lo), first.density))
            if last.support.hi > hi:
                pieces.append(StepPiece(Interval(hi, last.support.hi), last.density))
        pieces += self.pieces[k1:]
        return Measure(atoms, pieces)

    def _piece_range(self, lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """(k0, k1) such that pieces[k0:k1] meet (lo, hi) in positive length;
        pieces[:k0] end at or before lo and pieces[k1:] start at or after hi."""
        return bisect_right(self._phi, lo), bisect_left(self._plo, hi)

    def moments(self, interval: Interval) -> tuple[Fraction, Fraction, Fraction]:
        """(mass, mean, second moment E[x^2]) of the restriction; exact.

        Raises ZeroMassError when the restricted mass vanishes.
        """
        m = self.mass(interval)
        if m == 0:
            raise ZeroMassError(f"no mass on {interval}")
        first = Fraction(0)
        second = Fraction(0)
        i0 = bisect_left(self._axs, interval.lo)
        i1 = bisect_right(self._axs, interval.hi)
        for a in self.atoms[i0:i1]:
            first += a.mass * a.x
            second += a.mass * a.x * a.x
        k0, k1 = self._piece_range(interval.lo, interval.hi)
        for p in self.pieces[k0:k1]:
            lo = max(interval.lo, p.support.lo)
            hi = min(interval.hi, p.support.hi)
            first += p.density * (hi * hi - lo * lo) / 2
            second += p.density * (hi ** 3 - lo ** 3) / 3
        return m, first / m, second / m

    def variance(self, interval: Interval) -> Fraction:
        m, mean, second = self.moments(interval)
        return second - mean * mean

    def density_at(self, x: RatLike) -> Fraction:
        """Density of the absolutely continuous part, half-open convention."""
        x = rat(x)
        k = bisect_right(self._plo, x) - 1
        if k >= 0 and x < self._phi[k]:
            return self.pieces[k].density
        return Fraction(0)

    def support(self) -> Interval | None:
        """Smallest closed interval carrying all mass, or None if zero."""
        xs = [a.x for a in self.atoms] + [p.support.lo for p in self.pieces]
        ys = [a.x for a in self.atoms] + [p.support.hi for p in self.pieces]
        if not xs:
            return None
        lo, hi = min(xs), max(ys)
        if lo == hi:  # single atom: pad so the result is a valid interval
            return Interval(lo - 1, hi + 1)
        return Interval(lo, hi)

    def float_data(self):
        """Cached numpy views (piece lo/hi/density, atom x/mass) for fast paths.

        Every entry is the correctly rounded float of its exact value, as
        ``float(Fraction)`` gives it.  A piece's hi that is the very object
        of its right neighbour's lo (as constructions emit them) is
        converted once.
        """
        if self._floats is None:
            import numpy as np

            los, his = self._plo, self._phi
            plo = _to_floats(los)
            phi = [f if h is lo else h.numerator / h.denominator
                   for h, lo, f in zip(his, los[1:], plo[1:])]
            if his:
                phi.append(his[-1].numerator / his[-1].denominator)
            self._floats = (
                np.array(plo),
                np.array(phi),
                np.array(_to_floats([p.density for p in self.pieces])),
                np.array(_to_floats(self._axs)),
                np.array(_to_floats([a.mass for a in self.atoms])),
            )
        return self._floats

    def mass_many(self, lo, hi):
        """Float masses of the closed intervals [lo[i], hi[i]] (float arrays).

        The float screen of `mass`, split as `mass` splits it: the atoms and
        the pieces wholly inside an interval come from a difference of the
        exact integer prefix sums, rounded once, and the at most two pieces
        cut by its endpoints add their float overlaps.  So the relative
        error is a few ulps whatever the mass outside the interval, and an
        interval of mass 0 gets exactly 0.0.
        """
        import numpy as np

        if lo.size > _MANY_ROWS:
            return np.concatenate([
                self.mass_many(lo[s:s + _MANY_ROWS], hi[s:s + _MANY_ROWS])
                for s in range(0, lo.size, _MANY_ROWS)])
        plo, phi, pden, ax, _ = self.float_data()
        out = np.zeros(lo.size)
        if ax.size:
            out += _prefix_diff(self._acum, self._aden,
                                np.searchsorted(ax, lo, "left"),
                                np.searchsorted(ax, hi, "right"))
        if plo.size:
            k0 = np.searchsorted(phi, lo, "right")       # first piece with hi > lo
            k1 = np.searchsorted(plo, hi, "left") - 1    # last piece with lo < hi
            first = np.minimum(k0, plo.size - 1)
            last = np.maximum(k1, 0)
            cut_first = pden[first] * (np.minimum(phi[first], hi)
                                       - np.maximum(plo[first], lo))
            cut_last = pden[last] * (np.minimum(phi[last], hi)
                                     - np.maximum(plo[last], lo))
            inner = _prefix_diff(self._pcum, self._pden, k0 + 1, k1)
            out += np.where(k1 < k0, 0.0,
                            np.where(k0 == k1, cut_first, cut_first + cut_last + inner))
        return out

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Measure) and self.atoms == other.atoms
                and self.pieces == other.pieces)

    def __hash__(self):
        return hash((self.atoms, self.pieces))

    def __repr__(self):
        return f"Measure(atoms={len(self.atoms)}, pieces={len(self.pieces)})"


class DyadicMasses:
    """Exact masses of the dyadic cells of a root interval, down to a depth.

    Cell (d, k), 0 <= d <= depth and 0 <= k < 2^d, is the k-th of the 2^d
    equal parts of the root.  Its mass is counted as
    ``mu.mass(cell, include_hi=(cell.hi == root.hi))`` counts it: half-open,
    except that the last cell of each depth keeps the atom at root.hi.

    `mass(d, k)` gives that mass as an int over the common denominator
    `den`: the difference of an integer cumulative mass F(x) = mu((-inf, x))
    at two of the grid points root.lo + j|root|/2^depth, plus the atom at
    root.hi for a last cell.  F is read from the measure's prefix sums at a
    grid point the first time a cell needs it and kept, so time and memory
    follow the cells a search visits, never 2^depth.
    """

    __slots__ = ("mu", "root", "depth", "den", "_x0", "_dx", "_g", "_n",
                 "_ascale", "_pscale", "_hi_atom", "_cum")

    def __init__(self, mu: Measure, root: Interval, depth: int):
        self.mu, self.root, self.depth = mu, root, depth
        lo, length = root.lo, root.length
        # grid point j is (_x0 + j*_dx) / _g
        base = math.lcm(lo.denominator, length.denominator)
        self._g = base << depth
        self._x0 = lo.numerator * (self._g // lo.denominator)
        self._dx = length.numerator * (base // length.denominator)
        self._n = 1 << depth
        # a piece that holds a grid point inside it adds
        # density * (x - piece.lo), whose denominator divides
        # density.den * piece.lo.den * _g
        k0, k1 = mu._piece_range(root.lo, root.hi)
        cut = math.lcm(*{p.density.denominator * p.support.lo.denominator
                         for p in mu.pieces[k0:k1]})
        self.den = math.lcm(mu._aden, mu._pden, cut * self._g)
        self._ascale = self.den // mu._aden
        self._pscale = self.den // mu._pden
        i = bisect_left(mu._axs, root.hi)
        self._hi_atom = ((mu._acum[i + 1] - mu._acum[i]) * self._ascale
                         if i < len(mu._axs) and mu._axs[i] == root.hi else 0)
        self._cum: dict[int, tuple[int, int]] = {}

    def _below(self, j: int) -> tuple[int, int]:
        """(number of atoms, den * F) at grid point j."""
        hit = self._cum.get(j)
        if hit is None:
            mu, g = self.mu, self._g
            num = self._x0 + j * self._dx
            x = Fraction(num, g)
            i = bisect_left(mu._axs, x)
            k = bisect_right(mu._phi, x)             # first piece with hi > x
            total = mu._acum[i] * self._ascale + mu._pcum[k] * self._pscale
            if k < len(mu._plo) and mu._plo[k] < x:
                lo, d = mu._plo[k], mu.pieces[k].density
                total += (d.numerator * (num * lo.denominator - lo.numerator * g)
                          * (self.den // (d.denominator * lo.denominator * g)))
            hit = self._cum[j] = (i, total)
        return hit

    def _span(self, d: int, k: int) -> tuple[int, int]:
        s = self.depth - d
        return k << s, (k + 1) << s

    def mass(self, d: int, k: int) -> int:
        """den * (mass of cell (d, k))."""
        j0, j1 = self._span(d, k)
        m = self._below(j1)[1] - self._below(j0)[1]
        return m + self._hi_atom if j1 == self._n else m

    def has_atom(self, d: int, k: int) -> bool:
        """Whether an atom of mu lies in cell (d, k), as `mass` counts it."""
        j0, j1 = self._span(d, k)
        return (self._below(j1)[0] > self._below(j0)[0]
                or j1 == self._n and self._hi_atom > 0)

    def interval(self, d: int, k: int) -> Interval:
        """Cell (d, k) as an exact Interval."""
        j0, j1 = self._span(d, k)
        return Interval(Fraction(self._x0 + j0 * self._dx, self._g),
                        Fraction(self._x0 + j1 * self._dx, self._g))

    def grid_index(self, x: Fraction) -> int | None:
        """j when x is the grid point root.lo + j|root|/2^depth, else None."""
        num, rem = divmod(x.numerator * self._g, x.denominator)
        if rem:
            return None
        j, rem = divmod(num - self._x0, self._dx)
        return None if rem or not 0 <= j <= self._n else j


def _to_floats(xs) -> list[float]:
    """Correctly rounded floats of Fractions (what ``float(x)`` computes)."""
    return [x.numerator / x.denominator for x in xs]


def _prefix_diff(cum: list[int], den: int, i, j):
    """Float array of (cum[j] - cum[i]) / den, correctly rounded, 0.0 where
    j <= i, for index arrays i and j."""
    import numpy as np

    return np.fromiter(((cum[b] - cum[a]) / den if b > a else 0.0
                        for a, b in zip(i.tolist(), j.tolist())), float, len(i))


def _prefix_sums(masses: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Running sums of masses num/den (den > 0) as ints over their common
    denominator D: returns ([0, n_0 D/d_0, ...], D)."""
    masses = list(masses)
    dens = {d for _, d in masses}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return [0, *accumulate(n * scale[d] for n, d in masses)], den


def _piece_mass(p: StepPiece) -> tuple[int, int]:
    """density * (hi - lo) as a reduced (numerator, denominator) pair."""
    lo, hi, density = p.support.lo, p.support.hi, p.density
    lden = math.lcm(lo.denominator, hi.denominator)
    lnum = hi.numerator * (lden // hi.denominator) - lo.numerator * (lden // lo.denominator)
    num = density.numerator * lnum
    den = density.denominator * lden
    g = math.gcd(num, den)
    return num // g, den // g


def _canonical_atoms(atoms: tuple[Atom, ...]) -> tuple[Atom, ...]:
    if (all(a.mass > 0 for a in atoms)
            and all(a.x < b.x for a, b in zip(atoms, atoms[1:]))):
        return atoms
    merged: dict[Fraction, Fraction] = {}
    for a in atoms:
        merged[a.x] = merged.get(a.x, Fraction(0)) + a.mass
    return tuple(Atom(x, m) for x, m in sorted(merged.items()) if m > 0)


def _canonical_pieces(pieces: tuple[StepPiece, ...]) -> tuple[StepPiece, ...]:
    """Pieces sorted, equal-density neighbours merged, zero densities dropped.

    Input that already has that form is returned after one linear pass;
    anything else is sorted and merged.  Neighbours that share one breakpoint
    object (as constructions emit them) are matched by identity, which saves
    a Fraction comparison per piece.
    """
    prev = None
    for p in pieces:
        if p.density == 0:
            return _sort_and_merge(pieces)
        if prev is not None:
            lo, prev_hi = p.support.lo, prev.support.hi
            if lo is prev_hi or lo == prev_hi:
                if p.density == prev.density:
                    return _sort_and_merge(pieces)
            elif lo < prev_hi:
                return _sort_and_merge(pieces)
        prev = p
    return pieces


def _sort_and_merge(pieces: tuple[StepPiece, ...]) -> tuple[StepPiece, ...]:
    live = sorted((p for p in pieces if p.density > 0),
                  key=lambda p: (p.support.lo, p.support.hi))
    out: list[StepPiece] = []
    for p in live:
        if out and p.support.lo < out[-1].support.hi:
            raise OverlappingStepsError(
                f"pieces {out[-1].support} and {p.support} overlap")
        if (out and p.support.lo == out[-1].support.hi
                and p.density == out[-1].density):
            prev = out.pop()
            p = StepPiece(Interval(prev.support.lo, p.support.hi), p.density)
        out.append(p)
    return tuple(out)


def _superpose(pieces: list[StepPiece]) -> list[StepPiece]:
    """Sum of step densities with arbitrary overlaps, as disjoint pieces."""
    if not pieces:
        return []
    cuts = sorted({p.support.lo for p in pieces} | {p.support.hi for p in pieces})
    events = sorted(pieces, key=lambda p: p.support.lo)
    out = []
    j = 0
    active: list[StepPiece] = []
    for lo, hi in zip(cuts, cuts[1:]):
        while j < len(events) and events[j].support.lo <= lo:
            active.append(events[j])
            j += 1
        active = [p for p in active if p.support.hi > lo]
        dens = sum((p.density for p in active), Fraction(0))
        if dens > 0:
            out.append(StepPiece(Interval(lo, hi), dens))
    return out
