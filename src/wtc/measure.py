"""Exact measures on the real line: point atoms plus piecewise-constant densities.

A measure is stored as sorted columns of Python ints, each over one shared
denominator: the positions (atom points and piece endpoints) over one, the
atom masses over another and the piece densities over a third.  Each
denominator is the least common multiple of the reduced denominators of its
entries, so a measure has exactly one set of columns and equality compares
them.  Measures are immutable after construction and canonicalized (sorted,
merged, zero parts dropped), which makes every operation safe to share
across workers.  `atoms` and `pieces` are read-only sequence views that
build an `Atom` or `StepPiece` (`fractions.Fraction` data) only for the
entries read, so a measure with half a million pieces holds no per-piece
objects.  `columns()` gives the columns themselves, in the argument order of
`Measure.from_columns`, for code that works on the ints (the exact kernels
and the measure-file writer).

Each measure builds two prefix-sum columns once, over its atom masses and
its piece masses, so an interval-mass query subtracts two ints.  Query
points are mapped onto the position denominator by one floor or ceiling,
and `mass`, `restrict`, `complement_restrict`, `moments` and `density_at`
bisect the int columns; `restrict` and `complement_restrict` slice them and
clip the two end pieces.  `DyadicMasses` reads the masses of the dyadic
cells of a root interval from the same columns, as differences of an
integer cumulative mass at the grid points.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import eq, le, lt, mul, sub
from typing import NamedTuple, Union

from .errors import OverlappingStepsError, ParamDomainError, ZeroMassError

RatLike = Union[Fraction, int, str]

# `mass_many` works through its intervals this many at a time, which bounds
# its temporary arrays.
_MANY_ROWS = 4096

# Ints below this convert to float64 exactly, so numpy's division of two of
# them is correctly rounded, as Python's int / int is.
_EXACT_FLOAT = 1 << 53


def rat(x: RatLike) -> Fraction:
    """Coerce ints, strings ('3/2', '0.25') and Fractions to Fraction.

    Floats are accepted too and converted exactly (they are binary rationals).
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def whole(v, what: str, least: int | None = 0, most: int | None = None) -> int:
    """v as an int when it is an int or a Fraction with denominator 1 (not a
    bool) in [least, most], None leaving that side open; every count, depth,
    level and integer exponent of the library is checked here.  Otherwise
    raise ParamDomainError naming `what`."""
    if (isinstance(v, (int, Fraction)) and not isinstance(v, bool) and v.denominator == 1
            and (least is None or v >= least) and (most is None or v <= most)):
        return int(v)
    span = f"[{'-inf' if least is None else least}, {'inf' if most is None else most}]"
    raise ParamDomainError(f"{what} {v} is not a whole number in {span}")


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if not self.lo < self.hi:
            raise ParamDomainError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_point(self, x: RatLike) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

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
            raise ParamDomainError(f"negative atom mass {self.mass}")


@dataclass(frozen=True, slots=True)
class StepPiece:
    """Constant density on a support interval."""

    support: Interval
    density: Fraction

    def __post_init__(self):
        object.__setattr__(self, "density", rat(self.density))
        if self.density < 0:
            raise ParamDomainError(f"negative density {self.density}")

    @property
    def mass(self) -> Fraction:
        return self.density * self.support.length


class Columns(NamedTuple):
    """A measure's columns: pieces [lo[i]/den, hi[i]/den] of density
    density[i]/density_den and atoms of mass atom_mass[i]/mass_den at
    atom_x[i]/den, sorted, with every entry an int."""

    den: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    density: tuple[int, ...]
    density_den: int
    atom_x: tuple[int, ...]
    atom_mass: tuple[int, ...]
    mass_den: int


class _View(Sequence):
    """Read-only sequence whose i-th element is built by ``item(i)`` when read.

    Compares equal to a tuple or view with equal elements, in order.
    """

    __slots__ = ("_n", "_item")

    def __init__(self, n: int, item):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._item, range(*i.indices(self._n))))
        if not -self._n <= i < self._n:
            raise IndexError("measure view index out of range")
        return self._item(i % self._n)

    def __eq__(self, other):
        if not isinstance(other, (tuple, _View)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self):
        return repr(tuple(self))


class Measure:
    """A locally finite positive measure: finitely many atoms + step pieces.

    Pieces must be disjoint up to shared endpoints.  Use ``a + b`` to
    superpose measures with overlapping supports (densities add).

    Columns (lists of ints, never mutated once set): atom points ``_ax`` and
    piece endpoints ``_plo``/``_phi`` over ``_xden``, atom masses ``_am``
    over ``_mden``, piece densities ``_pd`` over ``_dden``.  ``_acum`` and
    ``_pcum`` are running sums of the atom masses (over ``_mden``) and of
    the piece masses (over ``_dden * _xden``), each starting at 0.
    """

    __slots__ = ("_xden", "_ax", "_plo", "_phi", "_am", "_mden", "_pd", "_dden",
                 "_acum", "_pcum", "_floats")

    def __init__(self, atoms: Iterable[Atom] = (), pieces: Iterable[StepPiece] = ()):
        atoms, pieces = tuple(atoms), tuple(pieces)
        cols = _object_columns(atoms, pieces)
        self._fill(*(cols if _canonical(*cols) else _canonicalize(*cols)))

    def _fill(self, xden, ax, am, mden, plo, phi, pd, dden):
        """Set the columns, reducing each denominator to the lcm of its
        entries' reduced denominators, and build the prefix sums."""
        xden, (ax, plo, phi) = _reduce(xden, ax, plo, phi)
        mden, (am,) = _reduce(mden, am)
        dden, (pd,) = _reduce(dden, pd)
        self._xden, self._ax, self._plo, self._phi = xden, ax, plo, phi
        self._am, self._mden, self._pd, self._dden = am, mden, pd, dden
        self._acum = [0, *accumulate(am)]
        self._pcum = [0, *accumulate(map(mul, pd, map(sub, phi, plo)))]
        self._floats = None

    @classmethod
    def _make(cls, *cols) -> "Measure":
        """A measure from columns already in canonical order (not checked)."""
        m = object.__new__(cls)
        m._fill(*cols)
        return m

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_columns(cls, den: int, lo: Sequence[int], hi: Sequence[int],
                     density: Sequence[int], density_den: int = 1,
                     atom_x: Sequence[int] = (), atom_mass: Sequence[int] = (),
                     mass_den: int = 1) -> "Measure":
        """The measure with pieces [lo[i]/den, hi[i]/den] of density
        density[i]/density_den and atoms of mass atom_mass[i]/mass_den at
        atom_x[i]/den; every entry is an int.

        Columns that are already sorted, disjoint and merged are taken as
        they are after one linear check; anything else is canonicalized as
        ``Measure(atoms, pieces)`` would, with the same errors.
        """
        lo, hi, density, atom_x, atom_mass = map(list, (lo, hi, density, atom_x, atom_mass))
        if min(den, density_den, mass_den) <= 0:
            raise ParamDomainError("column denominators must be positive")
        if not len(lo) == len(hi) == len(density) or len(atom_x) != len(atom_mass):
            raise ParamDomainError("columns of one kind must have equal lengths")
        if density and min(density) < 0 or atom_mass and min(atom_mass) < 0:
            raise ParamDomainError("negative density or atom mass")
        if not all(map(lt, lo, hi)):
            raise ParamDomainError("degenerate piece: lo must be below hi")
        cols = (den, atom_x, atom_mass, mass_den, lo, hi, density, density_den)
        return cls._make(*(cols if _canonical(*cols) else _canonicalize(*cols)))

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

    # -- views ---------------------------------------------------------------

    @property
    def atoms(self) -> Sequence[Atom]:
        """The atoms in increasing position, built on demand."""
        return _View(len(self._ax), self._atom)

    @property
    def pieces(self) -> Sequence[StepPiece]:
        """The step pieces in increasing position, built on demand."""
        return _View(len(self._plo), self._piece)

    def _atom(self, i: int) -> Atom:
        return Atom(Fraction(self._ax[i], self._xden), Fraction(self._am[i], self._mden))

    def _piece(self, i: int) -> StepPiece:
        den = self._xden
        return StepPiece(Interval(Fraction(self._plo[i], den), Fraction(self._phi[i], den)),
                         Fraction(self._pd[i], self._dden))

    def columns(self) -> Columns:
        """The int columns, in `from_columns` argument order, as tuples:
        ``Measure.from_columns(*mu.columns()) == mu``."""
        return Columns(self._xden, tuple(self._plo), tuple(self._phi), tuple(self._pd),
                       self._dden, tuple(self._ax), tuple(self._am), self._mden)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Measure") -> "Measure":
        if not isinstance(other, Measure):
            return NotImplemented
        xden, (ax, plo, phi) = _joined(self._xden, (self._ax, self._plo, self._phi),
                                       other._xden, (other._ax, other._plo, other._phi))
        mden, (am,) = _joined(self._mden, (self._am,), other._mden, (other._am,))
        dden, (pd,) = _joined(self._dden, (self._pd,), other._dden, (other._pd,))
        return Measure._make(*_canonicalize(xden, ax, am, mden, plo, phi, pd, dden, add=True))

    def scale(self, c: RatLike) -> "Measure":
        c = rat(c)
        if c < 0:
            raise ParamDomainError("scale factor must be nonnegative")
        if c == 0:
            return Measure()
        n, d = c.numerator, c.denominator
        return Measure._make(self._xden, self._ax, [m * n for m in self._am],
                             self._mden * d, self._plo, self._phi,
                             [v * n for v in self._pd], self._dden * d)

    def translate(self, dx: RatLike) -> "Measure":
        """Pushforward under x -> x + dx."""
        dx = rat(dx)
        den = math.lcm(self._xden, dx.denominator)
        f, t = den // self._xden, dx.numerator * (den // dx.denominator)
        ax, plo, phi = ([v * f + t for v in col] for col in (self._ax, self._plo, self._phi))
        return Measure._make(den, ax, self._am, self._mden, plo, phi, self._pd, self._dden)

    def dilate(self, lam: RatLike) -> "Measure":
        """Pushforward under x -> lam*x (lam > 0); masses are preserved."""
        lam = rat(lam)
        if lam <= 0:
            raise ParamDomainError("dilation factor must be positive")
        n, d = lam.numerator, lam.denominator
        ax, plo, phi = ([v * n for v in col] for col in (self._ax, self._plo, self._phi))
        return Measure._make(self._xden * d, ax, self._am, self._mden, plo, phi,
                             [v * d for v in self._pd], self._dden * n)

    # -- queries -------------------------------------------------------------

    def mass(self, interval: Interval, include_hi: bool = True) -> Fraction:
        """Exact mass of [lo, hi] (closed) or [lo, hi) when include_hi=False.

        Step pieces contribute by overlap length either way; only atoms on
        the right endpoint are affected by the convention.
        """
        a, b = interval.lo, interval.hi
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        den, ax = self._xden, self._ax
        i0 = bisect_left(ax, _ceil(a, den))
        i1 = (bisect_right(ax, _floor(b, den)) if include_hi
              else bisect_left(ax, _ceil(b, den)))
        atoms = self._acum[i1] - self._acum[i0]
        s = ad * bd
        pieces = self._density_mass(an * den * bd, bn * den * ad, s)
        pden = self._dden * den * s
        return Fraction(atoms * pden + pieces * self._mden, self._mden * pden)

    def _density_mass(self, lo: int, hi: int, s: int) -> int:
        """Piece mass of [lo, hi], endpoints given over _xden * s, as an int
        over _dden * _xden * s."""
        plo, phi, pd = self._plo, self._phi, self._pd
        k0 = bisect_right(phi, lo // s)               # first piece with hi > lo
        k1 = bisect_left(plo, -(-hi // s)) - 1        # last piece with lo < hi
        if k1 < k0:
            return 0
        if k0 == k1:
            return pd[k0] * (min(hi, phi[k0] * s) - max(lo, plo[k0] * s))
        return ((self._pcum[k1] - self._pcum[k0 + 1]) * s
                + pd[k0] * (phi[k0] * s - max(lo, plo[k0] * s))
                + pd[k1] * (min(hi, phi[k1] * s) - plo[k1] * s))

    def total_mass(self) -> Fraction:
        return (Fraction(self._acum[-1], self._mden)
                + Fraction(self._pcum[-1], self._dden * self._xden))

    def is_zero(self) -> bool:
        return not self._ax and not self._plo

    def restrict(self, interval: Interval) -> "Measure":
        """The measure 1_I * mu (closed-interval convention for atoms).

        Returns ``self`` when I covers every atom and piece; measures are
        immutable, so sharing is safe.
        """
        den, lo, hi = self._xden, interval.lo, interval.hi
        ends = self._ax[:1] + self._plo[:1]
        if not ends or (_ceil(lo, den) <= min(ends)
                        and max(self._ax[-1:] + self._phi[-1:]) <= _floor(hi, den)):
            return self
        ax, am = self._ax, self._am
        i0, i1 = bisect_left(ax, _ceil(lo, den)), bisect_right(ax, _floor(hi, den))
        k0, k1 = self._piece_range(lo, hi)
        ax, am = ax[i0:i1], am[i0:i1]
        plo, phi, pd = self._plo[k0:k1], self._phi[k0:k1], self._pd[k0:k1]
        if plo and (plo[0] * lo.denominator < lo.numerator * den
                    or phi[-1] * hi.denominator > hi.numerator * den):
            den, (ax, plo, phi), (lo_n, hi_n) = _with_points(den, (ax, plo, phi), lo, hi)
            plo[0] = max(plo[0], lo_n)
            phi[-1] = min(phi[-1], hi_n)
        return Measure._make(den, ax, am, self._mden, plo, phi, pd, self._dden)

    def complement_restrict(self, interval: Interval) -> "Measure":
        """The measure restricted to the open complement of the interval."""
        den, lo, hi = self._xden, interval.lo, interval.hi
        ax, am = self._ax, self._am
        i0, i1 = bisect_left(ax, _ceil(lo, den)), bisect_right(ax, _floor(hi, den))
        ax, am = ax[:i0] + ax[i1:], am[:i0] + am[i1:]
        k0, k1 = self._piece_range(lo, hi)
        plo, phi, pd = self._plo, self._phi, self._pd
        if k0 == k1:
            return Measure._make(den, ax, am, self._mden, plo, phi, pd, self._dden)
        den, (ax, plo, phi), (lo_n, hi_n) = _with_points(den, (ax, plo, phi), lo, hi)
        cuts = []                       # (lo, hi, density) of the parts outside I
        if plo[k0] < lo_n:
            cuts.append((plo[k0], lo_n, pd[k0]))
        if phi[k1 - 1] > hi_n:
            cuts.append((hi_n, phi[k1 - 1], pd[k1 - 1]))
        cut_lo, cut_hi, cut_d = (list(c) for c in zip(*cuts)) if cuts else ([], [], [])
        return Measure._make(den, ax, am, self._mden, plo[:k0] + cut_lo + plo[k1:],
                             phi[:k0] + cut_hi + phi[k1:], pd[:k0] + cut_d + pd[k1:],
                             self._dden)

    def _piece_range(self, lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """(k0, k1) such that pieces[k0:k1] meet (lo, hi) in positive length;
        pieces[:k0] end at or before lo and pieces[k1:] start at or after hi."""
        den = self._xden
        return bisect_right(self._phi, _floor(lo, den)), bisect_left(self._plo, _ceil(hi, den))

    def moments(self, interval: Interval) -> tuple[Fraction, Fraction, Fraction]:
        """(mass, mean, second moment E[x^2]) of the restriction; exact.

        Raises ZeroMassError when the restricted mass vanishes.
        """
        m = self.mass(interval)
        if m == 0:
            raise ZeroMassError(f"no mass on {interval}")
        lo, hi = interval.lo, interval.hi
        den, mden, dden = self._xden, self._mden, self._dden
        i0 = bisect_left(self._ax, _ceil(lo, den))
        i1 = bisect_right(self._ax, _floor(hi, den))
        xs, ws = self._ax[i0:i1], self._am[i0:i1]
        first = Fraction(sum(map(mul, ws, xs)), mden * den)
        second = Fraction(sum(w * x * x for w, x in zip(ws, xs)), mden * den * den)
        k0, k1 = self._piece_range(lo, hi)
        if k0 < k1:
            # endpoints over den * s; the two end pieces are clipped to I
            s = lo.denominator * hi.denominator
            plo = [v * s for v in self._plo[k0:k1]]
            phi = [v * s for v in self._phi[k0:k1]]
            plo[0] = max(plo[0], lo.numerator * den * hi.denominator)
            phi[-1] = min(phi[-1], hi.numerator * den * lo.denominator)
            pd = self._pd[k0:k1]
            xd = den * s
            first += Fraction(sum(d * (b * b - a * a) for a, b, d in zip(plo, phi, pd)),
                              2 * dden * xd * xd)
            second += Fraction(sum(d * (b ** 3 - a ** 3) for a, b, d in zip(plo, phi, pd)),
                               3 * dden * xd ** 3)
        return m, first / m, second / m

    def variance(self, interval: Interval) -> Fraction:
        m, mean, second = self.moments(interval)
        return second - mean * mean

    def density_at(self, x: RatLike) -> Fraction:
        """Density of the absolutely continuous part, half-open convention."""
        x = _floor(rat(x), self._xden)
        k = bisect_right(self._plo, x) - 1
        if k >= 0 and x < self._phi[k]:
            return Fraction(self._pd[k], self._dden)
        return Fraction(0)

    def atom_at(self, x: RatLike) -> Fraction:
        """Mass of the atom at x (0 when there is none)."""
        i = self._atom_index(rat(x))
        return Fraction(0) if i is None else Fraction(self._am[i], self._mden)

    def _atom_index(self, x: Fraction) -> int | None:
        i = bisect_left(self._ax, _ceil(x, self._xden))
        if i < len(self._ax) and self._ax[i] * x.denominator == x.numerator * self._xden:
            return i
        return None

    def support(self) -> Interval | None:
        """Smallest closed interval carrying all mass, or None if zero."""
        ends = self._ax[:1] + self._plo[:1]
        if not ends:
            return None
        lo = Fraction(min(ends), self._xden)
        hi = Fraction(max(self._ax[-1:] + self._phi[-1:]), self._xden)
        if lo == hi:  # single atom: pad so the result is a valid interval
            return Interval(lo - 1, hi + 1)
        return Interval(lo, hi)

    def float_data(self):
        """Cached numpy views (piece lo/hi/density, atom x/mass) for fast paths.

        Every entry is the correctly rounded float of its exact value, as
        ``float(Fraction)`` gives it.
        """
        if self._floats is None:
            den = self._xden
            self._floats = (_float_column(self._plo, den), _float_column(self._phi, den),
                            _float_column(self._pd, self._dden),
                            _float_column(self._ax, den),
                            _float_column(self._am, self._mden))
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
            out += _prefix_diff(self._acum, self._mden,
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
            inner = _prefix_diff(self._pcum, self._dden * self._xden, k0 + 1, k1)
            out += np.where(k1 < k0, 0.0,
                            np.where(k0 == k1, cut_first, cut_first + cut_last + inner))
        return out

    # -- identity ------------------------------------------------------------

    def _key(self):
        return (self._xden, self._mden, self._dden,
                self._ax, self._am, self._plo, self._phi, self._pd)

    def __eq__(self, other):
        return isinstance(other, Measure) and self._key() == other._key()

    def __hash__(self):
        return hash(tuple(tuple(c) if isinstance(c, list) else c for c in self._key()))

    def __repr__(self):
        return f"Measure(atoms={len(self._ax)}, pieces={len(self._plo)})"


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
                 "_ascale", "_pscale", "_cscale", "_hi_atom", "_cum")

    def __init__(self, mu: Measure, root: Interval, depth: int):
        self.mu, self.root, self.depth = mu, root, depth
        lo, length = root.lo, root.length
        # grid point j is (_x0 + j*_dx) / _g
        base = math.lcm(lo.denominator, length.denominator)
        self._g = base << depth
        self._x0 = lo.numerator * (self._g // lo.denominator)
        self._dx = length.numerator * (base // length.denominator)
        self._n = 1 << depth
        # a piece that holds grid point x = num/_g inside it adds
        # density * (x - piece.lo) = pd * (num*_xden - plo*_g) / (_dden*_xden*_g)
        pden = mu._dden * mu._xden
        self.den = math.lcm(mu._mden, pden * self._g)
        self._ascale = self.den // mu._mden
        self._pscale = self.den // pden
        self._cscale = self.den // (pden * self._g)
        i = mu._atom_index(root.hi)
        self._hi_atom = 0 if i is None else mu._am[i] * self._ascale
        self._cum: dict[int, tuple[int, int]] = {}

    def _below(self, j: int) -> tuple[int, int]:
        """(number of atoms, den * F) at grid point j."""
        hit = self._cum.get(j)
        if hit is None:
            mu, g = self.mu, self._g
            num = (self._x0 + j * self._dx) * mu._xden      # x * _xden * _g
            i = bisect_left(mu._ax, -(-num // g))
            k = bisect_right(mu._phi, num // g)             # first piece with hi > x
            total = mu._acum[i] * self._ascale + mu._pcum[k] * self._pscale
            if k < len(mu._plo) and mu._plo[k] * g < num:
                total += mu._pd[k] * (num - mu._plo[k] * g) * self._cscale
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


def _floor(q: Fraction, den: int) -> int:
    """floor(q * den): v/den <= q exactly when the int v <= this."""
    return q.numerator * den // q.denominator


def _ceil(q: Fraction, den: int) -> int:
    """ceil(q * den): v/den >= q exactly when the int v >= this."""
    return -(-q.numerator * den // q.denominator)


def _reduce(den: int, *cols: list[int]) -> tuple[int, tuple[list[int], ...]]:
    """Columns over den brought to the lcm of their entries' reduced
    denominators, den / gcd(den, every entry); 1 when there is no entry."""
    g = den
    for col in cols:
        g = math.gcd(g, *col)
        if g == 1:
            return den, cols
    return den // g, tuple([v // g for v in col] for col in cols)


def _with_points(den: int, cols, *points: Fraction):
    """Columns over den and Fractions brought onto one denominator:
    (new den, the columns over it, the points' numerators).  The columns
    are new lists unless den already serves."""
    new = math.lcm(den, *(p.denominator for p in points))
    f = new // den
    if f == 1:
        return den, cols, tuple(p.numerator * (den // p.denominator) for p in points)
    return (new, tuple([v * f for v in col] for col in cols),
            tuple(p.numerator * (new // p.denominator) for p in points))


def _over_lcm(ratios: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """(D, numerators over D) of (numerator, denominator > 0) pairs, for D
    the lcm of their denominators."""
    dens = {d for _, d in ratios}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return den, [n * scale[d] for n, d in ratios]


def _object_columns(atoms: tuple[Atom, ...], pieces: tuple[StepPiece, ...]):
    """The columns of Atom and StepPiece sequences, in the given order:
    (xden, ax, am, mden, plo, phi, pd, dden)."""
    n, m = len(atoms), len(pieces)
    xs = [a.x for a in atoms] + [p.support.lo for p in pieces] + [p.support.hi for p in pieces]
    xden, xs = _over_lcm([v.as_integer_ratio() for v in xs])
    mden, am = _over_lcm([a.mass.as_integer_ratio() for a in atoms])
    dden, pd = _over_lcm([p.density.as_integer_ratio() for p in pieces])
    return xden, xs[:n], am, mden, xs[n:n + m], xs[n + m:], pd, dden


def _canonical(xden, ax, am, mden, plo, phi, pd, dden) -> bool:
    """Whether columns (with lo < hi per piece) are in canonical form: atoms
    strictly increasing with positive mass, pieces with positive density,
    each ending at or before the next starts, and no two touching
    neighbours of equal density."""
    if am and min(am) <= 0 or pd and min(pd) <= 0:
        return False
    if (not all(map(lt, ax, islice(ax, 1, None)))
            or not all(map(le, phi, islice(plo, 1, None)))):
        return False
    if not any(map(eq, pd, islice(pd, 1, None))):
        return True
    return not any(h == lo and d == e for h, lo, d, e
                   in zip(phi, islice(plo, 1, None), pd, islice(pd, 1, None)))


def _canonicalize(xden, ax, am, mden, plo, phi, pd, dden, add=False):
    """Columns (nonnegative entries, lo < hi per piece) in canonical form:
    atoms at one point added, zero masses and densities dropped, pieces
    sorted by (lo, hi) and touching pieces of equal density merged.  Pieces
    that overlap in positive length raise OverlappingStepsError, naming the
    previous (possibly merged) piece first, or with add=True are cut at
    every endpoint and their densities added."""
    masses: dict[int, int] = {}
    for x, m in zip(ax, am):
        masses[x] = masses.get(x, 0) + m
    ax = sorted(x for x, m in masses.items() if m > 0)
    am = [masses[x] for x in ax]
    if add:
        steps: dict[int, int] = {}      # density change at each endpoint
        for lo, hi, d in zip(plo, phi, pd):
            steps[lo] = steps.get(lo, 0) + d
            steps[hi] = steps.get(hi, 0) - d
        cuts = sorted(steps)
        plo, phi, pd = cuts[:-1], cuts[1:], list(accumulate(steps[c] for c in cuts[:-1]))
    rows = sorted(((lo, hi, d) for lo, hi, d in zip(plo, phi, pd) if d > 0),
                  key=lambda r: r[:2])
    plo, phi, pd = [], [], []
    for lo, hi, d in rows:
        if phi and lo < phi[-1]:
            raise OverlappingStepsError(f"pieces {_span(plo[-1], phi[-1], xden)} and "
                                        f"{_span(lo, hi, xden)} overlap")
        if phi and lo == phi[-1] and d == pd[-1]:
            phi[-1] = hi
        else:
            plo.append(lo)
            phi.append(hi)
            pd.append(d)
    return xden, ax, am, mden, plo, phi, pd, dden


def _span(lo: int, hi: int, den: int) -> Interval:
    return Interval(Fraction(lo, den), Fraction(hi, den))


def _joined(den1: int, cols1, den2: int, cols2) -> tuple[int, list[list[int]]]:
    """Columns over den1 and columns over den2, brought onto their lcm and
    joined pairwise: (lcm, [cols1[i] + cols2[i], ...])."""
    den = math.lcm(den1, den2)
    f1, f2 = den // den1, den // den2
    return den, [[v * f1 for v in c1] + [v * f2 for v in c2] for c1, c2 in zip(cols1, cols2)]


def _float_column(col: list[int], den: int):
    """float64 array of col[i] / den, each correctly rounded."""
    import numpy as np

    if den < _EXACT_FLOAT and (not col or -_EXACT_FLOAT < min(col) and max(col) < _EXACT_FLOAT):
        return np.array(col, dtype=float) / den
    return np.array([v / den for v in col], dtype=float)


def _prefix_diff(cum: list[int], den: int, i, j):
    """Float array of (cum[j] - cum[i]) / den, correctly rounded, 0.0 where
    j <= i, for index arrays i and j."""
    import numpy as np

    return np.fromiter(((cum[b] - cum[a]) / den if b > a else 0.0
                        for a, b in zip(i.tolist(), j.tolist())), float, len(i))
