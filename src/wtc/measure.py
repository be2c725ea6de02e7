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
and the measure-file writer).  `Measure.from_steps` builds a measure from
(lo, hi, density) rows through those columns, and ``a + b`` joins two
measures, adding densities where pieces overlap.

Each measure builds two prefix-sum columns once, over its atom masses and
its piece masses.  `_cumulative` reads from them, by bisection, the mass
below a point, mu((-inf, x)) or mu((-inf, x]), and every exact mass is a
difference of it at two points: an interval's in `mass`, an atom's in
`atom_at` and a dyadic cell's in `DyadicMasses`.  `restrict` and `moments`
read one clip of the columns to an interval, `_clip`, which slices them and
cuts the two end pieces; it and `complement_restrict` find what meets the
interval through one lookup, `_range`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import attrgetter, eq, le, lt, mul, sub
from typing import NamedTuple, Union

from .errors import OverlappingStepsError, ParamDomainError, ZeroMassError

RatLike = Union[Fraction, int, str]

# The batched float kernels (`Measure.mass_many`, and `_tail_many` and
# `energy_e2_many` in `functionals`) work through at most this many cells at
# a time (intervals, or intervals x atoms or pieces), which bounds each of
# their temporary arrays to 32 kB.
_CHUNK_CELLS = 4096

# `_reduce` takes the gcd over this many leading entries of each column
# before it takes it over a whole column
_GCD_PREFIX = 16
# Ints below this convert to float64 exactly, so numpy's division of two of
# them is correctly rounded, as Python's int / int is.
_EXACT_FLOAT = 1 << 53


def rat(x: RatLike, what: str = "value") -> Fraction:
    """x as a Fraction: the one owner of rational values (endpoints, masses,
    densities, factors, sizes and exponents taken exactly).  It takes ints,
    Fractions, strings ('3/2', '0.25') and floats, which are binary
    rationals and convert exactly; anything else, NaN and the infinities
    included, raises ParamDomainError naming `what`."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ParamDomainError(f"{what} {x!r:.40} is not a finite rational") from None


def real(x, what: str) -> float:
    """x as a float, for the float kernels: the one owner of real exponents
    taken in floats.  It takes what `rat` takes but a bool; a value past
    float range raises ParamDomainError naming `what`, as anything `rat`
    refuses does."""
    if isinstance(x, bool):
        raise ParamDomainError(f"{what} {x} is not a number")
    try:
        return float(rat(x, what))
    except OverflowError:
        raise ParamDomainError(f"{what} is past float range") from None


def is_whole(v) -> bool:
    """Whether v is a whole number: an int or a Fraction with denominator 1,
    never a bool or a float.  It is the one test of a whole value, so a
    kernel with an exact path at whole exponents takes it for 2 and
    Fraction(2) alike, and runs in floats at a float."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool) and v.denominator == 1


def whole(v, what: str, least: int | None = 0, most: int | None = None) -> int:
    """v as an int when `is_whole(v)` and v lies in [least, most], None
    leaving that side open: the one owner of counts, depths, levels and
    integer exponents.  Otherwise raise ParamDomainError naming `what`."""
    if is_whole(v) and (least is None or v >= least) and (most is None or v <= most):
        return int(v)
    span = f"[{'-inf' if least is None else least}, {'inf' if most is None else most}]"
    raise ParamDomainError(f"{what} {shown(v)} is not a whole number in {span}")


def dilation_factor(factor) -> Fraction:
    """A concentric dilation factor as a Fraction; one that is not a
    rational above 0 raises ParamDomainError naming it."""
    f = rat(factor, "dilation factor")
    if f <= 0:
        raise ParamDomainError(f"dilation factor {shown(f)} is not positive")
    return f


def shown(v) -> str:
    """v as an error message prints it: an int or Fraction of more than 64
    bits is named by its size, since Python refuses to print an int past its
    int-string digit limit and a long one would bury the message."""
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        if bits > 64:
            return f"<{bits}-bit number>"
    return str(v)


class Record:
    """Base of every value record in the library, built without
    `dataclasses`, whose import brings in `inspect`: about 10 ms of every
    CLI command's start.  A subclass names its fields in order in
    `__slots__` and sets them once in its `__init__` through `_set`.  It
    gets the repr ``Name(field=value!r, ...)``, equality with its own class
    only, the hash of its field values (TypeError when one is a dict or a
    list), pickling through `__init__`, and assignment refused
    (AttributeError) after `__init__`.  A `__dict__` slot is not a field:
    it holds cached properties.  A record has at least two fields, so
    `_values`, the tuple of their values, is one `attrgetter`."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("__"))
        cls._values = property(attrgetter(*cls._fields))

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Interval(Record):
    """Closed interval [lo, hi] with lo < hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RatLike, hi: RatLike):
        lo, hi = rat(lo, "interval end"), rat(hi, "interval end")
        if not lo < hi:
            raise ParamDomainError(f"degenerate interval [{shown(lo)}, {shown(hi)}]")
        # set directly, not through `_set`: intervals are built by the million
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

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
        """Concentric dilation factor*I, factor > 0."""
        f = dilation_factor(factor)
        p, q = f.numerator, f.denominator
        ad, bd = self.lo.denominator, self.hi.denominator
        a, b = self.lo.numerator * bd, self.hi.numerator * ad
        # over the denominator 2q*ad*bd, centre -+ factor*length/2 is
        # q(a + b) -+ p(b - a)
        c, half, den = q * (a + b), p * (b - a), 2 * q * ad * bd
        return Interval(Fraction(c - half, den), Fraction(c + half, den))

    def dist(self, x: RatLike) -> Fraction:
        """Distance from a point to the interval (0 inside)."""
        x = rat(x)
        if x < self.lo:
            return self.lo - x
        if x > self.hi:
            return x - self.hi
        return Fraction(0)

    def __str__(self):
        return f"[{shown(self.lo)},{shown(self.hi)}]"


class Atom(Record):
    """Point mass at x."""

    __slots__ = ("x", "mass")

    def __init__(self, x: RatLike, mass: RatLike):
        x, mass = rat(x), rat(mass)
        if mass < 0:
            raise ParamDomainError(f"negative atom mass {shown(mass)}")
        self._set(x, mass)


class StepPiece(Record):
    """Constant density on a support interval."""

    __slots__ = ("support", "density")

    def __init__(self, support: Interval, density: RatLike):
        density = rat(density)
        if density < 0:
            raise ParamDomainError(f"negative density {shown(density)}")
        self._set(support, density)


class Columns(NamedTuple):
    """A measure's columns: pieces [lo[i]/den, hi[i]/den] of density
    density[i]/density_den and atoms of mass atom_mass[i]/mass_den at
    atom_x[i]/den, sorted, with every entry an int.  A NamedTuple, not a
    `Record`, because it unpacks: ``Measure.from_columns(*mu.columns())``."""

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
        # canonical pieces are sorted, disjoint and each at least 1 long, so
        # they span exactly their count only when every one has length 1
        if plo and phi[-1] - plo[0] == len(plo):
            self._pcum = [0, *accumulate(pd)]
        else:
            self._pcum = [0, *accumulate(map(mul, pd, map(sub, phi, plo)))]
        self._floats = None             # (origin, views, ends), see `float_data`

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
        atom_x[i]/den.  An entry or denominator that is not an int (a bool
        is not) raises ParamDomainError.

        Columns that are already sorted, disjoint and merged are taken as
        they are after one linear check; anything else is canonicalized as
        ``Measure(atoms, pieces)`` would, with the same errors.
        """
        lo, hi, density, atom_x, atom_mass = map(list, (lo, hi, density, atom_x, atom_mass))
        if set(map(type, chain((den, density_den, mass_den), lo, hi, density, atom_x,
                               atom_mass))) - {int}:
            raise ParamDomainError("column entries and denominators must be ints")
        if min(den, density_den, mass_den) <= 0:
            raise ParamDomainError("column denominators must be positive")
        if not len(lo) == len(hi) == len(density) or len(atom_x) != len(atom_mass):
            raise ParamDomainError("columns of one kind must have equal lengths")
        cols = (den, atom_x, atom_mass, mass_den, lo, hi, density, density_den)
        # canonical columns hold only positive densities and masses
        canonical = _canonical(*cols)
        if not canonical and (density and min(density) < 0
                              or atom_mass and min(atom_mass) < 0):
            raise ParamDomainError("negative density or atom mass")
        if not all(map(lt, lo, hi)):
            raise ParamDomainError("degenerate piece: lo must be below hi")
        return cls._make(*(cols if canonical else _canonicalize(*cols)))

    @classmethod
    def point_mass(cls, x: RatLike, mass: RatLike = 1) -> "Measure":
        return cls(atoms=[Atom(rat(x), rat(mass))])

    @classmethod
    def lebesgue(cls, interval: Interval, density: RatLike = 1) -> "Measure":
        return cls(pieces=[StepPiece(interval, rat(density))])

    @classmethod
    def from_steps(cls, steps: Iterable[tuple[RatLike, RatLike, RatLike]]) -> "Measure":
        """The measure of (lo, hi, density) rows, each entry a value `rat`
        takes, built as int columns through `from_columns`: rows in any
        order, with the errors of ``Measure(pieces=...)``.  A row that is
        not a tuple or list of three raises ParamDomainError."""
        rows = list(steps)
        if any(not isinstance(row, (tuple, list)) or len(row) != 3 for row in rows):
            raise ParamDomainError("a step row is not three numbers (lo, hi, density)")
        den, ends = _over_lcm([rat(v, "step end").as_integer_ratio()
                               for row in rows for v in row[:2]])
        dden, density = _over_lcm([rat(row[2], "density").as_integer_ratio() for row in rows])
        return cls.from_columns(den, ends[0::2], ends[1::2], density, dden)

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
        return _superpose((self, other))

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
        lam = dilation_factor(lam)
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
        (an, ad), (bn, bd) = interval.lo.as_integer_ratio(), interval.hi.as_integer_ratio()
        return Fraction(self._mass_over(an * bd, bn * ad, ad * bd, include_hi),
                        self._mden * self._dden * self._xden * ad * bd)

    def _mass_over(self, lo: int, hi: int, g: int, closed: bool = True) -> int:
        """mu([lo/g, hi/g]), or mu([lo/g, hi/g)) when not closed, times
        _mden*_dden*_xden*g: an int, so masses over one g need no Fraction."""
        den = self._xden
        a0, p0 = self._cumulative(lo * den, g)
        a1, p1 = self._cumulative(hi * den, g, closed)
        return (a1 - a0) * self._dden * den * g + (p1 - p0) * self._mden

    def _cumulative(self, num: int, g: int, closed: bool = False) -> tuple[int, int]:
        """mu((-inf, x)), or mu((-inf, x]) when closed, at x = num/(_xden*g):
        (the atom mass over _mden, the piece mass over _dden*_xden*g).  Every
        exact mass of an interval, a dyadic cell or an atom is a difference
        of two of these."""
        ax, plo, phi = self._ax, self._plo, self._phi
        i = bisect_right(ax, num // g) if closed else bisect_left(ax, -(-num // g))
        k = bisect_right(phi, num // g)                 # first piece with hi > x
        pieces = self._pcum[k] * g
        if k < len(plo) and plo[k] * g < num:
            pieces += self._pd[k] * (num - plo[k] * g)
        return self._acum[i], pieces

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
        return Measure._make(*self._clip(interval))

    def _clip(self, interval: Interval):
        """The columns of 1_I * mu, in `_make` order: the atoms in I and the
        pieces that meet it, the two end pieces cut at I's ends over a
        position denominator that holds them."""
        lo, hi = interval.lo, interval.hi
        i0, i1, k0, k1 = self._range(lo, hi)
        den, ax, am = self._xden, self._ax[i0:i1], self._am[i0:i1]
        plo, phi, pd = self._plo[k0:k1], self._phi[k0:k1], self._pd[k0:k1]
        if plo and (plo[0] * lo.denominator < lo.numerator * den
                    or phi[-1] * hi.denominator > hi.numerator * den):
            den, (ax, plo, phi), (lo_n, hi_n) = _with_points(den, (ax, plo, phi), lo, hi)
            plo[0] = max(plo[0], lo_n)
            phi[-1] = min(phi[-1], hi_n)
        return den, ax, am, self._mden, plo, phi, pd, self._dden

    def complement_restrict(self, interval: Interval) -> "Measure":
        """The measure restricted to the open complement of the interval."""
        den, lo, hi = self._xden, interval.lo, interval.hi
        i0, i1, k0, k1 = self._range(lo, hi)
        ax, am = self._ax[:i0] + self._ax[i1:], self._am[:i0] + self._am[i1:]
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

    def _range(self, lo: Fraction, hi: Fraction) -> tuple[int, int, int, int]:
        """(i0, i1, k0, k1) such that atoms[i0:i1] lie in [lo, hi] and
        pieces[k0:k1] meet (lo, hi) in positive length; pieces[:k0] end at
        or before lo and pieces[k1:] start at or after hi."""
        den, ax = self._xden, self._ax
        return (bisect_left(ax, _ceil(lo, den)), bisect_right(ax, _floor(hi, den)),
                bisect_right(self._phi, _floor(lo, den)), bisect_left(self._plo, _ceil(hi, den)))

    def moments(self, interval: Interval) -> tuple[Fraction, Fraction, Fraction]:
        """(mass, mean, second moment E[x^2]) of the restriction; exact.

        Raises ZeroMassError when the restricted mass vanishes.
        """
        m = self.mass(interval)
        if m == 0:
            raise ZeroMassError(f"no mass on {interval}")
        den, xs, ws, mden, plo, phi, pd, dden = self._clip(interval)
        first = Fraction(sum(map(mul, ws, xs)), mden * den) + Fraction(
            sum(d * (b * b - a * a) for a, b, d in zip(plo, phi, pd)), 2 * dden * den ** 2)
        second = Fraction(sum(w * x * x for w, x in zip(ws, xs)), mden * den ** 2) + Fraction(
            sum(d * (b ** 3 - a ** 3) for a, b, d in zip(plo, phi, pd)), 3 * dden * den ** 3)
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
        n, g = rat(x).as_integer_ratio()
        return Fraction(self._mass_over(n, n, g), self._mden * self._dden * self._xden * g)

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

    def float_data(self, origin: int = 0):
        """Cached numpy views (piece lo/hi/density, atom x/mass) for fast
        paths, the positions as offsets from the whole number origin.

        Every entry is the correctly rounded float of its exact value, as
        ``float(Fraction)`` gives it, and every view is read-only.  When
        every piece has length 1 over the position denominator, lo and hi
        are the views ``[:-1]`` and ``[1:]`` of one array of the n + 1
        breakpoints, so they share a buffer.  Only the views of the last
        origin asked for are kept: a scan's screens read one origin, and
        only then does its certifier read origin 0.
        """
        origin = whole(origin, "origin", least=None)
        if self._floats is None or self._floats[0] != origin:
            import numpy as np

            den, off, plo, phi = self._xden, origin * self._xden, self._plo, self._phi

            def offsets(col):
                return _float_column([v - off for v in col] if off else col, den)

            if (plo and phi[-1] - plo[0] == len(plo)
                    and max(off - plo[0], phi[-1] - off, den) < _EXACT_FLOAT):
                # unit-length pieces (see `_fill`): breakpoint j is plo[0] - off
                # + j, an exact float below 2^53 as den is, so one division
                # rounds each as `_float_column` does
                ends = np.arange(len(plo) + 1, dtype=float)
                ends += plo[0] - off
                ends /= den
                ends.setflags(write=False)
                lo, hi = ends[:-1], ends[1:]
            else:
                ends, lo, hi = None, offsets(plo), offsets(phi)
            self._floats = origin, (lo, hi, _float_column(self._pd, self._dden),
                                    offsets(self._ax), _float_column(self._am, self._mden)), ends
        return self._floats[1]

    def _float_ends(self):
        """The n + 1 breakpoints at origin 0 as the one float array of which
        ``float_data()``'s lo and hi are views, when every piece has length
        1; None otherwise."""
        self.float_data()
        return self._floats[2]

    def mass_many(self, lo, hi, origin: int):
        """Float masses of the closed intervals [origin + lo[i], origin + hi[i]]
        (float arrays of offsets from the whole number origin).

        The float screen of `mass`: the atoms and the pieces wholly inside
        an interval come from a difference of the exact integer prefix
        sums, rounded once, and the at most two pieces cut by its endpoints
        add their float overlaps.  So, with offsets no larger than a few
        interval lengths (a scan family's `origin` keeps them so), the
        relative error is a few ulps whatever the mass outside the interval,
        and an interval of mass 0 gets exactly 0.0.
        """
        import numpy as np

        plo, phi, pden, ax, _ = self.float_data(origin)
        out = np.zeros(lo.size)
        for s in range(0, lo.size, _CHUNK_CELLS):
            a, b = lo[s:s + _CHUNK_CELLS], hi[s:s + _CHUNK_CELLS]
            block = out[s:s + _CHUNK_CELLS]  # a view: adding to it fills out
            if ax.size:
                block += _prefix_diff(self._acum, self._mden,
                                      np.searchsorted(ax, a, "left"),
                                      np.searchsorted(ax, b, "right"))
            if plo.size:
                k0 = np.searchsorted(phi, a, "right")       # first piece with hi > a
                k1 = np.searchsorted(plo, b, "left") - 1    # last piece with lo < b
                first = np.minimum(k0, plo.size - 1)
                last = np.maximum(k1, 0)
                cut_first = pden[first] * (np.minimum(phi[first], b)
                                           - np.maximum(plo[first], a))
                cut_last = pden[last] * (np.minimum(phi[last], b)
                                         - np.maximum(plo[last], a))
                inner = _prefix_diff(self._pcum, self._dden * self._xden, k0 + 1, k1)
                block += np.where(k1 < k0, 0.0,
                                  np.where(k0 == k1, cut_first, cut_first + cut_last + inner))
        return out

    def run_masses(self, starts, stops):
        """Float masses of the runs of pieces pieces[starts[i]:stops[i]] (int
        arrays), each the difference of the exact prefix sums rounded once."""
        return _prefix_diff(self._pcum, self._dden * self._xden, starts, stops)

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
    `den`: as every exact mass of a measure is, it is a difference of the
    measure's `_cumulative` mass F(x) = mu((-inf, x)) at two of the grid
    points root.lo + j|root|/2^depth, plus the atom at root.hi (F closed
    minus F open there) for a last cell.  F is read at a grid point the
    first time a cell needs it and kept, so time and memory follow the cells
    a search visits, never 2^depth.

    A cell's average is ``(mass(d, k) << d) / (den * |root|)``, and
    `density_bound` bounds it on that int scale for every cell under an
    atom-free one, so a search can stop where no average changes its result.
    """

    __slots__ = ("mu", "root", "depth", "den", "_x0", "_dx", "_g", "_n",
                 "_ascale", "_cscale", "_hi_atom", "_cum")

    def __init__(self, mu: Measure, root: Interval, depth: int):
        self.mu, self.root, self.depth = mu, root, depth
        lo, length = root.lo, root.length
        # grid point j is (_x0 + j*_dx) / _g
        base = math.lcm(lo.denominator, length.denominator)
        self._g = base << depth
        self._x0 = lo.numerator * (self._g // lo.denominator)
        self._dx = length.numerator * (base // length.denominator)
        self._n = 1 << depth
        # F holds atom mass over _mden and piece mass over _dden*_xden*_g
        pden = mu._dden * mu._xden * self._g
        self.den = math.lcm(mu._mden, pden)
        self._ascale = self.den // mu._mden
        self._cscale = self.den // pden
        self._cum: dict[int, tuple[int, int]] = {}
        closed = mu._cumulative((self._x0 + self._n * self._dx) * mu._xden, self._g, True)
        self._hi_atom = (closed[0] - self._below(self._n)[0]) * self._ascale

    def _below(self, j: int) -> tuple[int, int]:
        """(atom mass over mu._mden, den * F) at grid point j."""
        hit = self._cum.get(j)
        if hit is None:
            mu = self.mu
            atoms, pieces = mu._cumulative((self._x0 + j * self._dx) * mu._xden, self._g)
            hit = self._cum[j] = (atoms, atoms * self._ascale + pieces * self._cscale)
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
        # the atom mass below a grid point grows exactly where an atom is
        # passed, since a canonical measure holds positive atom masses only
        j0, j1 = self._span(d, k)
        return (self._below(j1)[0] > self._below(j0)[0]
                or j1 == self._n and self._hi_atom > 0)

    def density_bound(self, d: int, k: int) -> int | None:
        """An int at or above ``mass(e, j) << e`` for every cell (e, j)
        inside cell (d, k), at any depth e: den * |root| times the largest
        density of a piece meeting the cell in positive length.  None when
        it holds an atom (as `has_atom` counts it), or when mu has more
        pieces than the tree to `depth` has cells: scanning them for a bound
        would cost more than the walk it could save."""
        mu, g = self.mu, self._g
        if len(mu._pd) >= 2 << self.depth or self.has_atom(d, k):
            return None
        j0, j1 = self._span(d, k)
        k0 = bisect_right(mu._phi, (self._x0 + j0 * self._dx) * mu._xden // g)
        k1 = bisect_left(mu._plo, -(-(self._x0 + j1 * self._dx) * mu._xden // g))
        # den * |root| * density over _dden, since |root| * _g = _n * _dx
        return max(mu._pd[k0:k1], default=0) * self._cscale * mu._xden * self._n * self._dx

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
    # a short prefix most often brings the gcd to 1 already
    for col in (*(col[:_GCD_PREFIX] for col in cols), *cols):
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
        plo, phi, pd = cuts[:-1], cuts[1:], accumulate(steps[c] for c in cuts[:-1])
    rows = ((lo, hi, d) for lo, hi, d in zip(plo, phi, pd) if d > 0)
    if not add:                         # with add, the rows follow the sorted cuts
        rows = sorted(rows, key=lambda r: r[:2])
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


def _superpose(measures: Sequence["Measure"]) -> "Measure":
    """The sum of measures (see ``+``), joined in one canonicalizing pass."""
    xden, (ax, plo, phi) = _joined([(m._xden, (m._ax, m._plo, m._phi)) for m in measures])
    mden, (am,) = _joined([(m._mden, (m._am,)) for m in measures])
    dden, (pd,) = _joined([(m._dden, (m._pd,)) for m in measures])
    return Measure._make(*_canonicalize(xden, ax, am, mden, plo, phi, pd, dden, add=True))


def _joined(parts: list[tuple[int, tuple[list[int], ...]]]) -> tuple[int, list[list[int]]]:
    """(den, columns) pairs brought onto the lcm of their dens and joined
    column by column: (lcm, [joined column, ...])."""
    den = math.lcm(*(d for d, _ in parts))
    joined = [[] for _ in parts[0][1]]
    for d, cols in parts:
        f = den // d
        for out, col in zip(joined, cols):
            out += [v * f for v in col] if f > 1 else col
    return den, joined


def _float_column(col: list[int], den: int):
    """Read-only float64 array of col[i] / den, each correctly rounded."""
    import numpy as np

    arr = None
    if den < _EXACT_FLOAT:
        try:
            ints = np.array(col, dtype=np.int64)
        except OverflowError:  # an entry past the int64 range
            pass
        else:
            # below 2^53 every v converts to float exactly, as den does, so
            # one division rounds v/den correctly
            if not ints.size or -_EXACT_FLOAT < ints.min() and ints.max() < _EXACT_FLOAT:
                arr = ints.astype(float)
                arr /= den
    if arr is None:
        arr = np.array([v / den for v in col], dtype=float)
    arr.setflags(write=False)
    return arr


def _prefix_diff(cum: list[int], den: int, i, j):
    """Float array of (cum[j] - cum[i]) / den, correctly rounded, 0.0 where
    j <= i, for index arrays i and j."""
    import numpy as np

    # cum rises from 0: below 2^53 its differences and den are exact floats,
    # so one division rounds as int / int does; c[j] - c[min(i, j)] is 0 at j <= i
    if cum[-1] < _EXACT_FLOAT and den < _EXACT_FLOAT:
        c = np.array(cum, dtype=np.int64)
        return (c[j] - c[np.minimum(i, j)]).astype(float) / den
    return np.fromiter(((cum[b] - cum[a]) / den if b > a else 0.0
                        for a, b in zip(i.tolist(), j.tolist())), float, len(i))
