"""Weighted-condition functionals on exact measures.

Closed-form 1D kernel integrals throughout: Poisson tails, the maximal
function of an interval indicator, Riesz potentials.  Quantities that are
rational for alpha = 0 (Poisson, integer-p maximal integrals, energy, masses)
have exact paths; everything else runs in floating point.

In one dimension M1_I(x) = |I|/(|I| + dist(x, I)), so the Poisson kernel
|I|/(|I| + dist)^(2-alpha) is |I|^(alpha-1) (M1_I)^(2-alpha): every Poisson
integral is an integral of a power of M1_I, atoms included.  Two kernels
give those integrals.  The exact one, `_maximal_kernel`, takes integer
q >= 2 over the measure's int columns: the part inside I is mu(I), each
tail telescopes into one int coefficient per breakpoint, and the terms are
summed over their denominators in a balanced tree.  The float one,
`_tail_many`, takes any real q > 0 at a batch of intervals at once; the
scalar float paths are its batches of one, and the scan screens its
batches of a whole family.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import AtomPresentError, ParamDomainError, SingularSampleError, ZeroMassError
from .grid import Partition, ScanFamily, first_best
from .measure import DyadicMasses, Interval, Measure, rat, whole

# Ap kind -> whether its omega and its sigma factor are tailed (a Poisson
# integral) rather than an average; "offset" tails sigma off the interval
_AP_TAILS = {"classical": (False, False), "one_tailed": (False, True),
             "one_tailed_dual": (True, False), "two_tailed": (True, True),
             "offset": (False, True)}
AP_KINDS = tuple(_AP_TAILS)

# A screened search (see `sup_over_family`) certifies every candidate whose
# float screen lies within this relative margin of the best screened value.
# On the registered claims' families the screens here agree with the scalar
# functionals to 1e-8 of the family maximum or better, so the margin leaves
# a wide safety factor.
SCREEN_MARGIN = 1e-6

# `_tail_many` broadcasts candidates x pieces in chunks of at most
# _CHUNK_CELLS cells; that bounds its temporary arrays to 32 kB each.
_CHUNK_CELLS = 4096


def avg_density(mu: Measure, interval: Interval, alpha=0):
    """mu(I)/|I|^(1-alpha); exact rational when alpha = 0."""
    m = mu.mass(interval)
    if alpha == 0:
        return m / interval.length
    # a power that underflows gives 0 here, not a division by zero
    return float(m) * float(interval.length) ** (float(alpha) - 1)


def poisson(interval: Interval, mu: Measure, alpha=0, exact: bool | None = None):
    """Poisson-type integral of mu against the tail kernel |I|/(|I|+d)^(2-alpha)
    of the interval, d = dist(x, I), for alpha < 1."""
    if _exact(exact, alpha == 0, "alpha = 0"):
        return _poisson_exact(interval, mu)
    if alpha >= 1:
        # the kernel decays like d^(alpha-2), too slowly at alpha >= 1
        raise ParamDomainError(f"Poisson exponent alpha = {alpha} is not below 1")
    # the kernel is |I|^(alpha-1) (M1_I)^(2-alpha)
    alpha = float(alpha)
    a, b = float(interval.lo), float(interval.hi)
    return (b - a) ** (alpha - 1) * float(_tail_many(mu, np.array([a]), np.array([b]),
                                                     2 - alpha)[0])


def _poisson_exact(interval: Interval, mu: Measure) -> Fraction:
    """The standard Poisson integral at alpha = 0, exactly.  Its kernel
    |I|/(|I|+d)^2 is (M1_I)^2/|I|, so this is `_maximal_kernel` at p = 2
    over |I|, atoms included."""
    return _maximal_kernel(mu, interval, 2) / interval.length


def _exact(exact: bool | None, rational: bool, what: str) -> bool:
    """Whether a functional evaluates exactly: as asked, and by default
    exactly when its value is rational, which `what` states."""
    if exact is None:
        return rational
    if exact and not rational:
        raise ParamDomainError(f"exact evaluation requires {what}")
    return exact


def _tail_many(mu: Measure, lo, hi, q) -> np.ndarray:
    """Float integral of (M1_I)^q against mu, atoms included, at each
    I = [lo[i], hi[i]] (float arrays), for real q > 0.

    M1_I is 1 on I and L/u off it, L = |I| and u = L + dist(x, I): x - a
    right of I and b - x left of it.  A piece of density c adds c times its
    overlap with I, and on each side c L^q (u0^(1-q) - u1^(1-q))/(q-1) for
    its part from u0 to u1 (c L log(u1/u0) at q = 1); an atom of mass m at
    u adds m (L/u)^q.  Coordinates are floated before differencing, so
    callers should keep the data's dynamic range moderate (translate toward
    the origin first when the intervals are tiny and far away).
    """
    q = float(q)
    plo, phi, pden, ax, am = mu.float_data()

    def tail(L, u0, u1):
        # u0 = u1 = L for a piece that does not reach past that side
        if q == 1:
            return L * np.log(u1 / u0)
        return L ** q * (u0 ** (1 - q) - u1 ** (1 - q)) / (q - 1)

    out = np.zeros(lo.size)
    rows = max(1, _CHUNK_CELLS // max(plo.size, ax.size, 1))
    for s in range(0, lo.size, rows):
        a, b = lo[s:s + rows, None], hi[s:s + rows, None]
        L = b - a
        if ax.size:
            u = L + np.maximum(np.maximum(a - ax, ax - b), 0.0)
            out[s:s + rows] += np.sum(am * (L / u) ** q, axis=1)
        if plo.size:
            inside = np.maximum(np.minimum(phi, b) - np.maximum(plo, a), 0.0)
            right = tail(L, np.maximum(plo, b) - a, np.maximum(phi, b) - a)
            left = tail(L, b - np.minimum(phi, a), b - np.minimum(plo, a))
            out[s:s + rows] += np.sum(pden * (inside + right + left), axis=1)
    return out


def ap_local(omega: Measure, sigma: Measure, interval: Interval, p=2,
             alpha=0, kind: str = "classical") -> float:
    """Local two-weight Ap quantity at one interval.

    classical: avg(w)^(1/p) avg(s)^(1/p'); one_tailed replaces the sigma
    average by its Poisson integral; two_tailed replaces both; offset (p=2)
    is avg(w) times the Poisson integral of sigma off the interval.
    """
    if p <= 1:
        raise ParamDomainError(f"Ap exponent p = {p} is not above 1")
    if kind == "offset" and p != 2:
        raise ParamDomainError(f"the offset Ap quantity has p = 2 only, not {p}")
    w, s = _ap_factors(omega, sigma, interval, kind,
                       lambda mu: float(avg_density(mu, interval, alpha)),
                       lambda mu: float(poisson(interval, mu, alpha, exact=False)))
    if kind == "offset":
        return w * s
    p = float(p)
    pp = p / (p - 1)
    return w ** (1 / p) * s ** (1 / pp)


def ap_local_squared(omega: Measure, sigma: Measure, interval: Interval,
                     kind: str = "classical") -> Fraction:
    """Exact square of ap_local for p = 2, alpha = 0 (for offset, its value)."""
    w, s = _ap_factors(omega, sigma, interval, kind,
                       lambda mu: avg_density(mu, interval),
                       lambda mu: _poisson_exact(interval, mu))
    return w * s


def ap_local_many(omega: Measure, sigma: Measure, lo, hi,
                  kind: str = "classical"):
    """Float screen of ap_local(omega, sigma, I, 2, 0, kind) at each
    I = [lo[i], hi[i]] (float arrays), for every kind but offset."""
    if kind == "offset":
        raise ParamDomainError("the offset Ap quantity has no batched screen")
    # the Poisson integral at alpha = 0 is the q = 2 tail integral over |I|
    w, s = _ap_factors(omega, sigma, None, kind,
                       lambda mu: mu.mass_many(lo, hi) / (hi - lo),
                       lambda mu: _tail_many(mu, lo, hi, 2) / (hi - lo))
    return np.sqrt(w) * np.sqrt(s)


def _ap_factors(omega: Measure, sigma: Measure, interval: Interval | None,
                kind: str, avg: Callable, tail: Callable) -> tuple:
    """The omega and sigma factors of an Ap kind: avg(mu) for an average and
    tail(mu) for a Poisson integral, as `_AP_TAILS` says; the offset kind
    tails sigma restricted off the interval."""
    if kind not in _AP_TAILS:
        raise ParamDomainError(f"unknown Ap kind {kind!r}")
    w_tailed, s_tailed = _AP_TAILS[kind]
    if kind == "offset":
        sigma = sigma.complement_restrict(interval)
    return (tail if w_tailed else avg)(omega), (tail if s_tailed else avg)(sigma)


def sup_over_family(functional: Callable[[Interval], object],
                    family: ScanFamily,
                    screen: Callable[[ScanFamily], np.ndarray] | None = None
                    ) -> tuple[object, Interval | None]:
    """Max of a local functional over the scan family, with a witness.

    The functional may return None to leave a candidate out; the result is
    (None, None) when it leaves out every one.  Ties keep the first
    candidate in enumeration order, so the witness is deterministic.

    A screen maps the family to a float array approximating the functional
    on each candidate in enumeration order, NaN where it cannot judge (a
    denominator at zero, say).  The functional then runs only on the
    candidates whose screened value is not finite or lies within
    SCREEN_MARGIN of the best screened value, and again within SCREEN_MARGIN
    of the best value it returned, until no candidate is added.  If one of
    those shows the screen off by more than a quarter of the margin, it runs
    on every candidate.  The value and witness are those of the plain scan
    whenever the screen is that accurate on the candidates left out.
    """
    if screen is None:
        return first_best((cand, functional(cand)) for cand in family.intervals())
    blocks = family.blocks()
    if not blocks:
        return None, None
    starts = [b.start for b in blocks]
    screened = screen(family)
    certified: dict[int, tuple[Interval, object]] = {}

    def certify(mask):
        for i in np.flatnonzero(mask).tolist():
            if i not in certified:
                block = blocks[bisect_right(starts, i) - 1]
                cand = block.interval(i - block.start)
                certified[i] = (cand, functional(cand))

    def near(best: float):
        return screened >= best - SCREEN_MARGIN * abs(best)

    finite = np.isfinite(screened)
    # with no finite screen, ~finite certifies every candidate and top is moot
    top = float(screened[finite].max()) if finite.any() else 0.0
    certify(~finite | near(top))
    while True:
        done = len(certified)
        best, _ = first_best(certified.values())
        if best is None:
            break
        certify(near(float(best)))
        if len(certified) == done:
            break
    tol = SCREEN_MARGIN / 4 * max(abs(top), abs(float(best or 0)))
    if any(v is not None and finite[i] and abs(screened[i] - float(v)) > tol
           for i, (_, v) in certified.items()):
        certify(np.ones(screened.size, dtype=bool))
    return first_best(certified[i] for i in sorted(certified))


def maximal_indicator_integral(w: Measure, interval: Interval, p=2,
                               exact: bool | None = None):
    """Integral of (M 1_I)^p against w, M the Hardy-Littlewood maximal operator.

    In 1D, M1_[a,b](x) is 1 on the interval, (b-a)/(x-a) to the right and
    (b-a)/(b-x) to the left, so each step piece integrates in closed form.
    Exact rational for integer p >= 2.
    """
    if w.atoms:
        raise AtomPresentError("maximal-function integrals require an atom-free weight")
    if not _exact(exact, isinstance(p, int) and p >= 2, "integer p >= 2"):
        return float(_tail_many(w, np.array([float(interval.lo)]),
                                np.array([float(interval.hi)]), p)[0])
    return _maximal_kernel(w, interval, p)


def _maximal_kernel(mu: Measure, interval: Interval, p: int) -> Fraction:
    """Exact integral of (M1_I)^p against mu, integer p >= 2, atoms included.

    M1_I is 1 on I and |I|/u off it, u = |I| + dist(x, I): x - a right of I
    and b - x left of it.  So the inside part is mu(I).  A tail piece of
    density c from u0 to u1 adds c |I|^p (u0^(1-p) - u1^(1-p))/(p-1), which
    telescopes over each tail into one int coefficient per breakpoint (the
    density starting there minus the density ending there) over u^(p-1),
    and an atom of mass m outside I adds m |I|^p / u^p.  Positions and the
    interval's ends are brought onto one denominator N, so every u is an
    int over N, and the terms are summed exactly by `_exact_sum`.
    """
    cols = mu.columns()
    a, b = interval.lo, interval.hi
    N = math.lcm(cols.den, a.denominator, b.denominator)
    f = N // cols.den
    A, B = a.numerator * (N // a.denominator), b.numerator * (N // b.denominator)
    e = p - 1
    plo, phi, pd = cols.lo, cols.hi, cols.density
    kr = bisect_right(phi, B // f)              # pieces[kr:] end past b
    kl = bisect_left(plo, -(-A // f))           # pieces[:kl] start before a
    right = _telescoped(zip([max(lo * f, B) - A for lo in plo[kr:]],
                            [hi * f - A for hi in phi[kr:]], pd[kr:]))
    # the left tail runs away from a, through the pieces in reverse
    left = _telescoped(zip([B - min(hi * f, A) for hi in reversed(phi[:kl])],
                           [B - lo * f for lo in reversed(plo[:kl])], reversed(pd[:kl])))
    mden = cols.mass_den
    terms = [(c * mden, u ** e) for u, c in right + left if c]
    ax, am = cols.atom_x, cols.atom_mass
    if ax:
        ia = bisect_left(ax, -(-A // f))        # atoms[:ia] lie left of a
        ib = bisect_right(ax, B // f)           # atoms[ib:] lie right of b
        scale = cols.density_den * N * e
        terms += [(m * scale, (B - x * f) ** p) for x, m in zip(ax[:ia], am[:ia])]
        terms += [(m * scale, (x * f - A) ** p) for x, m in zip(ax[ib:], am[ib:])]
    num, den = _exact_sum(terms)
    return mu.mass(interval) + Fraction((B - A) ** p * num,
                                        den * mden * cols.density_den * N * e)


def _telescoped(rows) -> list[tuple[int, int]]:
    """(u, coefficient) of sum d (1/u0^k - 1/u1^k) over (u0, u1, d) rows
    with u0 < u1 <= the next row's u0: a u that ends one row and starts the
    next gets one coefficient."""
    out = []
    for u0, u1, d in rows:
        if out and out[-1][0] == u0:
            out[-1] = (u0, out[-1][1] + d)
        else:
            out.append((u0, d))
        out.append((u1, -d))
    return out


def _exact_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """sum n/d over (n, d) int pairs with d > 0, as one (num, den) pair.

    The pairs are added in a balanced tree, each sum over the lcm of its
    two halves' denominators, so the operands at each level are of equal
    size; a running sum would carry the full-size denominator through every
    addition.
    """
    while len(terms) > 1:
        nxt = []
        for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2]):
            g = math.gcd(d1, d2)
            nxt.append((n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2))
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0] if terms else (0, 1)


@dataclass(frozen=True)
class DoublingScan:
    value: Fraction | None
    witness: Interval | None
    skipped: tuple[Interval, ...]


def doubling_constant(mu: Measure, family: ScanFamily, factor: int = 2) -> DoublingScan:
    """Max over the family of mu(factor*I)/mu(I), dilation concentric.

    Intervals with zero mass are skipped and reported; a growing value as
    the family deepens is the non-doubling signal.
    """
    return _doubling_scan(mu, family, factor, want_max=True)


def reverse_doubling_constant(mu: Measure, family: ScanFamily,
                              factor: int = 2) -> DoublingScan:
    """Min over the family of mu(factor*I)/mu(I); > 1 uniformly for doubling mu."""
    return _doubling_scan(mu, family, factor, want_max=False)


def _doubling_scan(mu, family, factor, want_max):
    # a min search is the max search of the negated ratio
    sign = 1 if want_max else -1
    skipped = []

    def ratio(cand):
        m = mu.mass(cand)
        if m == 0:
            skipped.append(cand)
            return None
        return sign * (mu.mass(cand.dilate(factor)) / m)

    # a candidate of mass 0 screens to exactly 0.0, and NaN sends it to
    # `ratio`, which checks its mass exactly and records the skip
    def screen(fam):
        m = mu.mass_many(*fam.endpoints())
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(m > 0, sign * mu.mass_many(*fam.endpoints(factor)) / m,
                            np.nan)

    best, witness = sup_over_family(ratio, family, screen)
    return DoublingScan(None if best is None else sign * best, witness,
                        tuple(skipped))


def energy_e2(interval: Interval, omega: Measure) -> Fraction:
    """Normalized energy: Var(x) under omega restricted to I, over |I|^2.

    Always in [0, 1/4]; zero exactly when the restriction is a point mass.
    """
    return omega.variance(interval) / interval.length ** 2


def pivotal_sum(omega: Measure, sigma: Measure, parent: Interval,
                part: Partition, p=2, alpha=0, with_energy: bool = False,
                exact: bool | None = None):
    """Sum over partition cells of w(I_r) [E(I_r,w)^2] P(I_r, 1_I sigma)^p,
    normalized by sigma(I).  Exact for alpha=0, int p.
    Pass exact=False during sup searches over many partitions: rational sums
    over atoms at many distinct distances grow huge common denominators."""
    return pivotal_sums(omega, sigma, parent, [part], p, alpha, with_energy, exact)[0]


def pivotal_sums(omega: Measure, sigma: Measure, parent: Interval,
                 parts: Iterable[Partition], p=2, alpha=0,
                 with_energy: bool = False, exact: bool | None = None) -> list:
    """`pivotal_sum` of each partition of the parent, in order.

    Each distinct cell's term is evaluated once and shared by every
    partition that holds it; each sum adds its terms in cell order, so every
    value equals the one `pivotal_sum` gives for that partition alone.
    """
    s_total = sigma.mass(parent)
    if s_total == 0:
        raise ZeroMassError(f"sigma has no mass on {parent}")
    sigma_in = sigma.restrict(parent)
    exact = _exact(exact, alpha == 0 and isinstance(p, int), "alpha = 0 and integer p")
    terms: dict[tuple[Fraction, Fraction], object] = {}

    def term(cell: Interval):
        # None for a cell of omega-mass 0, which adds nothing
        wm = omega.mass(cell, include_hi=(cell.hi == parent.hi))
        if wm == 0:
            return None
        t = wm * poisson(cell, sigma_in, alpha, exact=exact) ** p
        if with_energy:
            t *= energy_e2(cell, omega)
        return t

    out = []
    for part in parts:
        total = Fraction(0) if exact else 0.0
        for cell in part.cells:
            key = (cell.lo, cell.hi)
            if key not in terms:
                terms[key] = term(cell)
            t = terms[key]
            if t is not None:
                total += t
        out.append(total / s_total if exact else float(total) / float(s_total))
    return out


def dyadic_maximal_integral(sigma: Measure, omega: Measure, interval: Interval,
                            p=2, max_depth: int = 8):
    """Leaf-level lower bound for the integral of (M_d 1_I sigma)^p d omega.

    Each depth-max_depth cell of the bisection tree gets the max sigma-average
    over its ancestors within I; that value is integrated against omega.
    Returns (value, diagnostics) where diagnostics lists omega atoms sitting
    on internal cell boundaries (their assignment is the half-open one).
    The value is exact; p must be a non-negative integer.
    """
    p, depth = whole(p, "maximal-integral exponent p"), whole(max_depth, "dyadic depth")
    s_cells = DyadicMasses(sigma, interval, depth)
    w_cells = DyadicMasses(omega, interval, depth)
    # omega atoms on interior grid points; each is the midpoint of one cell
    on_grid = {}
    for a in omega.atoms:
        j = w_cells.grid_index(a.x)
        if j is not None:
            on_grid[j] = a
    boundary_atoms = []

    # A cell's sigma-average is (mass << d) * L.den / (s_cells.den * L.num),
    # L = |I|; `best` carries the ancestors' largest (mass << d).
    def rec(d: int, k: int, best: int) -> int:
        best = max(best, s_cells.mass(d, k) << d)
        if d >= depth:
            return best ** p * w_cells.mass(d, k)
        atom = on_grid.get((2 * k + 1) << (depth - d - 1))
        if atom is not None:
            boundary_atoms.append((s_cells.interval(d, k), atom))
        return rec(d + 1, 2 * k, best) + rec(d + 1, 2 * k + 1, best)

    length = interval.length
    value = Fraction(rec(0, 0, 0) * length.denominator ** p,
                     (s_cells.den * length.numerator) ** p * w_cells.den)
    return value, boundary_atoms


def sawyer_ratio(omega: Measure, sigma: Measure, interval: Interval, p=2,
                 max_depth: int = 8):
    """Dyadic testing quantity: integral of (M_d 1_I sigma)^p d omega over sigma(I)."""
    s = sigma.mass(interval)
    if s == 0:
        raise ZeroMassError(f"sigma has no mass on {interval}")
    value, _ = dyadic_maximal_integral(sigma, omega, interval, p, max_depth)
    return value / s


@dataclass(frozen=True)
class RieszReport:
    sup: float
    normalized: float
    witness: Fraction | None


def riesz_potential_sup(mu: Measure, interval: Interval, alpha,
                        sample_points: Iterable) -> RieszReport:
    """Max over samples of the restricted Riesz potential
    integral over I of |x-y|^(alpha-1) d mu(y), alpha in (0, 1).

    The normalized value divides by mu(I)|I|^(alpha-1), which is the scale
    at which boundedness is dimension-free.
    """
    alpha = float(alpha)
    if not 0 < alpha < 1:
        raise ParamDomainError(f"Riesz exponent alpha = {alpha} outside (0, 1)")
    mu_in = mu.restrict(interval)
    total = mu_in.total_mass()
    if total == 0:
        return RieszReport(0.0, 0.0, None)
    plo, phi, pden, ax, am = mu_in.float_data()
    # |x - b|^alpha is taken once per breakpoint when the pieces leave no gap
    breaks = np.append(plo, phi[-1:]) if np.array_equal(plo[1:], phi[:-1]) else None

    def potential(x: Fraction) -> float:
        if not (interval.lo <= x <= interval.hi):
            raise ParamDomainError(f"sample {x} outside {interval}")
        if mu_in.atom_at(x):
            raise SingularSampleError(f"sample {x} hits an atom")
        xf = float(x)
        val = 0.0
        if ax.size:
            val += float(np.sum(am * np.abs(xf - ax) ** (alpha - 1)))
        if plo.size:
            # each side of x integrates to |x-y|^alpha/alpha: a piece left of
            # x gives P(lo) - P(hi), one right of it P(hi) - P(lo), and one
            # holding it P(lo) + P(hi), for P(b) = |x-b|^alpha
            if breaks is None:
                p_lo, p_hi = np.abs(xf - plo) ** alpha, np.abs(xf - phi) ** alpha
            else:
                p_all = np.abs(xf - breaks) ** alpha
                p_lo, p_hi = p_all[:-1], p_all[1:]
            left = np.searchsorted(phi, xf, "right")     # pieces[:left] end at or before x
            right = np.searchsorted(plo, xf, "left")     # pieces[right:] start at or after x
            term = p_lo + p_hi
            term[:left] = p_lo[:left] - p_hi[:left]
            term[right:] = p_hi[right:] - p_lo[right:]
            val += float(np.sum(pden * term)) / alpha
        return val

    best, witness = first_best((x, potential(x)) for x in map(rat, sample_points))
    norm = best / (float(total) * float(interval.length) ** (alpha - 1))
    return RieszReport(best, norm, witness)


def power_weight_ap_bound(alpha_exp, p) -> tuple[bool, float]:
    """One-weight Ap comparability value for |x|^alpha_exp in 1D.

    Finite exactly when -1 < alpha_exp < p - 1; the returned value is
    (alpha_exp+1)^(-1) (1 - alpha_exp p'/p)^(-p/p') at that exponent.
    """
    a = float(alpha_exp)
    p = float(p)
    if p <= 1:
        raise ParamDomainError(f"Ap exponent p = {p} is not above 1")
    if not -1 < a < p - 1:
        return False, math.inf
    pp = p / (p - 1)
    return True, (a + 1) ** -1 * (1 - a * pp / p) ** (-p / pp)
