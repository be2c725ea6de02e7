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
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import (AtomPresentError, FamilyTooLargeError, ParamDomainError,
                     SingularSampleError, ZeroMassError)
from .grid import MAX_CANDIDATES, Partition, ScanFamily, first_best, split_cell
from .measure import DyadicMasses, Interval, Measure, is_whole, rat, real, shown, whole

if TYPE_CHECKING:  # numpy is imported only where a float kernel runs
    import numpy as np

# Ap kind -> whether its omega and its sigma factor are tailed (a Poisson
# integral) rather than an average; "offset" tails sigma off the interval
_AP_TAILS = {"classical": (False, False), "one_tailed": (False, True),
             "one_tailed_dual": (True, False), "two_tailed": (True, True),
             "offset": (False, True)}
AP_KINDS = tuple(_AP_TAILS)

# A screened search (see `sup_over_family`) certifies every candidate whose
# float screen lies within this relative margin of the best screened value.
# The claims certify with exact kernels, so the margin covers the screens'
# rounding alone: on the registered claims' families the screens agree with
# the exact values to 1e-8 of the family maximum or better, a wide safety
# factor.
SCREEN_MARGIN = 1e-6

# `_tail_many` broadcasts candidates x pieces in chunks of at most
# _CHUNK_CELLS cells; that bounds its temporary arrays to 32 kB each.
_CHUNK_CELLS = 4096


def avg_density(mu: Measure, interval: Interval, alpha=0):
    """mu(I)/|I|^(1-alpha): exact rational at a whole alpha = 0, a float
    otherwise."""
    m = mu.mass(interval)
    if is_whole(alpha) and alpha == 0:
        return m / interval.length
    alpha = real(alpha, "density exponent alpha")
    # a power that underflows gives 0 here, not a division by zero
    return float(m) * float(interval.length) ** (alpha - 1)


def poisson(interval: Interval, mu: Measure, alpha=0):
    """Poisson-type integral of mu against the tail kernel |I|/(|I|+d)^(2-alpha)
    of the interval, d = dist(x, I), for alpha < 1.

    Exact at a whole alpha = 0: the kernel |I|/(|I|+d)^2 is (M1_I)^2/|I|, so
    the integral is `_maximal_kernel` at p = 2 over |I|, atoms included.  A
    float otherwise.
    """
    if is_whole(alpha) and alpha == 0:
        return _maximal_kernel(mu, interval, 2) / interval.length
    return _poisson_float(interval, mu, alpha)


def _poisson_float(interval: Interval, mu: Measure, alpha) -> float:
    """`poisson` in floats, at any real alpha < 1."""
    alpha = real(alpha, "Poisson exponent alpha")
    if alpha >= 1:
        # the kernel decays like d^(alpha-2), too slowly at alpha >= 1
        raise ParamDomainError(f"Poisson exponent alpha = {alpha} is not below 1")
    # the kernel is |I|^(alpha-1) (M1_I)^(2-alpha)
    a, b = float(interval.lo), float(interval.hi)
    return (b - a) ** (alpha - 1) * float(_tail_many(mu, [a], [b], 2 - alpha)[0])


def _tail_many(mu: Measure, lo, hi, q, origin: int = 0) -> np.ndarray:
    """Float integral of (M1_I)^q against mu, atoms included, at each
    I = [origin + lo[i], origin + hi[i]] (float sequences of offsets from
    the whole number origin), for real q > 0.

    M1_I is 1 on I and L/u off it, L = |I| and u = L + dist(x, I): x - a
    right of I and b - x left of it.  A piece of density c adds c times its
    overlap with I, and on each side c L^q (u0^(1-q) - u1^(1-q))/(q-1) for
    its part from u0 to u1 (c L log(u1/u0) at q = 1); an atom of mass m at
    u adds m (L/u)^q.  Coordinates are floated before differencing, so
    callers should keep the offsets' dynamic range moderate: an origin near
    the intervals does (see `ScanFamily.origin`).
    """
    import numpy as np

    lo, hi, q = np.asarray(lo, float), np.asarray(hi, float), float(q)
    plo, phi, pden, ax, am = mu.float_data(origin)

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
    p = real(p, "Ap exponent p")
    if p <= 1:
        raise ParamDomainError(f"Ap exponent p = {p} is not above 1")
    if kind == "offset" and p != 2:
        raise ParamDomainError(f"the offset Ap quantity has p = 2 only, not {p}")
    w, s = _ap_factors(omega, sigma, interval, kind,
                       lambda mu: float(avg_density(mu, interval, alpha)),
                       lambda mu: _poisson_float(interval, mu, alpha))
    if kind == "offset":
        return w * s
    pp = p / (p - 1)
    return w ** (1 / p) * s ** (1 / pp)


def ap_local_squared(omega: Measure, sigma: Measure, interval: Interval,
                     kind: str = "classical") -> Fraction:
    """Exact square of ap_local for p = 2, alpha = 0 (for offset, its value)."""
    w, s = _ap_factors(omega, sigma, interval, kind,
                       lambda mu: avg_density(mu, interval),
                       lambda mu: poisson(interval, mu))
    return w * s


def ap_local_many(omega: Measure, sigma: Measure, lo, hi, origin: int, *,
                  kind: str = "classical"):
    """Float screen of ap_local(omega, sigma, I, 2, 0, kind) at each
    I = [origin + lo[i], origin + hi[i]] (float arrays of offsets from the
    whole number origin, as `ScanFamily.endpoints` gives them), for every
    kind but offset."""
    if kind == "offset":
        raise ParamDomainError("the offset Ap quantity has no batched screen")
    import numpy as np

    # the Poisson integral at alpha = 0 is the q = 2 tail integral over |I|
    w, s = _ap_factors(omega, sigma, None, kind,
                       lambda mu: mu.mass_many(lo, hi, origin) / (hi - lo),
                       lambda mu: _tail_many(mu, lo, hi, 2, origin) / (hi - lo))
    return np.sqrt(w) * np.sqrt(s)


def energy_e2_many(omega: Measure, lo, hi, origin: int) -> np.ndarray:
    """Float screen of energy_e2(I, omega) at each
    I = [origin + lo[i], origin + hi[i]] (float arrays of offsets from the
    whole number origin), NaN where I holds no mass.

    The moments are taken in u = (x - c)/|I| about the centre c of I, so
    |u| <= 1/2 and the variance m2/m0 - (m1/m0)^2 cancels at most 1/4: the
    arithmetic adds a few ulps of 1/4 whatever the energy, to what floating
    the coordinates costs (see `_tail_many`).  A restriction to one atom
    gets exactly 0.0.
    """
    import numpy as np

    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    plo, phi, pden, ax, am = omega.float_data(origin)
    out = np.empty(lo.size)
    rows = max(1, _CHUNK_CELLS // max(plo.size, ax.size, 1))
    for s in range(0, lo.size, rows):
        a, b = lo[s:s + rows, None], hi[s:s + rows, None]
        c, L = (a + b) / 2, b - a
        m0 = m1 = m2 = pieces = 0.0
        one_atom = False
        if ax.size:
            w = np.where((ax >= a) & (ax <= b), am, 0.0)
            u = (ax - c) / L
            one_atom = np.count_nonzero(w, axis=1) == 1
            m0, m1, m2 = w.sum(axis=1), (w * u).sum(axis=1), (w * u * u).sum(axis=1)
        if plo.size:
            x0 = np.maximum(plo, a)
            x1 = np.maximum(np.minimum(phi, b), x0)
            d = pden * (x1 - x0)
            u0, u1 = (x0 - c) / L, (x1 - c) / L
            pieces = d.sum(axis=1)
            m0 = m0 + pieces
            # the masses d times the means of u and u^2 over [u0, u1]
            m1 = m1 + (d * (u1 + u0)).sum(axis=1) / 2
            m2 = m2 + (d * (u1 * u1 + u1 * u0 + u0 * u0)).sum(axis=1) / 3
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = m1 / m0
            e = np.where(one_atom & (pieces == 0), 0.0, m2 / m0 - mean * mean)
        out[s:s + rows] = np.where(m0 > 0, e, np.nan)
    return out


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
    import numpy as np

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


def maximal_indicator_integral(w: Measure, interval: Interval, p=2):
    """Integral of (M 1_I)^p against w, M the Hardy-Littlewood maximal operator.

    In 1D, M1_[a,b](x) is 1 on the interval, (b-a)/(x-a) to the right and
    (b-a)/(b-x) to the left, so each step piece integrates in closed form.
    Exact rational at a whole p >= 2, a float at any other real p > 0.
    """
    if w.atoms:
        raise AtomPresentError("maximal-function integrals require an atom-free weight")
    if is_whole(p) and p >= 2:
        return _maximal_kernel(w, interval, int(p))
    q = real(p, "maximal-integral exponent p")
    if q <= 0:
        raise ParamDomainError(f"maximal-integral exponent p = {shown(p)} is not above 0")
    return float(_tail_many(w, [float(interval.lo)], [float(interval.hi)], q)[0])


def _maximal_kernel(mu: Measure, interval: Interval, p: int) -> Fraction:
    """Exact integral of (M1_I)^p against mu, integer p >= 2, atoms included.

    M1_I is 1 on I and |I|/u off it, u = |I| + dist(x, I): x - a right of I
    and b - x left of it.  So the inside part is mu(I).  A tail piece of
    density c from u0 to u1 adds c |I|^p (u0^(1-p) - u1^(1-p))/(p-1), which
    telescopes over each tail into one int coefficient per breakpoint (the
    density starting there minus the density ending there) over u^(p-1),
    and an atom of mass m outside I adds m |I|^p / u^p.  Positions and the
    interval's ends are brought onto one denominator N, so every u is an
    int over N, and the terms are summed exactly by `_exact_sum`.  A p past
    the budget of `_check_power_bits` raises ParamDomainError.
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
    tails = [(c * mden, u) for u, c in right + left if c]
    ax, am = cols.atom_x, cols.atom_mass
    ia = bisect_left(ax, -(-A // f))            # atoms[:ia] lie left of a
    ib = bisect_right(ax, B // f)               # atoms[ib:] lie right of b
    scale = cols.density_den * N * e
    atoms = [(m * scale, B - x * f) for x, m in zip(ax[:ia], am[:ia])]
    atoms += [(m * scale, x * f - A) for x, m in zip(ax[ib:], am[ib:])]
    _check_power_bits(p, e * sum(u.bit_length() for _, u in tails)
                      + p * sum(v.bit_length() for _, v in atoms) + p * (B - A).bit_length())
    num, den = _exact_sum([(n, u ** e) for n, u in tails] + [(n, v ** p) for n, v in atoms])
    return mu.mass(interval) + Fraction((B - A) ** p * num,
                                        den * mden * cols.density_den * N * e)


# An exact kernel takes its bases to the power p and sums the powers over
# their common denominator, so its time grows faster than the powers' bits
# in all.  At this budget the maximal kernel took 1.6 s on `cp_weight` K = 1
# (p = 3,427) and K = 3 (p = 105) and 0.16 s on the depth-9 cascade (p = 6),
# on a 2-core x86_64; p = 10**400 would not return.  At p <= 2 a power holds
# at most twice the bits of its base, data the kernel already holds, so
# p <= 2 is never refused: a claim or a measure file pays for its size only.
_POWER_BITS = 1 << 20


def _check_power_bits(p: int, bits: int) -> None:
    """Refuse a whole exponent p > 2 at which a kernel's exact powers would
    hold `bits` bits in all, more than _POWER_BITS."""
    if p > 2 and bits > _POWER_BITS:
        raise ParamDomainError(
            f"exponent p = {shown(p)}: its exact powers would pass {_POWER_BITS} bits")


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
        import numpy as np

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
                part: Partition, p=2, alpha=0, with_energy: bool = False):
    """Sum over partition cells of w(I_r) [E(I_r,w)^2] P(I_r, 1_I sigma)^p over
    sigma(I): exact at alpha = 0 and integer p, a float otherwise."""
    return pivotal_sums(omega, sigma, parent, [part], p, alpha, with_energy)[0]


def pivotal_sums(omega: Measure, sigma: Measure, parent: Interval,
                 parts: Iterable[Partition], p=2, alpha=0,
                 with_energy: bool = False) -> list:
    """`pivotal_sum` of each partition of the parent, in order.

    Each distinct cell's term is evaluated once and shared by every
    partition that holds it; each sum adds its terms in cell order, so every
    value equals the one `pivotal_sum` gives for that partition alone.
    """
    s_total, term = _pivotal_terms(omega, sigma, parent, p, alpha, with_energy)
    return [sum(map(term, part.cells)) / s_total for part in parts]


def pivotal_sup(omega: Measure, sigma: Measure, parent: Interval,
                max_depth: int) -> tuple[Fraction, Partition]:
    """Exact max of the p = 2, alpha = 0 pivotal sums over
    `partitions(parent, 2, max_depth)`, and the first partition reaching it.
    A cell's best is the larger of its own term and its children's summed
    bests; a tie keeps the cell, which the enumeration lists first."""
    max_depth = whole(max_depth, "partition depth")
    # min() keeps the power small: past bit_length(cap) levels the tree passes the cap
    if 2 ** (min(max_depth, MAX_CANDIDATES.bit_length()) + 1) - 1 > MAX_CANDIDATES:
        raise FamilyTooLargeError(f"depth {shown(max_depth)}: over {MAX_CANDIDATES} cells")
    s_total, term = _pivotal_terms(omega, sigma, parent)

    def best(cell: Interval, depth: int) -> tuple[Fraction, tuple[Interval, ...]]:
        own = term(cell)
        if depth:
            kids = [best(kid, depth - 1) for kid in split_cell(cell, 2)]
            split = sum(v for v, _ in kids)
            if split > own:
                return split, sum((cells for _, cells in kids), ())
        return own, (cell,)

    total, cells = best(parent, max_depth)
    return total / s_total, Partition(parent, cells)


def _pivotal_terms(omega: Measure, sigma: Measure, parent: Interval, p=2, alpha=0,
                   with_energy: bool = False) -> tuple[Fraction, Callable]:
    """sigma(I) and the memoized pivotal term of a cell I_r of the parent I,
    w(I_r) [E(I_r,w)^2] P(I_r, 1_I sigma)^p: a Fraction at a whole alpha = 0
    and whole p, a float otherwise, and a zero of that type for a cell of
    omega-mass 0, whose Poisson integral is not taken.  The exact powers
    taken so far are held to the budget of `_check_power_bits`."""
    s_total = sigma.mass(parent)
    if s_total == 0:
        raise ZeroMassError(f"sigma has no mass on {parent}")
    sigma_in = sigma.restrict(parent)
    exact = is_whole(p) and is_whole(alpha) and alpha == 0
    if exact:
        p, zero = int(p), Fraction(0)
    else:
        p, zero = real(p, "pivotal exponent p"), 0.0
        alpha = real(alpha, "Poisson exponent alpha")
    bits = 0

    @cache
    def term(cell: Interval):
        nonlocal bits
        wm = omega.mass(cell, include_hi=(cell.hi == parent.hi))
        if wm == 0:
            return zero
        if exact:
            pv = poisson(cell, sigma_in)
            bits += p * (pv.numerator.bit_length() + pv.denominator.bit_length())
            _check_power_bits(p, bits)
        else:
            pv = _poisson_float(cell, sigma_in, alpha)
        t = wm * pv ** p
        if with_energy:
            t *= energy_e2(cell, omega)
        return t

    return s_total, term


def dyadic_maximal_integral(sigma: Measure, omega: Measure, interval: Interval,
                            p=2, max_depth: int = 8):
    """Leaf-level lower bound for the integral of (M_d 1_I sigma)^p d omega.

    Each depth-max_depth cell of the bisection tree gets the max sigma-average
    over its ancestors within I; that value is integrated against omega.
    Returns (value, diagnostics) where diagnostics lists omega atoms sitting
    on internal cell boundaries (their assignment is the half-open one).
    The value is exact; p must be a non-negative integer, within the budget
    of `_check_power_bits`.
    """
    p, depth = whole(p, "maximal-integral exponent p"), whole(max_depth, "dyadic depth")
    s_cells = DyadicMasses(sigma, interval, depth)
    # each of the 2^depth leaves takes a power of at most (sigma mass << depth)
    _check_power_bits(p, p * (s_cells.mass(0, 0) << depth).bit_length() << depth)
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
    alpha = real(alpha, "Riesz exponent alpha")
    if not 0 < alpha < 1:
        raise ParamDomainError(f"Riesz exponent alpha = {alpha} outside (0, 1)")
    mu_in = mu.restrict(interval)
    total = mu_in.total_mass()
    if total == 0:
        return RieszReport(0.0, 0.0, None)
    import numpy as np

    plo, phi, pden, ax, am = mu_in.float_data()
    n = plo.size
    # |x - b|^alpha is taken once per breakpoint when the pieces leave no gap
    ends = (np.append(plo, phi[-1:]) if np.array_equal(plo[1:], phi[:-1])
            else np.concatenate((plo, phi)))
    power, term = np.empty(ends.size), np.empty(n)  # reused by every sample
    p_lo, p_hi = power[:n], power[-n:]

    def potential(x: Fraction) -> float:
        if not (interval.lo <= x <= interval.hi):
            raise ParamDomainError(f"sample {shown(x)} outside {interval}")
        if mu_in.atom_at(x):
            raise SingularSampleError(f"sample {shown(x)} hits an atom")
        xf = float(x)
        val = 0.0
        if ax.size:
            val += float(np.sum(am * np.abs(xf - ax) ** (alpha - 1)))
        if n:
            # each side of x integrates to |x-y|^alpha/alpha: a piece left of
            # x gives P(lo) - P(hi), one right of it P(hi) - P(lo), and one
            # holding it P(lo) + P(hi), for P(b) = |x-b|^alpha
            p = np.abs(np.subtract(xf, ends, out=power), out=power)
            p **= alpha  # in place, dispatched as `**` is (to sqrt at 1/2)
            left = np.searchsorted(phi, xf, "right")     # pieces[:left] end at or before x
            right = np.searchsorted(plo, xf, "left")     # pieces[right:] start at or after x
            np.add(p_lo, p_hi, out=term)
            np.subtract(p_lo[:left], p_hi[:left], out=term[:left])
            np.subtract(p_hi[right:], p_lo[right:], out=term[right:])
            np.multiply(pden, term, out=term)
            val += float(np.sum(term)) / alpha
        return val

    best, witness = first_best((x, potential(x)) for x in map(rat, sample_points))
    norm = best / (float(total) * float(interval.length) ** (alpha - 1))
    return RieszReport(best, norm, witness)


def power_weight_ap_bound(alpha_exp, p) -> tuple[bool, float]:
    """One-weight Ap comparability value for |x|^alpha_exp in 1D.

    Finite exactly when -1 < alpha_exp < p - 1; the returned value is
    (alpha_exp+1)^(-1) (1 - alpha_exp p'/p)^(-p/p') at that exponent.
    """
    a, p = real(alpha_exp, "power exponent alpha"), real(p, "Ap exponent p")
    if p <= 1:
        raise ParamDomainError(f"Ap exponent p = {p} is not above 1")
    if not -1 < a < p - 1:
        return False, math.inf
    pp = p / (p - 1)
    return True, (a + 1) ** -1 * (1 - a * pp / p) ** (-p / pp)
