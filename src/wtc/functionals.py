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
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import (AtomPresentError, FamilyTooLargeError, ParamDomainError,
                     SingularSampleError, ZeroMassError)
from .grid import MAX_CANDIDATES, Partition, ScanFamily, first_best, split_cell
from .measure import (_CHUNK_CELLS, DyadicMasses, Interval, Measure, Record, dilation_factor,
                      is_whole, rat, real, shown, whole)

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

# the unit roundoff of float64
_U = 2.0 ** -53


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
    on each candidate in enumeration order, NaN or +-inf where it cannot
    judge.  It runs with numpy's divide and invalid warnings off, so a
    quotient whose denominator screens to 0 is left as it falls.  The
    functional then runs only on the candidates whose screened value is not
    finite or lies within SCREEN_MARGIN of the best screened value, and
    again within SCREEN_MARGIN of the best value it returned, until no
    candidate is added.  If one of those shows the screen off by more than a
    quarter of the margin, it runs on every candidate.  The value and
    witness are those of the plain scan whenever the screen is that
    accurate on the candidates left out.
    """
    if screen is None:
        return first_best((cand, functional(cand)) for cand in family.intervals())
    import numpy as np

    blocks = family.blocks()
    if not blocks:
        return None, None
    starts = [b.start for b in blocks]
    with np.errstate(divide="ignore", invalid="ignore"):
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


class DoublingScan(Record):
    __slots__ = ("value", "witness", "skipped")

    def __init__(self, value: Fraction | None, witness: Interval | None,
                 skipped: tuple[Interval, ...]):
        self._set(value, witness, skipped)


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
    f = dilation_factor(factor)
    p, q = f.numerator, f.denominator

    def ratio(cand):
        # both masses as ints over one g: ends 2qA and 2qB, and the dilate's
        # q(A + B) -+ p(B - A), as in Interval.dilate
        (an, ad), (bn, bd) = cand.lo.as_integer_ratio(), cand.hi.as_integer_ratio()
        A, B, g = an * bd, bn * ad, 2 * q * ad * bd
        m = mu._mass_over(2 * q * A, 2 * q * B, g)
        if m == 0:
            skipped.append(cand)
            return None
        c, half = q * (A + B), p * (B - A)
        return Fraction(sign * mu._mass_over(c - half, c + half, g), m)

    # a candidate of mass 0 screens to exactly 0.0, and the quotient that is
    # not finite sends it to `ratio`, which checks its mass exactly and
    # records the skip
    def screen(fam):
        return sign * mu.mass_many(*fam.endpoints(factor)) / mu.mass_many(*fam.endpoints())

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

    The walk stops at a cell with no omega atom on a grid point inside it
    whose sigma `density_bound` (no atom, no density above) is at most the
    best average of it and its ancestors: every leaf below keeps that best,
    so the cell adds best^p times its omega mass, the int its leaves add.
    """
    p, depth = whole(p, "maximal-integral exponent p"), whole(max_depth, "dyadic depth")
    s_cells = DyadicMasses(sigma, interval, depth)
    # each of the 2^depth leaves takes a power of at most (sigma mass << depth)
    _check_power_bits(p, p * (s_cells.mass(0, 0) << depth).bit_length() << depth)
    w_cells = DyadicMasses(omega, interval, depth)
    # omega atoms on interior grid points; each is the midpoint of one cell
    on_grid = {j: a for a in omega.atoms if (j := w_cells.grid_index(a.x)) is not None}
    grid_js = sorted(on_grid)
    boundary_atoms = []

    # A cell's sigma-average is (mass << d) * L.den / (s_cells.den * L.num),
    # L = |I|; `best` carries the ancestors' largest (mass << d).
    def rec(d: int, k: int, best: int) -> int:
        best = max(best, s_cells.mass(d, k) << d)
        if d >= depth:
            return best ** p * w_cells.mass(d, k)
        bound, s = s_cells.density_bound(d, k), depth - d
        # the grid points strictly inside the cell are its descendants' midpoints
        if bound is not None and bound <= best and \
                bisect_right(grid_js, k << s) == bisect_left(grid_js, (k + 1) << s):
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


class RieszReport(Record):
    __slots__ = ("sup", "normalized", "witness")

    def __init__(self, sup: float, normalized: float, witness: Fraction | None):
        self._set(sup, normalized, witness)


def riesz_potential_sup(mu: Measure, interval: Interval, alpha,
                        sample_points: Iterable) -> RieszReport:
    """Max over samples of the restricted Riesz potential
    integral over I of |x-y|^(alpha-1) d mu(y), alpha in (0, 1).

    The normalized value divides by mu(I)|I|^(alpha-1), which is the scale
    at which boundedness is dimension-free.

    Only the best sample is reported, so only samples that can be best are
    evaluated in full (float64 over every atom and piece).  The pieces are
    cut into runs of isqrt(n) consecutive pieces.  For a sample x, the atoms
    and the three runs around x take the full formula.  Every other run lies
    on one side of x, where the kernel is monotone, so its integral lies
    between its mass times the kernel at its far end and at its near end;
    each run's mass is an exact prefix-sum difference rounded once.  That
    gives lower(x) <= upper(x) in real arithmetic.  tau(x) bounds the float
    error: the computed full value of x lies in [lower - tau, upper + tau].
    tau counts the positions floated once, one power per breakpoint within
    4 ulps, the pairwise sums, and a breakpoint within a few ulps of x (see
    `_RieszSums.bounds` for the inequality).  With theta the largest
    lower - tau over the samples, a sample whose upper + tau is below theta
    computes strictly below the sample attaining theta and is skipped; the
    rest are evaluated in sample order through `first_best`.  So the value
    and witness are those of evaluating every sample: of samples tied in
    real arithmetic (mirror samples of a symmetric measure), the larger
    computed value wins, and at equal floats the first sample.  Every
    sample is checked for the domain and atom errors before any is
    evaluated, and an empty list is refused, whether or not mu has mass
    in I.
    """
    alpha = real(alpha, "Riesz exponent alpha")
    if not 0 < alpha < 1:
        raise ParamDomainError(f"Riesz exponent alpha = {alpha} outside (0, 1)")
    mu_in = mu.restrict(interval)
    xs = []
    for x in map(rat, sample_points):
        if not (interval.lo <= x <= interval.hi):
            raise ParamDomainError(f"sample {shown(x)} outside {interval}")
        if mu_in.atom_at(x):
            raise SingularSampleError(f"sample {shown(x)} hits an atom")
        xs.append(x)
    if not xs:
        raise ParamDomainError("no sample points")
    total = mu_in.total_mass()
    if total == 0:
        return RieszReport(0.0, 0.0, None)
    sums = _RieszSums(mu_in, interval, alpha)
    atoms = [sums.atom_part(x) for x in xs]
    xfs = [float(x) for x in xs]
    keep = sums.keep(xfs, atoms)
    best, witness = first_best((x, sums.value(xf, a))
                               for x, xf, a, k in zip(xs, xfs, atoms, keep) if k)
    norm = best / (float(total) * float(interval.length) ** (alpha - 1))
    return RieszReport(best, norm, witness)


def _piece_sum(p_lo, p_hi, density, left: int, right: int, term) -> float:
    """alpha times the pieces' part of the Riesz potential at x, from
    P(b) = |x - b|^alpha at each piece's ends: each side of x integrates to
    |x-y|^alpha/alpha, so a piece left of x (pieces[:left]) gives
    P(lo) - P(hi), one right of it (pieces[right:]) P(hi) - P(lo), and one
    holding it P(lo) + P(hi).  term is a buffer of the pieces' length."""
    import numpy as np

    np.subtract(p_lo[:left], p_hi[:left], out=term[:left])
    np.add(p_lo[left:right], p_hi[left:right], out=term[left:right])
    np.subtract(p_hi[right:], p_lo[right:], out=term[right:])
    term *= density
    return float(np.sum(term))


class _RieszSums:
    """Float Riesz potentials of one restricted measure at samples x in I:
    in full (`value`), and bounded from the exact masses of runs of pieces
    (`bounds`).  `atom_part` is the atoms' share, which both include."""

    def __init__(self, mu_in: Measure, interval: Interval, alpha: float):
        import numpy as np

        self.alpha = alpha
        self.plo, self.phi, self.pden, _, self.am = mu_in.float_data()
        plo, phi = self.plo, self.phi
        self.atom_points = [a.x for a in mu_in.atoms]
        n = self.n = plo.size
        if not n:
            return
        # |x - b|^alpha is taken once per breakpoint when the pieces leave no
        # gap; each sorted array of breakpoints fills its part of `power`
        if np.array_equal(plo[1:], phi[:-1]):
            self.power = np.empty(n + 1)
            self.ends = [(np.append(plo, phi[-1:]), self.power)]
        else:
            self.power = np.empty(2 * n)
            self.ends = [(plo, self.power[:n]), (phi, self.power[n:])]
        self.term = np.empty(n)      # reused by every sample
        # runs of pieces[k*run:(k+1)*run]
        run = self.run = math.isqrt(n)
        starts = np.arange(0, n, run)
        stops = np.minimum(starts + run, n)
        self.run_mass = mu_in.run_masses(starts, stops)
        self.run_lo, self.run_hi = plo[starts], phi[stops - 1]
        # the constants of tau (see `bounds`); the density sum is rounded up
        # over the densities' roundings and the pairwise sum's
        self.e = 6 * _U * float(max(abs(interval.lo), abs(interval.hi)))
        m = n.bit_length() + 25
        self.density_sum = float(np.sum(self.pden)) * (1 + 2 * m * _U)
        self.scale = (2.2 * m + 27) * _U * (float(interval.length) + 2 * self.e) ** alpha
        self.run_rel = (starts.size.bit_length() + 41) * _U

    def atom_part(self, x: Fraction) -> float:
        if not self.atom_points:
            return 0.0
        import numpy as np

        # x - a exactly, then floated: a sample next to an atom can round onto
        # the atom's float, where |xf - a| would be 0
        gaps = np.array([float(abs(x - a)) for a in self.atom_points])
        return float(np.sum(self.am * gaps ** (self.alpha - 1)))

    def value(self, xf: float, atom: float) -> float:
        """The potential at x = xf over every piece, plus `atom_part(x)`."""
        if not self.n:
            return atom
        import numpy as np

        # |x - b| as xf - b left of x and b - xf right of it: rounding to
        # nearest is symmetric, so these are the bits of |xf - b|
        for ends, out in self.ends:
            k = np.searchsorted(ends, xf)
            np.subtract(xf, ends[:k], out=out[:k])
            np.subtract(ends[k:], xf, out=out[k:])
        power = self.power
        power **= self.alpha  # in place, dispatched as `**` is (to sqrt at 1/2)
        n = self.n
        left = np.searchsorted(self.phi, xf, "right")    # pieces[:left] end at or before x
        right = np.searchsorted(self.plo, xf, "left")    # pieces[right:] start at or after x
        return atom + _piece_sum(power[:n], power[-n:], self.pden, left, right,
                                 self.term) / self.alpha

    def bounds(self, xf: float, atom: float) -> tuple[float, float, float]:
        """(lower, upper, tau) at x = xf: `value(xf, atom)` lies in
        [lower - tau, upper + tau].

        The inequality behind tau.  Let u = 2^-53, R = max |end of I|, and
        L = float(|I|) + e >= |I|.  Floating x and a breakpoint b once each,
        and |xf - b| once, leaves the computed gap within e = 6uR of
        |x - b|.  With h the smallest computed gap from x to a breakpoint,
        every exact gap is at least h - e, so each |x - b|^alpha is off by
        at most pos = alpha e (h/2)^(alpha-1) when h > 2e (mean value
        theorem), and by e^alpha otherwise (|s^alpha - t^alpha| <=
        |s - t|^alpha), which covers a breakpoint within a few ulps of x.
        A power within 4 ulps adds 8u (L + e)^alpha.  A piece's term takes
        two powers, a subtraction or addition and a product with its
        density, each floated once; with D the sum of the densities, the
        terms are off by at most D (23u (L + e)^alpha + 2 pos) together.
        numpy's pairwise sum passes each term through at most
        m = bit_length(n) + 25 additions (25 inside a 128-term block, one
        per halving above it), which adds 2.1 m u D (L + e)^alpha, and the
        division by alpha 2.1 u D (L + e)^alpha / alpha.  So the pieces'
        part of the full value, and that of the three runs, are each within
            E = (D / alpha) ((2.2 m + 27) u (L + e)^alpha + 2 pos)
        of their values in real arithmetic, the constants rounded up over
        the second-order terms; the atoms' part is the same float in both.
        The bound over the other runs takes, per run, one rounded mass, one
        gap within e of its exact value and at least G (the smallest
        near-end gap), one power and one product, then a pairwise sum.  As
        |(g'/g)^(alpha-1) - 1| <= 2e/(G - e) <= 4e/G, each of the two sums
        is within c = 4e/G + (bit_length(runs) + 41)u of its real value,
        relatively, which is below 1/2 when G > 16e; so it is off by at
        most 2c times its computed value.  Adding the parts rounds three
        times more:
            tau = err + 4u (|near| + up + low + err),
            err = 2E + 2c (up + low).
        When G <= 16e, or a part is not finite, tau is infinite.
        """
        if not self.n:
            return atom, atom, 0.0
        import numpy as np

        n, run, alpha, e = self.n, self.run, self.alpha, self.e
        left = np.searchsorted(self.phi, xf, "right")
        right = np.searchsorted(self.plo, xf, "left")
        # the three runs around x: its run and one each side
        j = min(left, n - 1) // run
        a, b = max(j - 1, 0) * run, min((j + 2) * run, n)
        lo_gap, hi_gap = np.abs(xf - self.plo[a:b]), np.abs(xf - self.phi[a:b])
        near = atom + _piece_sum(lo_gap ** alpha, hi_gap ** alpha, self.pden[a:b],
                                 left - a, right - a, np.empty(b - a)) / alpha
        if not math.isfinite(near):
            return -math.inf, math.inf, math.inf
        h = float(min(lo_gap.min(), hi_gap.min()))
        up = low = far_err = 0.0
        jl, jr = max(j - 1, 0), j + 2
        if jl or jr < self.run_mass.size:
            near_gap = np.concatenate((xf - self.run_hi[:jl], self.run_lo[jr:] - xf))
            far_gap = np.concatenate((xf - self.run_lo[:jl], self.run_hi[jr:] - xf))
            mass = np.concatenate((self.run_mass[:jl], self.run_mass[jr:]))
            g = float(near_gap.min())
            if not g > 16 * e:
                return -math.inf, math.inf, math.inf
            h = min(h, g)
            up = float(np.sum(mass * near_gap ** (alpha - 1)))
            low = float(np.sum(mass * far_gap ** (alpha - 1)))
            far_err = 2 * (4 * e / g + self.run_rel) * (up + low)
        pos = alpha * e * (h / 2) ** (alpha - 1) if h > 2 * e else e ** alpha
        err = 2 * self.density_sum / alpha * (self.scale + 2 * pos) + far_err
        tau = err + 4 * _U * (abs(near) + up + low + err)
        return near + low, near + up, tau

    def keep(self, xfs: list[float], atoms: list[float]) -> list[bool]:
        """Which samples can compute to the greatest value: those whose
        upper + tau reaches the largest lower - tau."""
        bounds = [self.bounds(xf, a) for xf, a in zip(xfs, atoms)]
        theta = max((low - tau for low, _, tau in bounds), default=-math.inf)
        return [up + tau >= theta for _, up, tau in bounds]


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
