"""Reference computations the benchmark checks `wtc` against.

Nothing here imports `wtc`.  Each function re-derives a quantity from its
definition, in exact `Fraction` arithmetic where the quantity is rational,
and in a different form from the library's own code, so that a faulty
change to the library cannot also change the reference.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

HEADER = "# wtc-measure v1"


# -- measure files ------------------------------------------------------------

def read_measure_file(path):
    """(atoms, steps) of a measure file: [(x, mass)], [(lo, hi, density)]."""
    atoms, steps = [], []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ValueError(f"{path}: missing header")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        kind, nums = line[0], [Fraction(t) for t in line[1:]]
        if kind == "atom" and len(nums) == 2:
            atoms.append((nums[0], nums[1]))
        elif kind == "step" and len(nums) == 3 and nums[0] < nums[1]:
            steps.append(tuple(nums))
        else:
            raise ValueError(f"{path}:{lineno}: bad record {raw!r}")
    return atoms, steps


def write_measure_file(path, atoms, steps) -> None:
    out = [HEADER]
    out += [f"atom {x} {m}" for x, m in atoms]
    out += [f"step {lo} {hi} {d}" for lo, hi, d in steps]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def seeded_steps(rng: random.Random, n_steps=5, n_atoms=2, q=8, span=4):
    """A random step-plus-atom measure on [-span, span] with 1/q-grid data.

    The piece count is fixed, so every seed costs the program the same.
    """
    ticks = sorted(rng.sample(range(-span * q, span * q + 1), 2 * n_steps))
    steps = [(Fraction(ticks[2 * j], q), Fraction(ticks[2 * j + 1], q),
              Fraction(rng.randint(1, 16), 4)) for j in range(n_steps)]
    xs = rng.sample(range(-span * q, span * q + 1), n_atoms)
    atoms = sorted((Fraction(x, q), Fraction(rng.randint(1, 8), 4)) for x in xs)
    return atoms, steps


def seeded_interval(rng: random.Random, lo, hi, q=8):
    """[a, b] with a < b on the 1/q grid inside [lo, hi]."""
    a, b = sorted(rng.sample(range(int(lo * q), int(hi * q) + 1), 2))
    return Fraction(a, q), Fraction(b, q)


# -- the triadic cascade ----------------------------------------------------------

def cascade_factors(delta):
    side = (1 - delta) / 2
    return (side, delta, side)


def cascade_cell_mass(delta, depth: int, j: int) -> Fraction:
    """Mass of the j-th depth-`depth` cell, read off j's ternary digits."""
    f = cascade_factors(delta)
    mass = Fraction(1)
    for _ in range(depth):
        j, digit = divmod(j, 3)
        mass *= f[digit]
    return mass


def cascade_cdf(delta, depth: int, x) -> Fraction:
    """mu([0, x]) for the depth-`depth` cascade, by descending x's ternary
    digits: each level adds the mass of the left siblings, and the final
    cell is uniform."""
    x = Fraction(x)
    if x <= 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    f = cascade_factors(delta)
    acc, mass, lo, width = Fraction(0), Fraction(1), Fraction(0), Fraction(1)
    for _ in range(depth):
        width /= 3
        digit = min(int((x - lo) / width), 2)
        acc += mass * sum(f[:digit], Fraction(0))
        mass *= f[digit]
        lo += digit * width
    return acc + mass * (x - lo) / width


def cascade_mass(delta, depth: int, lo, hi) -> Fraction:
    return cascade_cdf(delta, depth, hi) - cascade_cdf(delta, depth, lo)


def dilate(lo, hi, factor):
    c, half = (lo + hi) / 2, (hi - lo) * factor / 2
    return c - half, c + half


# -- kernels ------------------------------------------------------------------------

def poisson_exact(atoms, steps, a, b) -> Fraction:
    """Integral of |I| / (|I| + dist(x, I))^2 against the measure, I = [a, b].

    The kernel's antiderivative K is continuous and piecewise simple, so a
    step of density d on [lo, hi] contributes d * (K(hi) - K(lo)).
    """
    L = b - a

    def K(x):
        if x <= a:
            return L / (L + a - x) - 1
        if x <= b:
            return (x - a) / L
        return 2 - L / (L + x - b)

    total = Fraction(0)
    for x, m in atoms:
        d = max(a - x, x - b, Fraction(0))
        total += m * L / (L + d) ** 2
    for lo, hi, d in steps:
        total += d * (K(hi) - K(lo))
    return total


def maximal_integral_exact(steps, a, b) -> Fraction:
    """Integral of (M 1_[a,b])^2 against a step weight: M 1_I is 1 on I and
    L / (distance to the far endpoint) outside it."""
    L = b - a

    def K(x):  # antiderivative of (M 1_I)^2, continuous
        if x <= a:
            return L * L / (b - x) - L
        if x <= b:
            return x - a
        return 2 * L - L * L / (x - a)

    return sum((d * (K(hi) - K(lo)) for lo, hi, d in steps), Fraction(0))


def energy_exact(steps, a, b) -> Fraction:
    """Variance of x under the restriction to [a, b], over (b - a)^2."""
    m0 = m1 = m2 = Fraction(0)
    for lo, hi, d in steps:
        lo, hi = max(lo, a), min(hi, b)
        if hi <= lo:
            continue
        m0 += d * (hi - lo)
        m1 += d * (hi * hi - lo * lo) / 2
        m2 += d * (hi ** 3 - lo ** 3) / 3
    mean = m1 / m0
    return (m2 / m0 - mean * mean) / (b - a) ** 2


# -- scan families -----------------------------------------------------------------

def scan_family(lo, hi, min_level, max_level, base, shifts):
    """Grid intervals of width base^level, shifted by level-width/shifts
    steps, that meet the open window (lo, hi)."""
    out = []
    for level in range(min_level, max_level + 1):
        h = Fraction(base) ** level
        for s in range(shifts):
            off = h * s / shifts
            k = math.floor((lo - off) / h)
            while k * h + off < hi:
                if (k + 1) * h + off > lo:
                    out.append((k * h + off, (k + 1) * h + off))
                k += 1
    return out


# -- closed forms named in the claims ------------------------------------------------

def harmonic_minus_one(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(2, n + 1)), Fraction(0))


def power_weight_a2_bound(a) -> float:
    """A2 comparability value of |x|^a on the line: 1 / ((a + 1)(1 - a))."""
    a = Fraction(a)
    return float(1 / ((a + 1) * (1 - a)))


def abs_power_mass(a: float, lo: float, hi: float) -> float:
    """Integral of |x|^a over [lo, hi] with lo < 0 < hi."""
    return ((-lo) ** (a + 1) + hi ** (a + 1)) / (a + 1)


def fmt(value) -> str:
    """The CLI's number format."""
    return f"{float(value):.12g}"
