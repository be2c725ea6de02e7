"""The int and numpy paths of the screens, the doubling certifier and the
constructions against the Fraction and per-element loops they replace
(kept here as the references): every value must be the same, bit for bit."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from wtc import Interval, Measure, StepPiece
from wtc import functionals
from wtc.claims import random_compact_measure
from wtc.constructions import _abs_power_integral, gks_cascade, power_weight
from wtc.functionals import (DoublingScan, doubling_constant, reverse_doubling_constant,
                             sup_over_family)
from wtc.grid import ScanBlock, ScanFamily
from wtc.measure import _prefix_diff

TWO53 = 1 << 53


def _same_bits(got, want):
    return got.dtype == np.float64 and got.tobytes() == np.asarray(want, float).tobytes()


# -- ScanBlock.endpoints and _prefix_diff ------------------------------------

def old_block_endpoints(b, factor, origin):
    p, q = factor.numerator, factor.denominator
    den = 2 * q * b.den
    first = q * (2 * b.num0 + b.step) - origin * den
    stride, half = 2 * q * b.step, p * b.step
    centres = range(first, first + b.n * stride, stride)
    return ([(c - half) / den for c in centres], [(c + half) / den for c in centres])


def _block_reaching(top, den, step, n, factor):
    """A block whose largest end numerator, over 2q*den at origin 0, lies
    in (top - 2q, top]."""
    p, q = factor.numerator, factor.denominator
    # the last candidate's hi numerator is q(2 num0 + (2n - 1) step) + p step
    num0 = (top - p * step - q * (2 * n - 1) * step) // (2 * q)
    return ScanBlock(0, n, num0, step, den)


@pytest.mark.parametrize("den", [1, 3, 7, (1 << 20) + 1])
@pytest.mark.parametrize("factor", [F(1), F(2), F(3), F(3, 2)])
@pytest.mark.parametrize("offset", [-1, 0, 1, 5])
def test_block_endpoints_match_int_division_about_two_to_the_53(den, factor, offset):
    # the largest numerator just below, at and just above 2^53; the int64
    # path serves only the first
    for step in (1, 3, 5):
        block = _block_reaching(TWO53 + offset, den, step, 9, factor)
        for origin in (0, -2, block.num0 // block.den):
            got = block.endpoints(factor, origin)
            want = old_block_endpoints(block, factor, origin)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


@pytest.mark.parametrize("seed", range(20))
def test_block_endpoints_match_int_division_at_random(seed):
    rng = random.Random(seed)
    for _ in range(50):
        den = rng.choice((1, 2, 3, 5, 12, 1 << 30, 3 ** 33, TWO53, TWO53 + 1))
        block = ScanBlock(0, rng.randint(1, 40), rng.randint(-TWO53 // den * 2, TWO53 // den),
                          rng.randint(1, 9), den)
        factor = F(rng.randint(1, 9), rng.randint(1, 4))
        origin = rng.randint(-3, 3)
        got, want = block.endpoints(factor, origin), old_block_endpoints(block, factor, origin)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def old_prefix_diff(cum, den, i, j):
    return [(cum[b] - cum[a]) / den if b > a else 0.0 for a, b in zip(i.tolist(), j.tolist())]


@pytest.mark.parametrize("last", [TWO53 - 1, TWO53, TWO53 + 1, 3 ** 40])
@pytest.mark.parametrize("den", [1, 3, 10 ** 15 + 37, TWO53, TWO53 + 3])
def test_prefix_diff_matches_int_division(last, den):
    rng = random.Random(last ^ den)
    n = 12
    # a rising column from 0 to last, as a measure's prefix sums are
    cum = sorted(rng.randint(0, last) for _ in range(n - 1))
    cum = [0, *cum, last]
    size = len(cum)
    # the index pairs mass_many passes: i up to size (k0 + 1), j down to -1
    # (k1), and any j <= i gives 0.0
    i = np.array([rng.randint(0, size) for _ in range(200)] + [size, 0, 3], dtype=np.intp)
    j = np.array([rng.randint(-1, size - 1) for _ in range(200)] + [size - 1, -1, 3],
                 dtype=np.intp)
    assert _same_bits(_prefix_diff(cum, den, i, j), old_prefix_diff(cum, den, i, j))


# -- the doubling certifier ----------------------------------------------------

def old_doubling_scan(mu, family, factor, want_max):
    sign = 1 if want_max else -1
    skipped = []

    def ratio(cand):
        m = mu.mass(cand)
        if m == 0:
            skipped.append(cand)
            return None
        return sign * (mu.mass(cand.dilate(factor)) / m)

    def screen(fam):
        m = mu.mass_many(*fam.endpoints())
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(m > 0, sign * mu.mass_many(*fam.endpoints(factor)) / m, np.nan)

    best, witness = sup_over_family(ratio, family, screen)
    return DoublingScan(None if best is None else sign * best, witness, tuple(skipped))


def _doubling_cases():
    rng = random.Random(0xD0B1)
    measures = [random_compact_measure(rng) for _ in range(12)]
    measures += [gks_cascade(F(1, 4), 4), power_weight(F(1, 2), Interval(-2, 2), 4)]
    families = [ScanFamily(Interval(-2, 2), -4, 0, base=2, shifts=3),
                ScanFamily(Interval(F(-1, 3), F(5, 7)), -3, -1, base=3, shifts=2)]
    return [(mu, fam) for mu in measures for fam in families]


@pytest.mark.parametrize("factor", [2, 3, F(3, 2)])
def test_doubling_scan_matches_the_fraction_certifier(factor):
    for mu, fam in _doubling_cases():
        for scan, want_max in ((doubling_constant, True), (reverse_doubling_constant, False)):
            got = scan(mu, fam, factor)
            want = old_doubling_scan(mu, fam, factor, want_max)
            assert got == want
            assert type(got.value) is type(want.value)


@pytest.mark.parametrize("factor", [2, 3, F(3, 2)])
def test_doubling_ratio_at_every_candidate(factor, monkeypatch):
    # without its screen the search certifies every candidate in order, so
    # `skipped` lists every massless one and the value is the plain max
    plain = sup_over_family
    monkeypatch.setattr(functionals, "sup_over_family",
                        lambda fn, fam, screen=None: plain(fn, fam))
    for mu, fam in _doubling_cases():
        ratios = [(c, mu.mass(c.dilate(factor)) / mu.mass(c)) for c in fam.intervals()
                  if mu.mass(c)]
        skipped = tuple(c for c in fam.intervals() if not mu.mass(c))
        best = max((v for _, v in ratios), default=None)
        least = min((v for _, v in ratios), default=None)
        got = doubling_constant(mu, fam, factor)
        assert (got.value, got.skipped) == (best, skipped)
        assert got.witness == next((c for c, v in ratios if v == best), None)
        got = reverse_doubling_constant(mu, fam, factor)
        assert (got.value, got.skipped) == (least, skipped)
        assert got.witness == next((c for c, v in ratios if v == least), None)


# -- constructions -------------------------------------------------------------

def old_power_weight(a, window, resolution_level):
    n = 2 ** resolution_level
    h = window.length / n
    pieces = []
    for j in range(n):
        lo = window.lo + j * h
        hi = lo + h
        avg = _abs_power_integral(float(lo), float(hi), float(a)) / float(h)
        if avg > 0:
            pieces.append(StepPiece(Interval(lo, hi), F(avg)))
    return Measure(pieces=pieces)


@pytest.mark.parametrize("window", [Interval(-2, 2), Interval(0, 1), Interval(1, 2),
                                    Interval(F(-1, 3), F(5, 7))], ids=str)
@pytest.mark.parametrize("alpha", [F(1, 2), F(-1, 2), F(1, 4), 0, 3])
def test_power_weight_matches_the_object_builder(window, alpha):
    for r in range(9):
        got, want = power_weight(alpha, window, r), old_power_weight(alpha, window, r)
        assert got == want and got.columns() == want.columns()


def old_random_compact_measure(rng, allow_atoms=True):
    q = 8
    lo_t, hi_t = -2 * q, 2 * q
    m = Measure()
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(lo_t, hi_t - 1)
        b = rng.randint(a + 1, hi_t)
        den = F(rng.randint(1, 16), 4)
        m = m + Measure(pieces=[StepPiece(Interval(F(a, q), F(b, q)), den)])
    if allow_atoms and rng.random() < 1 / 3:
        x = F(rng.randint(lo_t, hi_t), q)
        m = m + Measure.point_mass(x, F(rng.randint(1, 8), 4))
    return m


@pytest.mark.parametrize("allow_atoms", [True, False])
def test_random_compact_measure_matches_the_object_builder(allow_atoms):
    for seed in range(20):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert random_compact_measure(new, allow_atoms) \
                == old_random_compact_measure(old, allow_atoms)
        # the same draws, in the same order
        assert new.getstate() == old.getstate()
