"""Batched float screens against the scalar functionals they stand in for,
and screened searches against plain scans of the same family."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtc.claims
from wtc import Interval, Measure, StepPiece
from wtc.claims import (
    _eval_doubling_ap_equiv,
    _eval_doubling_energy_floor,
    _eval_powerweight_ap,
    _eval_t2_equiv_t1,
    random_compact_measure,
)
from wtc.constructions import gks_cascade, lebesgue_on, power_weight
from wtc.functionals import (
    ap_local,
    ap_local_many,
    ap_local_squared,
    doubling_constant,
    energy_e2,
    energy_e2_many,
    reverse_doubling_constant,
    sup_over_family,
)
from wtc.grid import ScanFamily

KINDS = ("classical", "one_tailed", "one_tailed_dual", "two_tailed")
Q = 8


def old_intervals(fam):
    """The enumeration as the Fraction loop wrote it: k*h + off per candidate."""
    for level in range(fam.min_level, fam.max_level + 1):
        h = F(fam.base) ** level
        for shift in range(fam.shifts):
            off = h * shift / fam.shifts
            k0 = math.floor((fam.window.lo - off) / h)
            if (k0 + 1) * h + off <= fam.window.lo:
                k0 += 1
            k1 = math.ceil((fam.window.hi - off) / h) - 1
            if k1 * h + off >= fam.window.hi:
                k1 -= 1
            for k in range(k0, k1 + 1):
                yield Interval(k * h + off, (k + 1) * h + off)


def old_doubling_scan(mu, family, factor, want_max):
    """The per-candidate doubling loop, exact throughout."""
    best = None
    witness = None
    skipped = []
    for cand in family.intervals():
        m = mu.mass(cand)
        if m == 0:
            skipped.append(cand)
            continue
        ratio = mu.mass(cand.dilate(factor)) / m
        if best is None or (ratio > best if want_max else ratio < best):
            best, witness = ratio, cand
    return best, witness, tuple(skipped)


def old_t2_equiv_t1(n_pairs):
    """The min-ratio loop of `t2-equiv-t1` before it moved onto
    sup_over_family, on the exact squared quantities."""
    rng = random.Random(0x5EED)
    worst, worst_wit = math.inf, None
    fam = ScanFamily(Interval(-2, 2), -3, 1, base=2, shifts=2)
    cands = list(fam.intervals())
    for _ in range(int(n_pairs)):
        omega = random_compact_measure(rng)
        sigma = random_compact_measure(rng)
        for cand in cands:
            t2 = ap_local_squared(omega, sigma, cand, "two_tailed")
            if t2 <= 0:
                continue
            dual = max(ap_local_squared(omega, sigma, cand.dilate(3 ** j), "one_tailed_dual")
                       for j in range(8))
            ratio = dual / t2
            if ratio < worst:
                worst, worst_wit = ratio, cand
    return math.sqrt(worst), worst_wit


def old_doubling_energy_floor(r):
    """The energy-floor loop of `doubling-energy-floor` before it was
    screened: the exact energy of every candidate with mass."""
    corpus = [lebesgue_on(Interval(0, 1)), gks_cascade(F(1, 4), 5), gks_cascade(F(3, 10), 5),
              power_weight(F(1, 2), Interval(-2, 2), 5)]
    worst, worst_wit = math.inf, None
    for w in corpus:
        for cand in ScanFamily(w.support(), -r, 0, base=3, shifts=2).intervals():
            if w.mass(cand) == 0:
                continue
            e = energy_e2(cand, w)
            if e < worst:
                worst, worst_wit = e, cand
    return worst, worst_wit


@st.composite
def families(draw, far=False, max_power=3):
    """A scan family around 0, or (far) around +-100^k, k <= max_power, with
    unit-or-wider candidates as ap-not-t1 scans them."""
    if far:
        k = draw(st.integers(1, max_power))
        c = draw(st.sampled_from([1, -1])) * F(100) ** k
        lo_level = draw(st.integers(0, 2))
    else:
        c = F(draw(st.integers(-4, 4)), Q)
        lo_level = draw(st.integers(-4, 0))
    half = F(draw(st.integers(1, 3)) * 2 ** max(lo_level, 0))
    base = draw(st.sampled_from([2, 3]))
    return ScanFamily(Interval(c - half, c + half + F(draw(st.integers(0, 3)), 3)),
                      lo_level, lo_level + draw(st.integers(0, 2)), base=base,
                      shifts=draw(st.integers(1, 3)))


@st.composite
def measures_near(draw, fam):
    """Steps and atoms around the family's window; some atoms sit on
    candidate endpoints and piece breakpoints."""
    c = fam.window.midpoint
    span = fam.window.length
    m = Measure()
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(-3 * Q, 3 * Q - 1))
        b = draw(st.integers(a + 1, 3 * Q))
        m = m + Measure(pieces=[StepPiece(
            Interval(c + span * F(a, 2 * Q), c + span * F(b, 2 * Q)),
            F(draw(st.integers(1, 12)), 4))])
    cands = list(fam.intervals())
    points = ([x for cand in cands[:40] for x in (cand.lo, cand.hi)]
              + [p.support.lo for p in m.pieces])
    for x in draw(st.lists(st.sampled_from(points), max_size=3)):
        m = m + Measure.point_mass(x, F(draw(st.integers(1, 8)), 4))
    if draw(st.booleans()):
        m = m + Measure.point_mass(c + span * F(draw(st.integers(-3 * Q, 3 * Q)), 2 * Q),
                                   F(draw(st.integers(1, 8)), 4))
    return m


@st.composite
def setups(draw):
    fam = draw(families(far=draw(st.booleans())))
    return fam, draw(measures_near(fam)), draw(measures_near(fam))


# -- grid ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(families(far=False) | families(far=True))
def test_blocks_rebuild_the_enumeration(fam):
    cands = list(old_intervals(fam))
    assert list(fam.intervals()) == cands
    assert fam.count() == len(cands)
    for block in fam.blocks():
        for j in range(block.n):
            assert block.interval(j) == cands[block.start + j]
    for factor in (1, 2, 3, 27, F(3, 2)):
        lo, hi, origin = fam.endpoints(factor)
        assert lo.tolist() == [float(c.dilate(factor).lo - origin) for c in cands]
        assert hi.tolist() == [float(c.dilate(factor).hi - origin) for c in cands]


def test_endpoints_kept_per_family_and_factor_read_only():
    fam = ScanFamily(Interval(-2, 2), -3, 1, base=2, shifts=3)
    for factor in (1, 3, F(3, 2)):
        lo, hi, _ = fam.endpoints(factor)
        again = fam.endpoints(F(factor))
        assert again[0] is lo and again[1] is hi
        # an equal family builds its own arrays, with equal values
        fresh = ScanFamily(Interval(-2, 2), -3, 1, base=2, shifts=3).endpoints(factor)
        assert fresh[0] is not lo
        assert np.array_equal(fresh[0], lo) and np.array_equal(fresh[1], hi)
        for ends in (lo, hi):
            with pytest.raises(ValueError):
                ends[0] = 0.0


rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals.map(abs).filter(bool), rationals.map(abs).filter(bool))
def test_interval_dilate_equals_fraction_formula(lo, length, factor):
    iv = Interval(lo, lo + length)
    half = iv.length * factor / 2
    assert iv.dilate(factor) == Interval(iv.midpoint - half, iv.midpoint + half)


# -- measure -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(setups())
def test_mass_many_matches_exact_mass(setup):
    fam, mu, _ = setup
    for factor in (1, 3):
        exact = [mu.mass(c.dilate(factor)) for c in fam.intervals()]
        got = mu.mass_many(*fam.endpoints(factor))
        for e, g in zip(exact, got):
            if e == 0:
                assert g == 0.0
            else:
                assert abs(g - float(e)) <= 1e-9 * float(e)


@settings(max_examples=60, deadline=None)
@given(families(far=True, max_power=6).flatmap(
    lambda fam: st.tuples(st.just(fam), measures_near(fam))))
def test_mass_many_holds_at_windows_up_to_1e12(setup):
    """Offsets from the family's origin keep the 1e-9 bound at windows as
    far out as ap-not-t1's, where absolute floats would resolve a unit
    candidate only to about 1e-4 of its length."""
    fam, mu = setup
    assert fam.origin != 0
    for factor in (1, 3):
        got = mu.mass_many(*fam.endpoints(factor))
        for cand, g in zip(fam.intervals(), got):
            e = mu.mass(cand.dilate(factor))
            if e == 0:
                assert g == 0.0
            else:
                assert abs(g - float(e)) <= 1e-9 * float(e)


@settings(max_examples=40, deadline=None)
@given(setups())
def test_float_data_is_float_of_each_entry(setup):
    fam, mu, _ = setup
    for m in (mu, gks_cascade(F(1, 4), 4), gks_cascade(F(1, 4), 4).restrict(
            Interval(F(1, 7), F(5, 7)))):
        plo, phi, pden, ax, am = m.float_data()
        assert plo.tolist() == [float(p.support.lo) for p in m.pieces]
        assert phi.tolist() == [float(p.support.hi) for p in m.pieces]
        assert pden.tolist() == [float(p.density) for p in m.pieces]
        assert ax.tolist() == [float(a.x) for a in m.atoms]
        assert am.tolist() == [float(a.mass) for a in m.atoms]
    # positions at the family's origin are the floats of their offsets
    o = fam.origin
    plo, phi, pden, ax, am = mu.float_data(o)
    assert plo.tolist() == [float(p.support.lo - o) for p in mu.pieces]
    assert phi.tolist() == [float(p.support.hi - o) for p in mu.pieces]
    assert pden.tolist() == [float(p.density) for p in mu.pieces]
    assert ax.tolist() == [float(a.x - o) for a in mu.atoms]
    assert am.tolist() == [float(a.mass) for a in mu.atoms]


def test_float_data_kept_for_the_last_origin_only():
    # a scan's screens read one origin, and only then its certifier origin 0
    mu = gks_cascade(F(1, 4), 4)
    at0 = mu.float_data()
    assert mu.float_data(0) is at0
    far = mu.float_data(10 ** 6)
    assert mu.float_data(10 ** 6) is far and far[0][0] == -10 ** 6
    again = mu.float_data(0)    # another origin came between: rebuilt
    assert again is not at0
    assert all(np.array_equal(a, b) for a, b in zip(again, at0))


# -- screens -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(setups())
def test_ap_screen_matches_scalar(setup):
    fam, omega, sigma = setup
    lo, hi, origin = fam.endpoints()
    for kind in KINDS:
        scalar = np.array([ap_local(omega, sigma, c, 2, 0, kind)
                           for c in fam.intervals()])
        screened = ap_local_many(omega, sigma, lo, hi, origin, kind=kind)
        assert np.all(np.abs(screened - scalar) <= 1e-9 * scalar.max())


@settings(max_examples=60, deadline=None)
@given(setups())
def test_energy_screen_matches_scalar(setup):
    fam, omega, _ = setup
    lo, hi, origin = fam.endpoints()
    screened = energy_e2_many(omega, lo, hi, origin)
    for cand, g in zip(fam.intervals(), screened):
        if omega.mass(cand) == 0:
            assert math.isnan(g)
            continue
        e = float(energy_e2(cand, omega))
        if e == 0:
            assert g == 0.0
        # offsets from the family's origin keep the bound at windows near 1e6
        assert abs(g - e) <= 1e-9 * e


def test_ap_screen_rejects_offset():
    leb = Measure.lebesgue(Interval(0, 1))
    with pytest.raises(ValueError):
        ap_local_many(leb, leb, np.array([0.0]), np.array([1.0]), 0, kind="offset")


# -- screened searches ------------------------------------------------------

def _ap_search(omega, sigma, kind, fam, screen):
    def functional(cand):
        return ap_local(omega, sigma, cand, 2, 0, kind) ** 2
    if screen == "batched":
        screen = lambda f: ap_local_many(omega, sigma, *f.endpoints(), kind=kind) ** 2
    return sup_over_family(functional, fam, screen)


@settings(max_examples=40, deadline=None)
@given(setups())
def test_screened_sup_equals_plain_scan(setup):
    fam, omega, sigma = setup
    for kind in KINDS:
        plain = _ap_search(omega, sigma, kind, fam, None)
        assert _ap_search(omega, sigma, kind, fam, "batched") == plain


def test_screened_sup_on_ties():
    """Lebesgue pairs tie exactly on every candidate inside the support:
    the witness stays the first in enumeration order."""
    leb = Measure.lebesgue(Interval(-4, 4))
    casc = gks_cascade(F(1, 4), 5)
    fam = ScanFamily(Interval(0, 1), -4, 0, base=3, shifts=2)
    for omega, sigma in ((leb, leb), (casc, leb), (casc, casc)):
        for kind in KINDS:
            plain = _ap_search(omega, sigma, kind, fam, None)
            assert _ap_search(omega, sigma, kind, fam, "batched") == plain


def test_inaccurate_screen_falls_back_to_plain_scan():
    omega = power_weight(F(1, 2), Interval(-2, 2), 5)
    sigma = power_weight(F(-1, 2), Interval(-2, 2), 5)
    fam = ScanFamily(Interval(-1, 1), -4, 0, base=2, shifts=2)
    plain = _ap_search(omega, sigma, "classical", fam, None)
    rng = np.random.default_rng(7)

    def noisy(f):
        exact = ap_local_many(omega, sigma, *f.endpoints(), kind="classical") ** 2
        return exact * (1 + 1e-3 * rng.standard_normal(exact.size))

    for screen in (noisy, lambda f: np.full(f.count(), np.nan),
                   lambda f: np.zeros(f.count())):
        assert _ap_search(omega, sigma, "classical", fam, screen) == plain


def test_skipped_candidates_are_left_out():
    fam = ScanFamily(Interval(-2, 2), 0, 1)
    hole = Measure.lebesgue(Interval(-8, -1)) + Measure.lebesgue(Interval(1, 8))

    def mass_or_skip(cand):
        m = hole.mass(cand)
        return None if m == 0 else m

    def screen(f):
        m = hole.mass_many(*f.endpoints())
        return np.where(m > 0, m, np.nan)

    assert sup_over_family(mass_or_skip, fam, screen) == \
        sup_over_family(mass_or_skip, fam)
    assert sup_over_family(lambda c: None, fam, screen) == (None, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sign", [1, -1])
def test_screen_dividing_by_zero_gives_the_plain_scan(sign):
    """A screen left to divide by a zero mass gives +-inf or NaN there, with
    no warning out of sup_over_family, and the value, witness and skipped
    list of the plain scan."""
    fam = ScanFamily(Interval(-2, 2), -3, 1, shifts=2)
    hole = Measure.lebesgue(Interval(-8, -1)) + Measure.lebesgue(Interval(1, 8))

    def search(screen):
        skipped = []

        def ratio(cand):
            m = hole.mass(cand)
            if m == 0:
                skipped.append(cand)
                return None
            return sign * hole.mass(cand.dilate(2)) / m

        return sup_over_family(ratio, fam, screen), skipped

    def screen(f):
        return sign * hole.mass_many(*f.endpoints(2)) / hole.mass_many(*f.endpoints())

    with pytest.raises(RuntimeWarning):
        screen(fam)
    with np.errstate(divide="ignore", invalid="ignore"):
        screened = screen(fam)
    assert np.isinf(screened).any() and np.isnan(screened).any()
    screened_search, plain = search(screen), search(None)
    assert screened_search == plain and plain[1]


def _doubling_cases():
    rng = random.Random(12)
    measures = [Measure.lebesgue(Interval(0, 1)),
                Measure.lebesgue(Interval(-8, -1)) + Measure.lebesgue(Interval(1, 8)),
                gks_cascade(F(1, 4), 5), gks_cascade(F(3, 10), 4),
                power_weight(F(1, 2), Interval(-2, 2), 5)]
    measures += [random_compact_measure(rng) for _ in range(12)]
    fams = [ScanFamily(Interval(0, 1), -5, -1, base=3, shifts=2),
            ScanFamily(Interval(-2, 2), -3, 1, base=2, shifts=3)]
    return [(mu, fam) for mu in measures for fam in fams]


@pytest.mark.parametrize("factor", [2, 3])
def test_screened_doubling_equals_plain_scan(factor):
    for mu, fam in _doubling_cases():
        for want_max, search in ((True, doubling_constant),
                                 (False, reverse_doubling_constant)):
            scan = search(mu, fam, factor)
            best, witness, skipped = old_doubling_scan(mu, fam, factor, want_max)
            assert (scan.value, scan.witness, scan.skipped) == (best, witness, skipped)
            assert repr(scan.value) == repr(best)


def test_t2_equiv_t1_equals_old_loop():
    stat, = _eval_t2_equiv_t1(3)
    assert (stat.value, stat.witness) == old_t2_equiv_t1(3)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_doubling_energy_floor_equals_plain_scan(r):
    stat, = _eval_doubling_energy_floor(r)
    worst, worst_wit = old_doubling_energy_floor(r)
    assert (stat.value, stat.witness) == (float(worst), worst_wit)


def test_doubling_energy_floor_certifies_few_candidates(monkeypatch):
    """At default scale the energy screen leaves at most 5% of the
    candidates to the exact functional."""
    calls = scanned = 0

    def counting(functional, family, screen=None):
        nonlocal scanned
        scanned += family.count()

        def counted(cand):
            nonlocal calls
            calls += 1
            return functional(cand)

        return sup_over_family(counted, family, screen)

    monkeypatch.setattr(wtc.claims, "sup_over_family", counting)
    wtc.claims.run_claim("doubling-energy-floor")
    assert scanned == 2290 and calls <= 0.05 * scanned


@pytest.mark.parametrize("evaluate, size, stat, alpha, support, resolution, kind, fam", [
    (_eval_doubling_ap_equiv, 7, "two_tailed_sup", F(1, 2), Interval(-4, 4), 7, "two_tailed",
     ScanFamily(Interval(-2, 2), -6, 1, base=2, shifts=3)),
    (_eval_powerweight_ap, F(1, 4), "sup_to_bound", F(1, 4), Interval(-2, 2), 7, "classical",
     ScanFamily(Interval(-1, 1), -5, 0, base=2, shifts=2)),
], ids=["doubling-ap-equiv-7", "powerweight-ap-1/4"])
def test_claim_witness_at_exact_tie_is_first(evaluate, size, stat, alpha, support,
                                             resolution, kind, fam):
    """Where candidates tie exactly at the maximum, the claim's witness is
    the first of them in enumeration order."""
    omega = power_weight(alpha, support, resolution)
    sigma = power_weight(-alpha, support, resolution)
    values = [(cand, ap_local_squared(omega, sigma, cand, kind)) for cand in fam.intervals()]
    top = max(v for _, v in values)
    tied = [cand for cand, v in values if v == top]
    assert len(tied) > 1
    witness, = [s.witness for s in evaluate(size) if s.name == stat]
    assert witness == tied[0]
