"""End-to-end checks of the headline numerical claims.

Each test prints a single [NN] pass/fail line so the suite output doubles
as a checklist.  Items 02, 03 and 12 carry sub-checks that are expected to
fail at the stated tolerances; the shortfall is analyzed in the project
notes and the checks are kept as-is rather than loosened.
"""

import math
import random
from fractions import Fraction as F

from wtc.claims import (
    REGISTRY,
    _eval_ainfty_pivotal,
    _eval_ap_not_t1,
    _eval_cp_not_ainfty,
    _eval_cp_smalldoubling,
    _eval_doubling_ap_equiv,
    _eval_gks_afrac,
    _eval_pivotal_not_t1,
    _eval_smalldoubling_pivotal,
    _eval_t1_not_t2,
    _eval_t2_equiv_t1,
    random_compact_measure,
)
from wtc.constructions import gks_cascade, lebesgue_on, power_weight
from wtc.fileformat import parse_measure, write_measure
from wtc.functionals import (
    _poisson_float,
    _tail_many,
    ap_local,
    ap_local_squared,
    avg_density,
    maximal_indicator_integral,
    pivotal_sum,
    poisson,
    sup_over_family,
)
from wtc.grid import Partition, ScanFamily, brute_force_sup, split_cell
from wtc.measure import Interval, Measure, StepPiece

_REL = 1.05


def _line(tag, label, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"[{tag}] {label}{suffix}"


def _stat(stats, name):
    for s in stats:
        if s.name == name:
            return s
    raise KeyError(name)


def test_01_tailed_monotonicity():
    rng = random.Random(0xACCE55)
    violations = 0
    for _ in range(200):
        omega = random_compact_measure(rng)
        sigma = random_compact_measure(rng)
        for _ in range(50):
            a = rng.randint(-20, 19)
            b = rng.randint(a + 1, 20)
            iv = Interval(F(a, 8), F(b, 8))
            cl = ap_local_squared(omega, sigma, iv, "classical")
            t1 = ap_local_squared(omega, sigma, iv, "one_tailed")
            t2 = ap_local_squared(omega, sigma, iv, "two_tailed")
            if not cl <= t1 <= t2:
                violations += 1
            if poisson(iv, omega) < avg_density(omega, iv):
                violations += 1
    _line("01", "tailed monotonicity and poisson domination", violations == 0,
          f"{violations} violations")


def test_02_classical_bounded_tails_grow():
    stats = _eval_ap_not_t1(4)
    cl = _stat(stats, "classical_sq_sup")
    cap = REGISTRY["ap-not-t1"].expectations["classical_sq_sup"].cap
    ok_cl = cl.value <= cap
    inc = min(_stat(stats, "t1_sq_increment_min").value,
              _stat(stats, "t1_dual_sq_increment_min").value)
    ok_inc = inc >= 0.8
    _line("02", "classical capped while tailed climbs", ok_cl and ok_inc,
          f"classical {cl.value:.4g} vs cap {cap:.4g}; "
          f"min increment {inc:.6g} vs floor 0.8")


def test_03_one_tail_stable_two_tail_grows():
    lo = _eval_t1_not_t2(6)
    hi = _eval_t1_not_t2(12)
    v1 = _stat(lo, "t1_sq_sup").value
    v2 = _stat(hi, "t1_sq_sup").value
    ok_t1 = max(v1, v2) / min(v1, v2) <= _REL
    diff = _stat(hi, "t2_sq_at_unit").value - _stat(lo, "t2_sq_at_unit").value
    ok_t2 = diff >= 4
    _line("03", "one-tailed stable, two-tailed divergent", ok_t1 and ok_t2,
          f"t1 sup {v1:.6g}->{v2:.6g}; t2 growth {diff:.6g} vs floor 4")


def test_04_dual_tail_recovers_two_tailed():
    stats = _eval_t2_equiv_t1(50)
    worst = _stat(stats, "min_witness_ratio").value
    _line("04", "dilated dual witness ratio", worst >= 1 / 64,
          f"min ratio {worst:.6g} vs 1/64")


def test_05_doubling_pair_two_tailed_comparable():
    stats = _eval_doubling_ap_equiv(6)
    ratio = _stat(stats, "t2_to_classical").value
    _line("05", "two-tailed within 10x of classical", ratio <= 10,
          f"ratio {ratio:.6g}")


def test_06_concentration_weight_profile():
    runs = {k: _eval_cp_not_ainfty(k) for k in (1, 2, 3)}
    top = runs[3]
    dbl = _stat(top, "doubling3_sup")
    cap = REGISTRY["cp-not-ainfty"].expectations["doubling3_sup"].cap
    ok_dbl = dbl.value <= cap
    ok_wit = _stat(top, "ainfty_witness_ratio_min").value >= 1.0
    sups = [_stat(runs[k], "cp_ratio_sup").value for k in (1, 2, 3)]
    spread = max(sups) / min(sups)
    ok_cp = spread <= 1.25
    _line("06", "concentration weight: doubling capped, witness doubles, "
          "small-set ratio stable", ok_dbl and ok_wit and ok_cp,
          f"doubling {dbl.value:.4g}<={cap:.4g}; "
          f"ratio sups {[f'{s:.4g}' for s in sups]} spread {spread:.4g}")


def test_07_small_doubling_maximal_series_bound():
    worst = _stat(_eval_cp_smalldoubling(3), "normalized_mii_sup").value
    _line("07", "maximal integral under geometric series bound", worst <= 1.0,
          f"normalized sup {worst:.6g}")


def test_08_stopping_cubes_and_pivotal_cap():
    stats = _eval_ainfty_pivotal(8)
    stop = _stat(stats, "stopping_mass_ratio").value
    piv = _stat(stats, "pivotal_to_maximal_max").value
    a1 = _stat(stats, "stopping_atom_total").value
    a2 = _stat(_eval_ainfty_pivotal(12), "stopping_atom_total").value
    ok = stop <= 2.0 and piv <= 1.0 and a2 > a1
    _line("08", "stopping mass capped, pivotal dominated, atom diverges", ok,
          f"stop {stop:.4g}<=2; pivotal {piv:.4g}<=1; atom {a1:.4g}->{a2:.4g}")


def test_09_pivotal_stable_one_tail_grows():
    lo = _eval_pivotal_not_t1(50)
    hi = _eval_pivotal_not_t1(200)
    p1 = _stat(lo, "pivotal_sup").value
    p2 = _stat(hi, "pivotal_sup").value
    ok_piv = max(p1, p2) / min(p1, p2) <= _REL
    t_growth = _stat(hi, "t1_sq_at_unit").value / _stat(lo, "t1_sq_at_unit").value
    ok_t1 = t_growth >= 1.3
    e_worst = max(_stat(lo, "energy_pivotal_ratio_max").value,
                  _stat(hi, "energy_pivotal_ratio_max").value)
    ok_e = e_worst <= 0.5
    _line("09", "pivotal stable, one-tailed grows, energy under half",
          ok_piv and ok_t1 and ok_e,
          f"pivotal {p1:.4g}->{p2:.4g}; t1 growth {t_growth:.4g}; "
          f"energy max {e_worst:.4g}")


def test_10_small_doubling_pivotal_controlled():
    stats = _eval_smalldoubling_pivotal(3)
    margin = _stat(stats, "hypothesis_margin").value
    concl = _stat(stats, "pivotal_to_ap_max").value
    _line("10", "small-doubling pairs keep pivotal under 10x classical",
          margin <= 1.0 and concl <= 1.0,
          f"hypothesis margin {margin:.4g}; conclusion {concl:.4g}")


def test_11_cascade_potential_and_doubling_settle():
    lo = _eval_gks_afrac(8)
    hi = _eval_gks_afrac(12)

    def spread(name):
        a = _stat(lo, name).value
        b = _stat(hi, name).value
        return max(a, b) / min(a, b)

    ok = (spread("riesz_normalized") <= 1.10
          and spread("doubling2") <= _REL
          and spread("reverse_doubling2") <= _REL)
    _line("11", "cascade potential and doubling constants stable", ok,
          f"riesz x{spread('riesz_normalized'):.4g}; "
          f"dbl x{spread('doubling2'):.4g}; "
          f"rev x{spread('reverse_doubling2'):.4g}")


def _oracle_corpus():
    def step(a, b, d):
        return Measure(pieces=[StepPiece(Interval(F(a, 8), F(b, 8)), F(d, 4))])

    def cascade(delta, depth):
        return gks_cascade(delta, depth).translate(F(3, 2))

    return [
        lebesgue_on(Interval(0, 4), 1),
        lebesgue_on(Interval(0, 2), F(1, 2)) + lebesgue_on(Interval(2, 4), 2),
        power_weight(F(1, 2), Interval(0, 4), 5),
        power_weight(-F(1, 2), Interval(0, 4), 5),
        power_weight(F(1, 4), Interval(0, 4), 5),
        cascade(F(1, 4), 3),
        cascade(F(3, 10), 3),
        cascade(F(2, 7), 4),
        step(0, 8, 1) + step(8, 16, 3) + step(16, 24, 1),
        step(0, 16, 2) + step(16, 32, 6),
        step(4, 12, 1) + step(12, 20, 4) + step(20, 28, 1),
        step(0, 32, 1) + step(12, 20, 8),
        step(0, 32, 4) + step(8, 24, 2),
        step(2, 30, 3),
        step(0, 32, 1) + step(0, 4, 6) + step(28, 32, 6),
        step(0, 32, 2) + step(14, 18, 10),
        step(0, 8, 5) + step(8, 32, 1),
        step(0, 32, 1) + step(16, 32, 3),
        step(6, 26, 2) + step(10, 22, 2),
        step(0, 32, 3) + step(24, 32, 9),
    ]


def test_12_scan_family_matches_brute_force():
    window = Interval(0, 4)
    # lattice-aligned shifts per level: every 1/8-offset of each dyadic width
    cands = []
    for level in range(-3, 3):
        shifts = 8 * 2 ** level if level >= 0 else max(1, 8 >> -level)
        fam = ScanFamily(window, level, level, base=2, shifts=shifts)
        cands += [c for c in fam.intervals()
                  if c.lo >= window.lo and c.hi <= window.hi]
    corpus = _oracle_corpus()
    worst = {"classical": 1.0, "doubling": 1.0, "avg": 1.0}
    for i, omega in enumerate(corpus):
        sigma = corpus[(i + 7) % len(corpus)]
        funcs = {
            "classical": lambda iv: ap_local(omega, sigma, iv),
            "doubling": lambda iv: (float(omega.mass(iv.dilate(2))
                                          / omega.mass(iv))
                                    if omega.mass(iv) > 0 else 0.0),
            "avg": lambda iv: float(avg_density(omega, iv)),
        }
        for name, fn in funcs.items():
            scan = max(fn(c) for c in cands)
            brute, _ = brute_force_sup(fn, window, 8)
            if min(scan, brute) > 0:
                worst[name] = max(worst[name],
                                  max(scan, brute) / min(scan, brute))
    ok = all(v <= 1.2 for v in worst.values())
    _line("12", "scan sup agrees with brute-force oracle within 1.2", ok,
          "; ".join(f"{k} x{v:.4g}" for k, v in worst.items()))


def test_13_exact_and_float_paths_agree():
    rng = random.Random(0x13EAC7)
    parent = Interval(-2, 2)
    worst = 0.0
    checked = 0
    for _ in range(20):
        # maximal-function integrals reject atoms, so keep omega atom-free
        omega = random_compact_measure(rng, allow_atoms=False)
        sigma = random_compact_measure(rng)
        a = rng.randint(-16, 14)
        iv = Interval(F(a, 8), F(rng.randint(a + 2, 16), 8))
        pairs = [
            (float(poisson(iv, omega)), _poisson_float(iv, omega, 0)),
            (float(maximal_indicator_integral(omega, iv, 2)),
             float(_tail_many(omega, [float(iv.lo)], [float(iv.hi)], 2)[0])),
        ]
        cells = [h for c in split_cell(parent, 2) for h in split_cell(c, 2)]
        part = Partition(parent, tuple(cells))
        if sigma.mass(parent) > 0:
            # the float sum of the cell terms that pivotal_sum adds exactly
            sigma_in = sigma.restrict(parent)
            float_sum = sum(float(omega.mass(c, include_hi=(c.hi == parent.hi)))
                            * _poisson_float(c, sigma_in, 0) ** 2 for c in cells)
            pairs.append((float(pivotal_sum(omega, sigma, parent, part, 2)),
                          float_sum / float(sigma.mass(parent))))
        for ex, fl in pairs:
            checked += 1
            if ex == fl == 0:
                continue
            worst = max(worst, abs(ex - fl) / max(abs(ex), abs(fl)))
    ok_paths = worst <= 1e-12
    rng2 = random.Random(0x0F11E5)
    round_trips = sum(
        parse_measure(write_measure(m)) == m
        for m in (random_compact_measure(rng2) for _ in range(100)))
    ok_rt = round_trips == 100
    _line("13", "float/exact agreement and file round-trip",
          ok_paths and ok_rt,
          f"worst rel err {worst:.3g} over {checked} checks; "
          f"{round_trips}/100 round-trips")
