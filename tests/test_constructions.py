from fractions import Fraction as F

import pytest

from wtc import Interval, Measure, NonIntegrableError, ParamDomainError, StageOverflowError
from wtc import constructions
from wtc.constructions import (
    _build_cp_measure,
    _stage_scan_intervals,
    cascade_half_mass_prefix,
    cp_weight,
    gks_cascade,
    lebesgue_on,
    pivotal_example_pair,
    power_weight,
    remark2_weight,
    thm5_part1_pair,
    thm5_part2_pair,
)
from wtc.fileformat import write_measure
from wtc.functionals import (
    ap_local_squared,
    doubling_constant,
    maximal_indicator_integral,
    poisson,
)
from wtc.grid import ScanFamily


def iv(a, b):
    return Interval(F(a), F(b))


def fraction_cascade(delta, depth):
    """(lo, hi, density) of each cascade cell, from products of Fraction masses."""
    side = (1 - delta) / 2
    masses = [F(1)]
    for _ in range(depth):
        masses = [m * f for m in masses for f in (side, delta, side)]
    h = F(1, 3 ** depth)
    return [(j * h, (j + 1) * h, m / h) for j, m in enumerate(masses)]


def product_loop_cascade(delta, depth):
    """gks_cascade as it was built by one product per cell and level, its
    density column reduced by the measure core entry by entry."""
    side, middle = delta.denominator - delta.numerator, 2 * delta.numerator
    cells = 3 ** depth
    densities = [cells]
    for _ in range(depth):
        densities = [m * f for m in densities for f in (side, middle, side)]
    lo = list(range(cells))
    return Measure.from_columns(cells, lo, lo[1:] + [cells], densities,
                                (2 * delta.denominator) ** depth)


class TestCascade:
    def test_depth1_masses(self):
        mu = gks_cascade(F(1, 4), 1)
        thirds = [iv(0, F(1, 3)), iv(F(1, 3), F(2, 3)), iv(F(2, 3), 1)]
        assert [mu.mass(c, include_hi=False) for c in thirds] == [F(3, 8), F(1, 4), F(3, 8)]

    def test_depth2_corner(self):
        mu = gks_cascade(F(1, 4), 2)
        assert mu.mass(iv(0, F(1, 9)), include_hi=False) == F(9, 64)

    def test_total_mass_one(self):
        assert gks_cascade(F(1, 5), 4).total_mass() == 1

    def test_delta_domain(self):
        with pytest.raises(ParamDomainError):
            gks_cascade(F(1, 3), 2)
        with pytest.raises(ParamDomainError):
            gks_cascade(0, 2)

    @pytest.mark.parametrize("depth", [-1, F(1, 2), 2.0, "3"])
    def test_depth_domain(self, depth):
        with pytest.raises(ParamDomainError):
            gks_cascade(F(1, 4), depth)

    @pytest.mark.parametrize("delta", [F(1, 4), F(1, 5), F(2, 7), F(3, 10)])
    def test_matches_fraction_products(self, delta):
        for depth in range(7):
            mu = gks_cascade(delta, depth)
            assert [(p.support.lo, p.support.hi, p.density) for p in mu.pieces] \
                == fraction_cascade(delta, depth)

    @pytest.mark.parametrize("delta", [F(1, 4), F(1, 5), F(2, 7), F(3, 10), F(1, 1000003)])
    def test_columns_match_the_product_loop(self, delta):
        for depth in range(10):
            got = gks_cascade(delta, depth).columns()
            assert got == product_loop_cascade(delta, depth).columns()
        # the list holds densities past 2^63 and a delta whose gcd reduces
        if delta == F(1, 1000003):
            assert max(got.density) > 2 ** 63
        if delta == F(1, 5):
            assert got.density_den < (2 * delta.denominator) ** depth

    @pytest.mark.parametrize("delta", [F(1, 4), F(1, 5)])
    def test_density_column_shares_one_int_per_middle_count(self, delta):
        depth = 10
        density = gks_cascade(delta, depth).columns().density
        assert len(density) == 3 ** depth
        assert len({id(d) for d in density}) <= depth + 1

    def test_file_bytes(self):
        expected = "# wtc-measure v1\n" + "".join(
            f"step {lo} {hi} {d}\n" for lo, hi, d in fraction_cascade(F(1, 4), 9))
        assert write_measure(gks_cascade(F(1, 4), 9)) == expected

    def test_half_mass_prefix_shrinks(self):
        sizes = [cascade_half_mass_prefix(F(1, 18), d)[1] for d in (2, 4, 6, 8)]
        assert sizes == sorted(sizes, reverse=True)
        mass, size = cascade_half_mass_prefix(F(1, 18), 5)
        assert mass >= F(1, 2) and size < F(1, 8)


class TestPowerWeight:
    def test_alpha_zero_is_lebesgue(self):
        w = power_weight(0, iv(-2, 2), resolution_level=3)
        assert w == lebesgue_on(iv(-2, 2))

    def test_cell_average_oracle(self):
        w = power_weight(F(1, 2), iv(1, 2), resolution_level=0)
        expected = (2 ** 1.5 - 1) / 1.5
        assert float(w.density_at(F(3, 2))) == pytest.approx(expected, rel=1e-12)

    def test_even_symmetry(self):
        w = power_weight(F(1, 2), iv(-2, 2), resolution_level=4)
        for p in w.pieces:
            assert w.density_at(p.support.midpoint) == w.density_at(-p.support.midpoint)

    def test_non_integrable(self):
        with pytest.raises(NonIntegrableError):
            power_weight(-1, iv(-1, 1))

    @pytest.mark.parametrize("level", [-1, F(1, 2), 2.0])
    def test_resolution_domain(self, level):
        with pytest.raises(ParamDomainError):
            power_weight(F(1, 2), iv(-1, 1), level)


@pytest.fixture(scope="module")
def built():
    return cp_weight(p=2, K=2)


class TestCpWeight:

    def test_ring_masses(self, built):
        w = built.measure
        d1 = built.witnesses["delta1"]
        for n in range(5):
            half = F(3) ** n / 2
            assert w.mass(iv(-half, half)) == 1 / d1 ** n

    def test_witness_ranges(self, built):
        for sw in built.witnesses["stages"]:
            assert F(3, 10) <= sw.e_mass_fraction <= F(7, 10)
            assert sw.e_size_fraction <= F(1, 2 ** sw.k)
            assert sw.e_mass_fraction / sw.e_size_fraction >= 2 ** (sw.k - 1)

    def test_gain_exact(self, built):
        w = built.measure
        for sw in built.witnesses["stages"]:
            for interval in _stage_scan_intervals(sw.il0.midpoint, sw.n, sw.i):
                assert maximal_indicator_integral(w, interval, 2) >= 2 ** sw.k * w.mass(interval)

    def test_stage_scales_increase(self, built):
        stages = built.witnesses["stages"]
        ns = [sw.n for sw in stages]
        assert ns == sorted(set(ns))

    def test_doubling_bounded(self, built):
        w = built.measure
        sw = built.witnesses["stages"][-1]
        c = sw.il0.midpoint
        fam = ScanFamily(iv(c - 5, c + 5), min_level=-3, max_level=2, base=3, shifts=3)
        scan = doubling_constant(w, fam, 3)
        d1 = built.witnesses["delta1"]
        d2 = built.witnesses["delta2"]
        assert scan.value <= 9 / min(d1, d2)

    def test_param_domain(self):
        with pytest.raises(ParamDomainError):
            cp_weight(p=2, delta1=F(1, 2))
        with pytest.raises(ParamDomainError):
            cp_weight(p=2, delta2=F(1, 3))

    @pytest.mark.parametrize("K", [0, -2])
    def test_stage_count_domain(self, K):
        with pytest.raises(ParamDomainError):
            cp_weight(p=2, K=K)

    def test_measure_is_the_whole_tower(self, built):
        stages = built.witnesses["stages"]
        assert built.witnesses["n_total"] == stages[-1].n + 1
        assert built.measure == _build_cp_measure(
            built.witnesses["delta1"], built.witnesses["delta2"],
            [(sw.n, sw.i) for sw in stages], built.witnesses["n_total"])

    def test_stage_overflow(self, monkeypatch):
        monkeypatch.setattr(constructions, "CP_MAX_SCALE", 4)
        with pytest.raises(StageOverflowError):
            cp_weight(p=2, K=2)


class TestThm5Part1:
    def test_block_densities(self):
        omega, sigma, wit = thm5_part1_pair(K=2)
        assert omega.mass(iv(100, 101)) == 1
        # block train at -100: density 2^i on [-100+2^i, -100+2^(i+1)], i<=k
        assert omega.density_at(F(-100) + F(3, 2)) == 1
        assert omega.density_at(F(-100) + 3) == 2
        assert sigma.mass(iv(-100, -99)) == 1
        assert sigma.density_at(F(100) + 3) == 2

    def test_witnesses(self):
        _, _, wit = thm5_part1_pair(K=3)
        assert wit["blocks"][2] == iv(1000000, 1000001)

    def test_stage_domain(self):
        with pytest.raises(ParamDomainError):
            thm5_part1_pair(K=7)


class TestThm5Part2:
    def test_block_mass(self):
        omega, sigma = thm5_part2_pair(N=4)
        assert omega.mass(iv(2, 4)) == 4
        for n in range(1, 5):
            assert omega.mass(iv(2 ** n, 2 ** (n + 1))) == 2 ** (2 * n)
        assert sigma == Measure.lebesgue(iv(0, 1))

    @pytest.mark.parametrize("N", range(1, 13))
    def test_two_tailed_at_unit_is_half_n(self, N):
        # each block 2^n on [2^n, 2^(n+1)] adds exactly
        # 2^n (1/2^n - 1/(2^(n+1))) = 1/2 to P([0,1], omega), and sigma's
        # Poisson integral at [0,1] is 1: from N=6 to N=12 the two-tailed
        # value grows by exactly 3
        omega, sigma = thm5_part2_pair(N)
        assert poisson(iv(0, 1), omega) == F(N, 2)
        assert ap_local_squared(omega, sigma, iv(0, 1), "two_tailed") == F(N, 2)


class TestPivotalPair:
    def test_masses(self):
        omega, sigma = pivotal_example_pair(N=5)
        assert omega.mass(iv(-1, 1)) == 1
        assert sigma.mass(iv(F(5, 2), F(7, 2))) == 3
        assert sigma.total_mass() == 2 + 3 + 4 + 5

    def test_domain(self):
        with pytest.raises(ParamDomainError):
            pivotal_example_pair(N=1)


class TestRemark2:
    def test_unit_ball_empty(self):
        w = remark2_weight(8)
        assert w.mass(iv(-1, 1)) == 0
        assert w.total_mass() == 14
