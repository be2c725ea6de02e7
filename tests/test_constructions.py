from fractions import Fraction as F
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub

import pytest

from wtc import (Interval, Measure, NonIntegrableError, ParamDomainError, StageOverflowError,
                 StepPiece)
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
from wtc.measure import _canonical

from oracles import density_at


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


@lru_cache
def middle_digit_counts(depth):
    """For each cell j of a depth-digit triadic cascade, the count of 1s
    among the depth triadic digits of j."""
    counts = []
    for j in range(3 ** depth):
        k = 0
        for _ in range(depth):
            j, digit = divmod(j, 3)
            k += digit == 1
        counts.append(k)
    return tuple(counts)


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

    @pytest.mark.parametrize("delta", [F(1, 4), F(1, 5), F(2, 7), F(3, 10), F(1, 10)])
    def test_columns_are_canonical_as_built(self, delta):
        """gks_cascade builds its measure unchecked, through `Measure._make`:
        its columns must be canonical, and `from_columns`, which checks
        them, must find the same columns and prefix sums."""
        for depth in range(10):
            mu = gks_cascade(delta, depth)
            cols = mu.columns()
            assert _canonical(cols.den, cols.atom_x, cols.atom_mass, cols.mass_den,
                              cols.lo, cols.hi, cols.density, cols.density_den)
            checked = Measure.from_columns(*cols)
            assert checked.columns() == cols and checked._pcum == mu._pcum
            assert mu._pcum == [0, *accumulate(map(mul, cols.density,
                                                   map(sub, cols.hi, cols.lo)))]
            # one density per middle-digit count, so neighbours differ
            counts = middle_digit_counts(depth)
            assert len(set(zip(counts, cols.density))) == len(set(counts))

    def test_neighbours_differ_by_one_middle_digit(self):
        for depth in range(10):
            counts = middle_digit_counts(depth)
            assert all(abs(b - a) == 1 for a, b in zip(counts, counts[1:]))

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
        assert float(density_at(w, F(3, 2))) == pytest.approx(expected, rel=1e-12)

    def test_even_symmetry(self):
        w = power_weight(F(1, 2), iv(-2, 2), resolution_level=4)
        for p in w.pieces:
            assert density_at(w, p.support.midpoint) == density_at(w, -p.support.midpoint)

    def test_non_integrable(self):
        with pytest.raises(NonIntegrableError):
            power_weight(-1, iv(-1, 1))

    @pytest.mark.parametrize("level", [-1, F(1, 2), 2.0])
    def test_resolution_domain(self, level):
        with pytest.raises(ParamDomainError):
            power_weight(F(1, 2), iv(-1, 1), level)


def object_cp_measure(delta1, delta2, stages, n_total):
    """The cp weight built from `StepPiece` objects, as `_build_cp_measure`
    built it before it took int columns."""
    def graded_cell(cell, mass, depth, inner_right):
        if mass == 0:
            return []
        side = (1 - delta2) / 2
        pieces = []
        lo, hi = cell.lo, cell.hi
        for _ in range(depth):
            h = (hi - lo) / 3
            if inner_right:
                pieces.append(StepPiece(iv(lo, lo + h), side * mass / h))
                pieces.append(StepPiece(iv(lo + h, lo + 2 * h), delta2 * mass / h))
                lo = lo + 2 * h
            else:
                pieces.append(StepPiece(iv(hi - h, hi), side * mass / h))
                pieces.append(StepPiece(iv(hi - 2 * h, hi - h), delta2 * mass / h))
                hi = hi - 2 * h
            mass = side * mass
        pieces.append(StepPiece(iv(lo, hi), mass / (hi - lo)))
        return pieces

    def stage_pieces(center, n, i, w_left_third):
        lmax = n - 1
        side = (1 - delta2) / 2
        pieces = []
        for m in range(2, lmax + 1):
            ann_mass = (1 - delta2) * delta2 ** (lmax - m) * w_left_third
            third = F(3) ** (m - 1)
            dens = ann_mass / (2 * third)
            half = F(3) ** m / 2
            pieces.append(StepPiece(iv(center - half, center - half + third), dens))
            pieces.append(StepPiece(iv(center + half - third, center + half), dens))
        wj = side * delta2 ** (lmax - 1) * w_left_third if lmax >= 1 else F(0)
        pieces += graded_cell(iv(center - F(3, 2), center - F(1, 2)), wj, i, True)
        pieces += graded_cell(iv(center + F(1, 2), center + F(3, 2)), wj, i, False)
        w0 = delta2 ** lmax * w_left_third
        return pieces + list(gks_cascade(delta2, i).scale(w0)
                             .translate(center - F(1, 2)).pieces)

    pieces = [StepPiece(iv(F(-1, 2), F(1, 2)), F(1))]
    stage_at = dict(stages)
    for n in range(1, n_total + 1):
        ring_half_mass = (1 - delta1) / (2 * delta1 ** n)
        third = F(3) ** (n - 1)
        dens = ring_half_mass / third
        half = F(3) ** n / 2
        pieces.append(StepPiece(iv(half - third, half), dens))
        if n in stage_at:
            pieces += stage_pieces(-third, n, stage_at[n], ring_half_mass)
        else:
            pieces.append(StepPiece(iv(-half, -half + third), dens))
    return Measure(pieces=pieces)


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

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("p, delta1, delta2", [
        (2, None, None), (3, None, None), (3, F(2, 9), None), (2, F(1, 6), F(1, 18))])
    def test_columns_match_the_object_build(self, p, delta1, delta2, K):
        # the default deltas at p = 2 and 3, the CLI's delta1 = 2/9 (the
        # p = 2 default) at p = 3, and cp-not-ainfty's deltas; every trial
        # tower the search builds is a prefix of the stages
        built = cp_weight(p, delta1, delta2, K=K)
        d1, d2 = built.witnesses["delta1"], built.witnesses["delta2"]
        stages = [(sw.n, sw.i) for sw in built.witnesses["stages"]]
        assert built.measure.columns() == object_cp_measure(
            d1, d2, stages, built.witnesses["n_total"]).columns()
        for k in range(1, K):
            assert _build_cp_measure(d1, d2, stages[:k], stages[k - 1][0] + 1).columns() \
                == object_cp_measure(d1, d2, stages[:k], stages[k - 1][0] + 1).columns()

    @pytest.mark.parametrize("p, delta1, delta2, K, want", [
        (2, None, None, 5, [(4, 2), (8, 3), (13, 5), (18, 7), (22, 8)]),
        (2, F(1, 6), F(1, 18), 5, [(4, 2), (8, 3), (13, 5), (18, 7), (21, 8)]),
        (3, None, None, 4, [(11, 3), (12, 3), (17, 4), (26, 6)])])
    def test_stage_search_picks_the_pinned_stages(self, p, delta1, delta2, K, want):
        # the float gain check decides each stage's scale n: a change in its
        # rounding can move a stage, so the stages (n, i) are pinned up to K = 5
        built = cp_weight(p, delta1, delta2, K=K)
        assert [(sw.n, sw.i) for sw in built.witnesses["stages"]] == want

    def test_stage_overflow(self, monkeypatch):
        monkeypatch.setattr(constructions, "CP_MAX_SCALE", 4)
        with pytest.raises(StageOverflowError):
            cp_weight(p=2, K=2)


class TestThm5Part1:
    def test_block_densities(self):
        omega, sigma, wit = thm5_part1_pair(K=2)
        assert omega.mass(iv(100, 101)) == 1
        # block train at -100: density 2^i on [-100+2^i, -100+2^(i+1)], i<=k
        assert density_at(omega, F(-100) + F(3, 2)) == 1
        assert density_at(omega, F(-100) + 3) == 2
        assert sigma.mass(iv(-100, -99)) == 1
        assert density_at(sigma, F(100) + 3) == 2

    def test_witnesses(self):
        _, _, wit = thm5_part1_pair(K=3)
        assert wit["blocks"][2] == iv(1000000, 1000001)

    def test_stage_domain(self):
        with pytest.raises(ParamDomainError):
            thm5_part1_pair(K=7)

    @pytest.mark.parametrize("K", range(1, 7))
    def test_rows_build_the_object_pair(self, K):
        # the pair as it was built from `StepPiece`s, block train by block train
        def train(base, count):
            return [StepPiece(iv(base + 2 ** i, base + 2 ** (i + 1)), F(2 ** i))
                    for i in range(count + 1)]

        om, sg = [], []
        for k in range(1, K + 1):
            c = F(100) ** k
            om += [StepPiece(iv(c, c + 1), F(1))] + train(-c, k)
            sg += [StepPiece(iv(-c, -c + 1), F(1))] + train(c, k)
        omega, sigma, _ = thm5_part1_pair(K)
        assert omega.columns() == Measure(pieces=om).columns()
        assert sigma.columns() == Measure(pieces=sg).columns()


class TestThm5Part2:
    def test_block_mass(self):
        omega, sigma = thm5_part2_pair(N=4)
        assert omega.mass(iv(2, 4)) == 4
        for n in range(1, 5):
            assert omega.mass(iv(2 ** n, 2 ** (n + 1))) == 2 ** (2 * n)
        assert sigma == Measure.lebesgue(iv(0, 1))

    @pytest.mark.parametrize("N", [1, 8, 20])
    def test_rows_build_the_object_measure(self, N):
        omega, _ = thm5_part2_pair(N)
        assert omega.columns() == Measure(pieces=[
            StepPiece(iv(2 ** n, 2 ** (n + 1)), F(2 ** n)) for n in range(1, N + 1)]).columns()

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
