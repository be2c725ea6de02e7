import math
from fractions import Fraction as F

import numpy as np
import pytest

from wtc import FamilyTooLargeError, Interval, Measure
from wtc.grid import (
    Partition,
    ScanFamily,
    brute_force_sup,
    first_best,
    partition_count,
    partitions,
    snap_to_dyadic,
    stopping_cubes,
)
from wtc.functionals import sup_over_family


def iv(a, b):
    return Interval(F(a), F(b))


class TestScanFamily:
    def test_dyadic_unit_window(self):
        fam = ScanFamily(iv(0, 1), min_level=-1, max_level=0, base=2)
        got = set(fam.intervals())
        assert got == {iv(0, 1), iv(0, F(1, 2)), iv(F(1, 2), 1)}

    def test_triadic_spans_window(self):
        fam = ScanFamily(iv(0, 3), min_level=0, max_level=1, base=3)
        got = set(fam.intervals())
        assert got == {iv(0, 1), iv(1, 2), iv(2, 3), iv(0, 3)}

    def test_shifted_translates_present(self):
        fam = ScanFamily(iv(0, 2), min_level=0, max_level=0, base=2, shifts=2)
        assert iv(F(1, 2), F(3, 2)) in set(fam.intervals())

    def test_every_candidate_meets_window(self):
        fam = ScanFamily(iv(F(1, 3), F(5, 3)), min_level=-2, max_level=1, shifts=3)
        for cand in fam.intervals():
            assert cand.lo < fam.window.hi and cand.hi > fam.window.lo

    def test_count_matches_enumeration(self):
        fam = ScanFamily(iv(-1, 2), min_level=-3, max_level=2, base=2, shifts=3)
        assert fam.count() == len(list(fam.intervals()))

    def test_cap_enforced(self):
        # the first family holds 2^21 - 1 candidates; the second is refused
        # from its level count alone, before any of its 3 * 10^9 blocks is
        # built
        for fam in (ScanFamily(iv(0, 1), min_level=-20, max_level=0),
                    ScanFamily(iv(0, 1), 0, 10 ** 9 - 1, base=3, shifts=3)):
            with pytest.raises(FamilyTooLargeError):
                list(fam.intervals())
            with pytest.raises(FamilyTooLargeError):
                fam.endpoints()


class TestPartitions:
    def test_counts(self):
        assert partition_count(2, 0) == 1
        assert partition_count(2, 1) == 2
        assert partition_count(2, 2) == 5

    def test_depth2_enumeration(self):
        got = list(partitions(iv(0, 1), base=2, max_depth=2))
        assert len(got) == 5
        cells = {p.cells for p in got}
        assert (iv(0, F(1, 2)), iv(F(1, 2), F(3, 4)), iv(F(3, 4), 1)) in cells

    def test_cells_tile_parent(self):
        for p in partitions(iv(-1, 2), base=3, max_depth=2):
            assert sum((c.length for c in p.cells), F(0)) == 3

    def test_cap(self):
        with pytest.raises(FamilyTooLargeError):
            list(partitions(iv(0, 1), base=3, max_depth=4))


class TestSnap:
    def test_already_dyadic(self):
        assert snap_to_dyadic(iv(F(1, 2), 1)) == (iv(F(1, 2), 1), False)

    def test_non_aligned(self):
        root, snapped = snap_to_dyadic(iv(F(1, 3), F(2, 3)))
        assert snapped
        assert root == iv(0, 1)

    def test_straddles_zero(self):
        root, snapped = snap_to_dyadic(iv(-1, 3))
        assert snapped
        assert root == iv(-4, 4)

    def test_negative_side(self):
        assert snap_to_dyadic(iv(-3, -2)) == (iv(-3, -2), False)
        root, _ = snap_to_dyadic(iv(-3, -1))
        assert root == iv(-4, 0)


class TestStoppingCubes:
    def test_lebesgue_forest_empty(self):
        forest = stopping_cubes(Measure.lebesgue(iv(0, 1)), iv(0, 1), 4, max_depth=8)
        assert forest.total() == 0
        assert not forest.levels

    def test_atom_one_cube_per_level(self):
        sigma = Measure.point_mass(F(1, 3), 1)
        forest = stopping_cubes(sigma, iv(0, 1), 2, max_depth=10)
        # threshold 2^m is beaten by the first cell of width < 2^-m around the atom
        for m in range(10):
            assert len(forest.levels[m]) == 1
            assert forest.level_mass(m) == 1
        assert 10 not in forest.levels
        assert forest.depth_exhausted

    def test_flat_steps_no_cubes_mass_bound(self):
        sigma = Measure.from_steps([(0, 1, 8), (1, 2, 1)])
        forest = stopping_cubes(sigma, iv(0, 2), 16, max_depth=8)
        assert forest.total() == 0 <= 2 * sigma.mass(iv(0, 2))

    def test_concentration_total_bounded(self):
        sigma = Measure.from_steps([(0, F(1, 64), 64), (F(1, 64), 1, F(1, 4))])
        # K must dominate the doubling behaviour for the 2*sigma(I) bound
        forest = stopping_cubes(sigma, iv(0, 1), 8, max_depth=12)
        assert forest.total() <= 2 * sigma.mass(iv(0, 1))
        assert forest.levels


class TestBruteForce:
    def test_max_length_interval_wins(self):
        val, wit = brute_force_sup(lambda c: float(c.length), iv(0, 1), q=4)
        assert val == 1.0
        assert wit == iv(0, 1)

    def test_cap(self):
        with pytest.raises(FamilyTooLargeError):
            brute_force_sup(lambda c: 0.0, iv(0, 1), q=1000, cap=100)

    def test_density_spike_found(self):
        mu = Measure.from_steps([(0, F(1, 4), 9), (F(1, 4), 1, 1)])
        val, wit = brute_force_sup(
            lambda c: float(mu.mass(c, include_hi=False) / c.length), iv(0, 1), q=8)
        assert val == 9.0
        assert wit.hi <= F(1, 4)


class TestFirstBest:
    @pytest.mark.parametrize("pairs, want", [
        ([], (None, None)),
        ([("a", 1), ("b", 3), ("c", 2)], (3, "b")),
        ([("a", 1), ("b", 1)], (1, "a")),                       # a tie keeps the first
        ([("a", None), ("b", 2), ("c", None)], (2, "b")),       # None is skipped
        ([("a", None), ("b", None)], (None, None)),
        ([(None, 0.0), ("a", 0.0)], (0.0, None)),               # a seed is kept on a tie
        ([(None, 0.0), ("a", -1.0)], (0.0, None)),
        ([(None, 0.0), ("a", 0.5), ("b", 0.5)], (0.5, "a")),    # unless strictly beaten
        ([(None, -math.inf), ("a", None)], (-math.inf, None)),
        ([(None, -math.inf), ("a", -2.0), ("b", -1.0), ("c", -1.0)], (-1.0, "b")),
    ])
    def test_table(self, pairs, want):
        assert first_best(iter(pairs)) == want

    def test_tied_family_keeps_first_in_enumeration_order(self):
        # one level, two shifts: every candidate has length 1
        fam = ScanFamily(iv(0, 2), min_level=0, max_level=0, base=2, shifts=2)
        first = next(fam.intervals())
        assert first == iv(0, 1) and fam.count() > 1

        def screen(f):
            lo, hi, _ = f.endpoints()
            return hi - lo

        assert sup_over_family(lambda c: c.length, fam) == (1, first)
        assert sup_over_family(lambda c: c.length, fam, screen) == (1, first)
        assert np.all(screen(fam) == 1.0)
        # on the 1/4 lattice of [0, 1], (lo, hi) order meets [0, 1/2] first
        # of the intervals of length at least 1/2
        val, wit = brute_force_sup(lambda c: min(c.length, F(1, 2)), iv(0, 1), q=4)
        assert (val, wit) == (F(1, 2), iv(0, F(1, 2)))
