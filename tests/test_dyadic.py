"""Per-cell evaluation of pivotal sums and dyadic-cell masses against the
cell-by-cell loops they replace (kept here as the references)."""

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtc import Atom, Interval, Measure, StepPiece
from wtc.functionals import (
    _poisson_float,
    dyadic_maximal_integral,
    energy_e2,
    pivotal_sum,
    pivotal_sums,
    pivotal_sup,
    poisson,
)
from wtc.errors import FamilyTooLargeError, ZeroMassError
from wtc.grid import StoppingForest, first_best, partitions, snap_to_dyadic, stopping_cubes
from wtc.measure import DyadicMasses

ROOTS = [Interval(0, 1), Interval(-4, 4), Interval(-4, 0),
         Interval(F(1, 2), F(3, 4)), Interval(F(1, 3), F(5, 3))]


# -- the loops as they were ----------------------------------------------------

def old_pivotal_sum(omega, sigma, parent, part, p=2, alpha=0, with_energy=False):
    s_total = sigma.mass(parent)
    sigma_in = sigma.restrict(parent)
    exact = alpha == 0 and isinstance(p, int)
    total = F(0) if exact else 0.0
    for cell in part.cells:
        wm = omega.mass(cell, include_hi=(cell.hi == parent.hi))
        if wm == 0:
            continue
        pv = poisson(cell, sigma_in) if exact else _poisson_float(cell, sigma_in, alpha)
        term = wm * pv ** p
        if with_energy:
            term *= energy_e2(cell, omega)
        total += term
    return total / s_total if exact else float(total) / float(s_total)


def old_stopping_cubes(sigma, interval, K, max_depth):
    K = F(K)
    root, snapped = snap_to_dyadic(interval)
    levels, truncated = {}, []

    def cell_mass(cell):
        return sigma.mass(cell, include_hi=(cell.hi == root.hi))

    total = cell_mass(root)
    if total == 0:
        return StoppingForest(root, snapped, K, levels, truncated, False)
    root_avg = total / root.length
    m = 0
    while K ** m < root_avg:
        m += 1

    def search(cell, depth, m, thresh, found, is_root):
        mass = cell_mass(cell)
        if mass == 0:
            return
        if not is_root and mass / cell.length > thresh:
            found.append((cell, mass))
            return
        if depth >= max_depth:
            if any(cell.lo <= a.x < cell.hi or a.x == cell.hi == root.hi
                   for a in sigma.atoms):
                truncated.append((m, cell, mass))
            return
        mid = cell.midpoint
        search(Interval(cell.lo, mid), depth + 1, m, thresh, found, False)
        search(Interval(mid, cell.hi), depth + 1, m, thresh, found, False)

    while True:
        thresh = K ** m
        found = []
        search(root, 0, m, thresh, found, True)
        if not found:
            break
        levels[m] = found
        m += 1
    return StoppingForest(root, snapped, K, levels, truncated, bool(truncated))


def old_dyadic_maximal_integral(sigma, omega, interval, p=2, max_depth=8):
    boundary_atoms = []

    def rec(cell, depth, best_avg):
        avg = sigma.mass(cell, include_hi=(cell.hi == interval.hi)) / cell.length
        best_avg = max(best_avg, avg)
        if depth >= max_depth:
            return best_avg ** p * omega.mass(cell, include_hi=(cell.hi == interval.hi))
        mid = cell.midpoint
        for a in omega.atoms:
            if a.x == mid:
                boundary_atoms.append((cell, a))
        return (rec(Interval(cell.lo, mid), depth + 1, best_avg)
                + rec(Interval(mid, cell.hi), depth + 1, best_avg))

    return rec(interval, 0, F(0)), boundary_atoms


def old_cells(root, depth):
    """(d, k, cell) for every cell to the depth, cells split at midpoints."""
    level = [root]
    for d in range(depth + 1):
        for k, cell in enumerate(level):
            yield d, k, cell
        level = [half for c in level
                 for half in (Interval(c.lo, c.midpoint), Interval(c.midpoint, c.hi))]


# -- measures with atoms and breakpoints on the cells' endpoints -------------

@st.composite
def points(draw, root):
    """A point on the depth-4 grid of the root (endpoints, midpoints,
    root.hi included), a rational inside the root, or one outside it."""
    kind = draw(st.sampled_from(("grid", "grid", "rational", "outside")))
    if kind == "grid":
        return root.lo + root.length * F(draw(st.integers(0, 16)), 16)
    if kind == "rational":
        return root.lo + root.length * F(draw(st.integers(0, 35)), 35)
    return draw(st.sampled_from((root.lo - 1, root.hi + F(1, 3))))


@st.composite
def measures(draw, root):
    atoms = [Atom(draw(points(root)), F(draw(st.integers(1, 9)), draw(st.integers(1, 4))))
             for _ in range(draw(st.integers(0, 3)))]
    cuts = sorted(set(draw(st.lists(points(root), min_size=2, max_size=6))))
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        density = F(draw(st.integers(0, 5)), draw(st.integers(1, 3)))
        if density:
            pieces.append(StepPiece(Interval(lo, hi), density))
    return Measure(atoms, pieces)


@st.composite
def rooted(draw):
    root = draw(st.sampled_from(ROOTS))
    return root, draw(measures(root))


@st.composite
def pivotal_setups(draw):
    parent = draw(st.sampled_from(ROOTS))
    omega = draw(measures(parent))
    # sigma keeps mass on the parent: pivotal sums normalize by it
    sigma = draw(measures(parent)) + Measure.lebesgue(
        Interval(parent.lo, parent.lo + parent.length / 4), F(1, 2))
    return parent, omega, sigma


# -- tests ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(rooted())
def test_dyadic_masses_match_mass(setup):
    root, mu = setup
    cells = DyadicMasses(mu, root, 7)
    for d, k, cell in old_cells(root, 7):
        assert cells.interval(d, k) == cell
        want = mu.mass(cell, include_hi=(cell.hi == root.hi))
        assert F(cells.mass(d, k), cells.den) == want
        assert cells.has_atom(d, k) == any(
            cell.lo <= a.x < cell.hi or a.x == cell.hi == root.hi for a in mu.atoms)


def test_dyadic_masses_atoms_on_grid():
    root = Interval(-4, 4)
    mu = (Measure.point_mass(-4, 1) + Measure.point_mass(0, 2)
          + Measure.point_mass(F(-3, 2), 3) + Measure.point_mass(4, 5)
          + Measure.lebesgue(Interval(-1, F(1, 3)), F(2, 7)))
    cells = DyadicMasses(mu, root, 4)
    assert F(cells.mass(0, 0), cells.den) == mu.total_mass()
    assert F(cells.mass(1, 1), cells.den) == mu.mass(Interval(0, 4))
    assert F(cells.mass(1, 0), cells.den) == mu.mass(Interval(-4, 0), include_hi=False)
    assert cells.grid_index(F(-3, 2)) == 5 and cells.grid_index(F(1, 3)) is None


@pytest.mark.parametrize("depth", [2, 3])
@settings(max_examples=25, deadline=None)
@given(setup=pivotal_setups())
def test_pivotal_sums_match_old_loop(depth, setup):
    parent, omega, sigma = setup
    parts = list(partitions(parent, 2, depth))
    # alpha = 1/2 sums in floats, alpha = 0 exactly
    for alpha in ((F(1, 2), 0) if depth == 2 else (F(1, 2),)):
        for with_energy in (False, True):
            got = pivotal_sums(omega, sigma, parent, parts, 2, alpha, with_energy)
            want = [old_pivotal_sum(omega, sigma, parent, part, 2, alpha, with_energy)
                    for part in parts]
            assert got == want
            assert all(type(g) is type(w) for g, w in zip(got, want))
    assert pivotal_sum(omega, sigma, parent, parts[-1], 2, F(1, 2)) \
        == old_pivotal_sum(omega, sigma, parent, parts[-1], 2, F(1, 2))


def test_pivotal_sums_skip_cells_without_omega_mass():
    parent = Interval(0, 1)
    omega = Measure.lebesgue(Interval(F(1, 2), 1)) + Measure.point_mass(1, 2)
    sigma = Measure.point_mass(F(1, 4), 3) + Measure.lebesgue(parent)
    parts = list(partitions(parent, 2, 3))
    # p = 3/2 at alpha = 0 is irrational: the float kernel, no exact Poisson
    for alpha, p in ((F(1, 2), 2), (0, 2), (0, F(3, 2))):
        got = pivotal_sums(omega, sigma, parent, parts, p, alpha)
        assert got == [old_pivotal_sum(omega, sigma, parent, part, p, alpha)
                       for part in parts]
        assert all(type(g) is (F if p == 2 and alpha == 0 else float) for g in got)


@pytest.mark.parametrize("depth", range(4))
@settings(max_examples=10, deadline=None)
@given(setup=pivotal_setups(), left_only=st.booleans())
def test_pivotal_sup_is_first_best_of_all_sums(depth, setup, left_only):
    parent, omega, sigma = setup
    if left_only:
        # omega on the left half alone: every cell right of it has no mass
        omega = omega.restrict(Interval(parent.lo, parent.midpoint))
    parts = list(partitions(parent, 2, depth))
    want = first_best(zip(parts, pivotal_sums(omega, sigma, parent, parts, 2)))
    got = pivotal_sup(omega, sigma, parent, depth)
    assert got == want and type(got[0]) is F


@pytest.mark.parametrize("depth", [17, 10 ** 9])
def test_pivotal_sup_refuses_a_tree_past_the_cap(depth):
    # before any term: sigma has no mass, which a term would need
    with pytest.raises(FamilyTooLargeError):
        pivotal_sup(Measure.lebesgue(Interval(0, 1)), Measure.zero(),
                    Interval(0, 1), depth)


def test_pivotal_sup_needs_sigma_mass_on_the_parent():
    with pytest.raises(ZeroMassError):
        pivotal_sup(Measure.lebesgue(Interval(0, 1)), Measure.point_mass(2),
                    Interval(0, 1), 2)


@settings(max_examples=60, deadline=None)
@given(rooted(), st.sampled_from((F(3, 2), 2, 4, 8)), st.integers(0, 8))
def test_stopping_cubes_match_old_recursion(setup, K, max_depth):
    interval, sigma = setup
    got = stopping_cubes(sigma, interval, K, max_depth)
    want = old_stopping_cubes(sigma, interval, K, max_depth)
    assert (got.root, got.snapped) == (want.root, want.snapped)
    assert got.levels == want.levels
    assert got.truncated == want.truncated
    assert got.depth_exhausted == want.depth_exhausted


def test_stopping_cubes_deep_atom_stays_cheap():
    sigma = Measure.point_mass(F(1, 3))
    start = time.perf_counter()
    got = stopping_cubes(sigma, Interval(0, 1), 2, max_depth=40)
    elapsed = time.perf_counter() - start
    want = old_stopping_cubes(sigma, Interval(0, 1), 2, 40)
    assert (got.levels, got.truncated, got.depth_exhausted) \
        == (want.levels, want.truncated, want.depth_exhausted)
    assert elapsed < 1.0


@settings(max_examples=60, deadline=None)
@given(rooted(), st.data(), st.integers(0, 6), st.sampled_from((1, 2, 3)))
def test_dyadic_maximal_matches_old_recursion(setup, data, max_depth, p):
    interval, omega = setup
    sigma = data.draw(measures(interval))
    got = dyadic_maximal_integral(sigma, omega, interval, p, max_depth)
    want = old_dyadic_maximal_integral(sigma, omega, interval, p, max_depth)
    assert got == want


def test_dyadic_maximal_rejects_fractional_power():
    leb = Measure.lebesgue(Interval(0, 1))
    with pytest.raises(ValueError):
        dyadic_maximal_integral(leb, leb, Interval(0, 1), 1.5)


# -- the stop rules: a search ends at a cell that cannot change its result ----

def _counting_mass_reads(monkeypatch):
    """A list that grows by one at every DyadicMasses.mass read."""
    reads, mass = [], DyadicMasses.mass
    monkeypatch.setattr(DyadicMasses, "mass",
                        lambda self, d, k: reads.append((d, k)) or mass(self, d, k))
    return reads


def test_density_bound_is_the_largest_density_meeting_the_cell():
    root = Interval(0, 1)
    mu = (Measure.from_steps([(0, F(1, 4), 3), (F(1, 4), F(1, 2), 5), (F(3, 4), 1, 1)])
          + Measure.point_mass(F(7, 8), 2))
    cells = DyadicMasses(mu, root, 3)
    scale = cells.den * root.length
    # the piece ending at 1/4 does not meet [1/4, 1/2] in positive length
    assert F(cells.density_bound(2, 1), 1) == 5 * scale
    assert F(cells.density_bound(1, 0), 1) == 5 * scale
    assert cells.density_bound(2, 2) == 0
    # [3/4, 1] holds the atom at 7/8
    assert cells.density_bound(2, 3) is None and cells.density_bound(3, 6) == 1 * scale
    # three pieces, more than a depth-0 tree's one cell: no bound is read
    assert DyadicMasses(mu, root, 0).density_bound(0, 0) is None
    for d, k, cell in old_cells(root, 3):
        bound = cells.density_bound(d, k)
        for e, j, sub in old_cells(cell, 3 - d):
            if bound is not None:
                assert F(cells.mass(d + e, (k << e) + j) << (d + e)) <= bound


def test_stopping_cubes_stop_at_a_density_equal_to_the_threshold(monkeypatch):
    # the left half has density exactly 2 = K^1: no cell averages above it
    sigma = Measure.from_steps([(0, F(1, 2), 2), (F(1, 2), 1, F(1, 2))])
    want = old_stopping_cubes(sigma, Interval(0, 1), 2, 8)
    reads = _counting_mass_reads(monkeypatch)
    got = stopping_cubes(sigma, Interval(0, 1), 2, 8)
    assert got.levels == want.levels == {} and got.truncated == want.truncated == []
    # the total, then the root at threshold 2: its densities are at most 2
    assert reads == [(0, 0), (0, 0)]


def test_stopping_cubes_descend_past_a_density_above_the_threshold(monkeypatch):
    sigma = Measure.from_steps([(0, F(1, 2), F(201, 100)), (F(1, 2), 1, F(1, 2))])
    want = old_stopping_cubes(sigma, Interval(0, 1), 2, 8)
    got = stopping_cubes(sigma, Interval(0, 1), 2, 8)
    assert got.levels == want.levels and got.levels[1][0][0] == Interval(0, F(1, 2))


def test_stopping_cubes_keep_an_atom_at_the_root_end():
    sigma = Measure.lebesgue(Interval(0, 1)) + Measure.point_mass(1, F(1, 1000))
    for K, depth in ((2, 6), (8, 12)):
        got = stopping_cubes(sigma, Interval(0, 1), K, depth)
        want = old_stopping_cubes(sigma, Interval(0, 1), K, depth)
        assert (got.levels, got.truncated, got.depth_exhausted) \
            == (want.levels, want.truncated, want.depth_exhausted)
        assert got.truncated[-1][1].hi == 1


def test_stopping_cubes_of_lebesgue_end_at_the_root():
    # without the stop rule the search would walk 2^61 - 1 cells
    start = time.perf_counter()
    got = stopping_cubes(Measure.lebesgue(Interval(0, 1)), Interval(0, 1), 8, max_depth=60)
    assert (got.levels, got.truncated, got.depth_exhausted) == ({}, [], False)
    assert time.perf_counter() - start < 1.0


def test_dyadic_maximal_stops_at_a_density_equal_to_the_best(monkeypatch):
    leb = Measure.lebesgue(Interval(0, 1))
    want = old_dyadic_maximal_integral(leb, leb, Interval(0, 1), 2, 10)
    reads = _counting_mass_reads(monkeypatch)
    assert dyadic_maximal_integral(leb, leb, Interval(0, 1), 2, 10) == want
    # sigma's total for the power budget, and the root: sigma's, then omega's
    assert len(reads) == 3


def test_dyadic_maximal_keeps_omega_atoms_on_the_grid_under_a_flat_sigma():
    # sigma flat, so every cell could stop at once but for omega's atoms on
    # grid points inside it; 1/3 lies on no grid point and 1 ends the root
    sigma = Measure.lebesgue(Interval(0, 1), 3)
    omega = (Measure.point_mass(F(1, 4), 2) + Measure.point_mass(F(5, 8), 1)
             + Measure.point_mass(F(1, 3), 4) + Measure.point_mass(1, 5)
             + Measure.lebesgue(Interval(F(1, 2), 1)))
    for depth in (2, 3, 5):
        got = dyadic_maximal_integral(sigma, omega, Interval(0, 1), 2, depth)
        assert got == old_dyadic_maximal_integral(sigma, omega, Interval(0, 1), 2, depth)
    assert [a.x for _, a in got[1]] == [F(1, 4), F(5, 8)]


def test_dyadic_maximal_keeps_a_sigma_atom_at_the_root_end():
    root = Interval(-1, 1)
    sigma = Measure.lebesgue(root) + Measure.point_mass(1, F(1, 2))
    omega = Measure.lebesgue(root, 2) + Measure.point_mass(1, 3) + Measure.point_mass(-1, 1)
    for depth, p in ((0, 2), (4, 2), (6, 3)):
        assert dyadic_maximal_integral(sigma, omega, root, p, depth) \
            == old_dyadic_maximal_integral(sigma, omega, root, p, depth)
