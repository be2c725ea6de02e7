"""Property-based checks of the structural invariants."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from wtc import Atom, Interval, Measure, StepPiece
from wtc.fileformat import parse_measure, write_measure
from wtc.functionals import (
    ap_local_squared,
    avg_density,
    energy_e2,
    pivotal_sum,
    poisson,
)
from wtc.grid import Partition, split_cell

Q = 8


@st.composite
def measures(draw, min_parts=0):
    parts = draw(st.integers(min_parts, 3))
    m = Measure()
    for _ in range(parts):
        a = draw(st.integers(-16, 15))
        b = draw(st.integers(a + 1, 16))
        den = F(draw(st.integers(1, 12)), 4)
        m = m + Measure(pieces=[StepPiece(Interval(F(a, Q), F(b, Q)), den)])
    for _ in range(draw(st.integers(0, 2))):
        x = F(draw(st.integers(-16, 16)), Q)
        m = m + Measure.point_mass(x, F(draw(st.integers(1, 8)), 4))
    return m


@st.composite
def intervals(draw):
    a = draw(st.integers(-20, 19))
    b = draw(st.integers(a + 1, 20))
    return Interval(F(a, Q), F(b, Q))


@st.composite
def measures_with_endpoint_atoms(draw):
    """A measure and an interval, with atoms on the interval's endpoints and
    on piece breakpoints."""
    m = draw(measures())
    iv = draw(intervals())
    points = [iv.lo, iv.hi] + [p.support.lo for p in m.pieces]
    for x in draw(st.lists(st.sampled_from(points), max_size=3)):
        m = m + Measure.point_mass(x, F(draw(st.integers(1, 8)), 4))
    return m, iv


def naive_mass(m, iv, include_hi=True):
    total = sum((a.mass for a in m.atoms
                 if iv.lo <= a.x and (a.x <= iv.hi if include_hi else a.x < iv.hi)),
                F(0))
    for p in m.pieces:
        inter = p.support.intersection(iv)
        if inter is not None:
            total += p.density * inter.length
    return total


def naive_restrict(m, iv):
    atoms = [a for a in m.atoms if iv.contains_point(a.x)]
    pieces = []
    for p in m.pieces:
        inter = p.support.intersection(iv)
        if inter is not None:
            pieces.append(StepPiece(inter, p.density))
    return atoms, pieces


def naive_complement_restrict(m, iv):
    atoms = [a for a in m.atoms if not iv.contains_point(a.x)]
    pieces = []
    for p in m.pieces:
        s = p.support
        if s.lo < iv.lo:
            pieces.append(StepPiece(Interval(s.lo, min(s.hi, iv.lo)), p.density))
        if s.hi > iv.hi:
            pieces.append(StepPiece(Interval(max(s.lo, iv.hi), s.hi), p.density))
    return atoms, pieces


def naive_moments(m, iv):
    mass = naive_mass(m, iv)
    first = sum((a.mass * a.x for a in m.atoms if iv.contains_point(a.x)), F(0))
    second = sum((a.mass * a.x ** 2 for a in m.atoms if iv.contains_point(a.x)), F(0))
    for p in m.pieces:
        inter = p.support.intersection(iv)
        if inter is not None:
            first += p.density * (inter.hi ** 2 - inter.lo ** 2) / 2
            second += p.density * (inter.hi ** 3 - inter.lo ** 3) / 3
    return mass, first / mass, second / mass


@given(measures_with_endpoint_atoms())
def test_queries_match_per_piece_reference(case):
    m, iv = case
    assert m.mass(iv) == naive_mass(m, iv)
    assert m.mass(iv, include_hi=False) == naive_mass(m, iv, include_hi=False)
    atoms, pieces = naive_restrict(m, iv)
    restricted = m.restrict(iv)
    assert restricted.atoms == tuple(atoms)
    assert restricted.pieces == tuple(pieces)
    atoms, pieces = naive_complement_restrict(m, iv)
    outside = m.complement_restrict(iv)
    assert outside.atoms == tuple(atoms)
    assert outside.pieces == tuple(pieces)
    if naive_mass(m, iv) > 0:
        assert m.moments(iv) == naive_moments(m, iv)


@given(measures(min_parts=1))
def test_restrict_to_a_covering_interval_is_identity(m):
    hull = m.support()
    assert m.restrict(hull) is m
    assert m.restrict(hull.dilate(3)) is m


@given(measures(), st.randoms(use_true_random=False))
def test_piece_order_and_splits_do_not_matter(m, rnd):
    # each piece cut in two equal-density halves, then shuffled with the atoms
    pieces = []
    for p in m.pieces:
        mid = p.support.midpoint
        pieces += [StepPiece(Interval(p.support.lo, mid), p.density),
                   StepPiece(Interval(mid, p.support.hi), p.density)]
    atoms = [Atom(a.x, a.mass / 2) for a in m.atoms for _ in range(2)]
    rnd.shuffle(pieces)
    rnd.shuffle(atoms)
    assert Measure(atoms, pieces) == m
    assert Measure(m.atoms, sorted(m.pieces, key=lambda p: -p.support.lo)) == m


@given(measures(), intervals(), st.integers(1, 7))
def test_mass_splits_at_interior_points(m, iv, t):
    cut = iv.lo + iv.length * t / 8
    left = m.mass(Interval(iv.lo, cut), include_hi=False)
    right = m.mass(Interval(cut, iv.hi))
    assert left + right == m.mass(iv)


@given(measures(), intervals())
def test_mass_monotone_in_the_interval(m, iv):
    assert m.mass(iv) <= m.mass(iv.dilate(3))


@given(measures(), intervals())
def test_restrict_is_idempotent(m, iv):
    once = m.restrict(iv)
    assert once.restrict(iv) == once
    assert once.total_mass() == m.mass(iv)


@given(measures(), measures(), intervals())
def test_tailed_quantities_are_ordered(omega, sigma, iv):
    cl = ap_local_squared(omega, sigma, iv, "classical")
    t1 = ap_local_squared(omega, sigma, iv, "one_tailed")
    t2 = ap_local_squared(omega, sigma, iv, "two_tailed")
    assert cl <= t1 <= t2


@given(measures(), intervals())
def test_poisson_dominates_the_average(m, iv):
    assert poisson(iv, m) >= avg_density(m, iv)


@given(measures(), intervals())
def test_energy_range(m, iv):
    if m.mass(iv) == 0:
        return
    assert 0 <= energy_e2(iv, m) <= F(1, 4)


@given(measures(min_parts=1), measures(min_parts=1), intervals(),
       st.integers(0, 2))
def test_energy_pivotal_half_domination(omega, sigma, iv, depth):
    if sigma.mass(iv) == 0:
        return
    cells = [iv]
    for _ in range(depth):
        cells = [half for c in cells for half in split_cell(c, 2)]
    part = Partition(iv, tuple(cells))
    plain = pivotal_sum(omega, sigma, iv, part, 2)
    gained = pivotal_sum(omega, sigma, iv, part, 2, with_energy=True)
    assert gained <= plain / 2


@given(measures(), measures(), intervals(),
       st.sampled_from([F(1, 2), F(3, 2), 2, 3]))
def test_dilation_invariance(omega, sigma, iv, lam):
    ow = omega.dilate(lam).scale(lam)
    sg = sigma.dilate(lam).scale(lam)
    big = Interval(iv.lo * lam, iv.hi * lam)
    for kind in ("classical", "one_tailed", "two_tailed"):
        assert ap_local_squared(ow, sg, big, kind) == \
            ap_local_squared(omega, sigma, iv, kind)


@settings(max_examples=150)
@given(measures())
def test_file_round_trip(m):
    assert parse_measure(write_measure(m)) == m
