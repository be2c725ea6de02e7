"""The columnar measure core: a measure built from int columns against the
same measure built from `Atom`/`StepPiece` lists, and the code paths that
read the columns (Riesz potential, memory of a deep cascade)."""

import functools
import itertools
import math
import operator
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtc import (Atom, Interval, Measure, OverlappingStepsError, ParamDomainError, StepPiece,
                 ZeroMassError)
from wtc.constructions import gks_cascade
from wtc.errors import SingularSampleError
from wtc.functionals import RieszReport, _RieszSums, riesz_potential_sup
from wtc.measure import DyadicMasses, _float_column

BIG = 2 ** 61 - 1          # a prime above 2^53: floats of its fractions round
ODD = 7 * 3 ** 40          # above 2^53, and n / ODD != n / float(ODD) for some small n


@st.composite
def cases(draw):
    """(objects, columns, points): one measure as Atom/StepPiece lists and
    as from_columns arguments, plus points on its breakpoints, its atoms,
    between them and outside.  Pieces leave gaps, touching pieces share
    one breakpoint object, atoms sit on breakpoints and piece endpoints,
    and denominators may exceed 2^53."""
    fine = draw(st.sampled_from([0, F(1, 3 ** 40), F(1, BIG)]))
    shift = F(draw(st.integers(-20, 20)), draw(st.sampled_from([1, 7])))
    ks = draw(st.lists(st.integers(-30, 30), min_size=0, max_size=9, unique=True))
    xs = [shift + F(k, 8) + fine * draw(st.integers(0, 3)) for k in sorted(ks)]
    dden = draw(st.sampled_from([1, 4, ODD]))
    pieces = [StepPiece(Interval(lo, hi), F(draw(st.integers(0, 3)), dden))
              for lo, hi in zip(xs, xs[1:]) if draw(st.booleans())]
    extra = [shift + F(draw(st.integers(-40, 40)), 16) for _ in range(draw(st.integers(0, 2)))]
    spots = sorted(set(xs + extra))
    mden = draw(st.sampled_from([1, 5, BIG, ODD]))
    atoms = [Atom(x, F(draw(st.integers(1, 8)), mden))
             for x in (draw(st.lists(st.sampled_from(spots), unique=True)) if spots else [])]
    atoms.sort(key=lambda a: a.x)
    # columns over denominators that need not be reduced
    pos = [a.x for a in atoms] + [p.support.lo for p in pieces] + [p.support.hi for p in pieces]
    xden = math.lcm(*(x.denominator for x in pos)) * draw(st.sampled_from([1, 6]))
    pden = math.lcm(*(p.density.denominator for p in pieces)) * draw(st.sampled_from([1, 3]))
    aden = math.lcm(*(a.mass.denominator for a in atoms)) * draw(st.sampled_from([1, 10]))
    columns = dict(
        den=xden, lo=[int(p.support.lo * xden) for p in pieces],
        hi=[int(p.support.hi * xden) for p in pieces],
        density=[int(p.density * pden) for p in pieces], density_den=pden,
        atom_x=[int(a.x * xden) for a in atoms],
        atom_mass=[int(a.mass * aden) for a in atoms], mass_den=aden)
    mids = [(a + b) / 2 for a, b in zip(spots, spots[1:])]
    # points closer to a breakpoint or atom than any two positions are
    near = [x + F(s, 10 ** 30) for x in spots[:4] for s in (-1, 1)]
    points = sorted(set(spots + mids + near + [shift - 3, shift + 3]))
    return atoms, pieces, columns, points


def canonical_pieces(pieces):
    """Zero densities dropped and touching equal-density neighbours merged."""
    out = []
    for p in pieces:
        if p.density == 0:
            continue
        if out and out[-1].support.hi == p.support.lo and out[-1].density == p.density:
            p = StepPiece(Interval(out.pop().support.lo, p.support.hi), p.density)
        out.append(p)
    return out


def naive_mass(atoms, pieces, iv, include_hi):
    total = sum((a.mass for a in atoms
                 if iv.lo <= a.x and (a.x <= iv.hi if include_hi else a.x < iv.hi)), F(0))
    for p in pieces:
        overlap = min(iv.hi, p.support.hi) - max(iv.lo, p.support.lo)
        if overlap > 0:
            total += p.density * overlap
    return total


def naive_moments(atoms, pieces, iv):
    mass = naive_mass(atoms, pieces, iv, True)
    first = sum((a.mass * a.x for a in atoms if iv.contains_point(a.x)), F(0))
    second = sum((a.mass * a.x ** 2 for a in atoms if iv.contains_point(a.x)), F(0))
    for p in pieces:
        lo, hi = max(iv.lo, p.support.lo), min(iv.hi, p.support.hi)
        if hi > lo:
            first += p.density * (hi ** 2 - lo ** 2) / 2
            second += p.density * (hi ** 3 - lo ** 3) / 3
    return mass, first / mass, second / mass


def query_intervals(points):
    return [Interval(a, b) for i, a in enumerate(points) for b in points[i + 1:i + 4]]


@settings(max_examples=80, deadline=None)
@given(cases())
def test_columns_and_objects_build_the_same_measure(case):
    atoms, pieces, columns, points = case
    a = Measure(atoms, pieces)
    b = Measure.from_columns(**columns)
    want_pieces = canonical_pieces(pieces)

    assert a == b and hash(a) == hash(b)
    for m in (a, b):
        assert m.atoms == tuple(atoms) and m.pieces == tuple(want_pieces)
        assert [m.atoms[i] for i in range(-len(atoms), len(atoms))] == atoms + atoms
        assert [m.pieces[i] for i in range(len(want_pieces))] == want_pieces
        assert m.pieces[1:3] == tuple(want_pieces[1:3])
    cols = a.columns()
    assert [(F(x, cols.den), F(m, cols.mass_den))
            for x, m in zip(cols.atom_x, cols.atom_mass)] == [(t.x, t.mass) for t in atoms]
    assert [(F(lo, cols.den), F(hi, cols.den), F(d, cols.density_den))
            for lo, hi, d in zip(cols.lo, cols.hi, cols.density)] \
        == [(p.support.lo, p.support.hi, p.density) for p in want_pieces]
    assert Measure.from_columns(*cols) == a

    for iv in query_intervals(points):
        for include_hi in (True, False):
            want = naive_mass(atoms, pieces, iv, include_hi)
            assert a.mass(iv, include_hi) == b.mass(iv, include_hi) == want
        inside = Measure([t for t in atoms if iv.contains_point(t.x)],
                         [StepPiece(s, p.density) for p in pieces
                          if (s := p.support.intersection(iv)) is not None])
        assert a.restrict(iv) == b.restrict(iv) == inside
        outside = Measure([t for t in atoms if not iv.contains_point(t.x)],
                          [StepPiece(s, p.density) for p in pieces
                           for s in (Interval(p.support.lo, min(p.support.hi, iv.lo))
                                     if p.support.lo < iv.lo else None,
                                     Interval(max(p.support.lo, iv.hi), p.support.hi)
                                     if p.support.hi > iv.hi else None) if s is not None])
        assert a.complement_restrict(iv) == b.complement_restrict(iv) == outside
        if a.mass(iv) == 0:
            with pytest.raises(ZeroMassError):
                b.moments(iv)
        else:
            assert a.moments(iv) == b.moments(iv) == naive_moments(atoms, pieces, iv)
    for x in points:
        want = sum((p.density for p in pieces if p.support.lo <= x < p.support.hi), F(0))
        assert a.density_at(x) == b.density_at(x) == want
        assert a.atom_at(x) == b.atom_at(x) == sum((t.mass for t in atoms if t.x == x), F(0))

    want_floats = ([float(p.support.lo) for p in want_pieces],
                   [float(p.support.hi) for p in want_pieces],
                   [float(p.density) for p in want_pieces],
                   [float(t.x) for t in atoms], [float(t.mass) for t in atoms])
    for m in (a, b):
        assert tuple(v.tolist() for v in m.float_data()) == want_floats
    ivs = query_intervals(points)
    if ivs:
        lo = np.array([float(iv.lo) for iv in ivs])
        hi = np.array([float(iv.hi) for iv in ivs])
        assert a.mass_many(lo, hi, 0).tolist() == b.mass_many(lo, hi, 0).tolist()

    for root in ivs[:3]:
        da, db = DyadicMasses(a, root, 6), DyadicMasses(b, root, 6)
        for d in range(7):
            for k in range(2 ** d):
                cell = da.interval(d, k)
                want = a.mass(cell, include_hi=(cell.hi == root.hi))
                assert F(da.mass(d, k), da.den) == F(db.mass(d, k), db.den) == want
                assert da.has_atom(d, k) == db.has_atom(d, k)

    for c in (F(0), F(3, 2), F(1, BIG)):
        want = Measure([Atom(t.x, t.mass * c) for t in atoms],
                       [StepPiece(p.support, p.density * c) for p in pieces])
        assert a.scale(c) == b.scale(c) == want
    for dx in (F(-5, 3), F(1, BIG)):
        want = Measure([Atom(t.x + dx, t.mass) for t in atoms],
                       [StepPiece(Interval(p.support.lo + dx, p.support.hi + dx), p.density)
                        for p in pieces])
        assert a.translate(dx) == b.translate(dx) == want
    for lam in (F(2, 7), F(BIG, 3)):
        want = Measure([Atom(t.x * lam, t.mass) for t in atoms],
                       [StepPiece(Interval(p.support.lo * lam, p.support.hi * lam),
                                  p.density / lam) for p in pieces])
        assert a.dilate(lam) == b.dilate(lam) == want


def test_from_columns_checks_its_input():
    with pytest.raises(ValueError):
        Measure.from_columns(0, [0], [1], [1])
    with pytest.raises(ValueError):
        Measure.from_columns(1, [0, 1], [1], [1])
    with pytest.raises(ValueError):
        Measure.from_columns(1, [0], [1], [-1])
    with pytest.raises(ValueError):
        Measure.from_columns(1, [1], [1], [1])
    with pytest.raises(ValueError):
        Measure.from_columns(1, [], [], [], atom_x=[0], atom_mass=[-1])
    # a negative entry is named before a degenerate piece
    for density, atom_mass in (([-1], [1]), ([1], [-1])):
        with pytest.raises(ValueError, match="^negative density or atom mass$"):
            Measure.from_columns(1, [1], [1], density, 1, [0], atom_mass)
    # unsorted and overlapping columns are canonicalized, or rejected, as
    # Measure(atoms, pieces) does
    unsorted = Measure.from_columns(2, [2, 0], [3, 2], [1, 1], 1, [1, 1], [1, 2], 3)
    assert unsorted == Measure([Atom(F(1, 2), F(1))], [StepPiece(Interval(0, F(3, 2)), F(1))])
    with pytest.raises(OverlappingStepsError):
        Measure.from_columns(1, [0, 1], [2, 3], [1, 2])


@pytest.mark.parametrize("args", [
    (1, [0.5], [1], [1]),       # at denominator 1 the gcd pass reads no entry
    (2, [0], [1], [F(1, 2)]),
    (1, [0], [True], [1]),
    (F(1), [0], [1], [1]),
    (1, [0], [1], [1], 2.0),
    (1, [], [], [], 1, [0], [np.int64(1)])])
def test_from_columns_refuses_an_entry_that_is_not_an_int(args):
    with pytest.raises(ParamDomainError, match="must be ints"):
        Measure.from_columns(*args)


@st.composite
def step_rows(draw):
    """Up to four (lo, hi, density) rows, each entry an int, a Fraction, a
    str or a float of a value on the 1/4 lattice: some rows degenerate,
    negative or overlapping."""
    def entry(v):
        kind = draw(st.sampled_from(["int", "fraction", "str", "float"]))
        if kind == "int":
            return int(v) if v.denominator == 1 else v
        return {"fraction": v, "str": str(v), "float": float(v)}[kind]

    value = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 4]))
    return [tuple(entry(draw(value)) for _ in range(3))
            for _ in range(draw(st.integers(0, 4)))]


def outcome(build):
    """The measure built, or the type of the library error raised."""
    try:
        return build()
    except (ParamDomainError, OverlappingStepsError) as e:
        return type(e)


@settings(max_examples=300, deadline=None)
@given(step_rows())
def test_from_steps_builds_what_step_pieces_build(rows):
    want = outcome(lambda: Measure(pieces=[StepPiece(Interval(a, b), d) for a, b, d in rows]))
    assert outcome(lambda: Measure.from_steps(rows)) == want


@pytest.mark.parametrize("rows, error", [
    ([(0, 1)], ParamDomainError), ([(0, 1, 1, 1)], ParamDomainError),
    ([[0, 1, 1, 1]], ParamDomainError), ([5], ParamDomainError), (["012"], ParamDomainError),
    ([None], ParamDomainError), ([(0, 1, "x")], ParamDomainError),
    ([(1, 1, 1)], ParamDomainError), ([(0, 1, -1)], ParamDomainError),
    ([(0, 2, 1), (1, 3, 1)], OverlappingStepsError)])
def test_from_steps_refuses_bad_rows(rows, error):
    # a row that is not three numbers, degenerate, negative or overlapping
    with pytest.raises(error):
        Measure.from_steps([(4, 5, 1), *rows])


# -- piece prefix sums ------------------------------------------------------

def length_weighted_prefix(mu):
    """The piece masses' prefix sums, sum of density * length, from the
    measure's own (reduced) columns."""
    cols = mu.columns()
    lengths = map(operator.sub, cols.hi, cols.lo)
    return [0, *itertools.accumulate(map(operator.mul, cols.density, lengths))]


@st.composite
def unit_columns(draw):
    """from_columns arguments for canonical pieces of length 1 over the
    reduced denominator, but for at most one gap of 1 or one piece of
    length 2 (a span one more than the piece count), every position scaled
    by a factor that `_reduce` divides out."""
    n = draw(st.integers(1, 12))
    odd, at = draw(st.sampled_from([None, "gap", "long"])), draw(st.integers(0, n - 1))
    x = draw(st.integers(-6, 6))
    lo, hi, density = [], [], []
    for i in range(n):
        x += odd == "gap" and i == at > 0
        lo.append(x)
        x += 1 + (odd == "long" and i == at)
        hi.append(x)
        touching = density and lo[-1] == hi[-2]
        density.append(draw(st.integers(1, 9).filter(
            lambda d: not (touching and d == density[-1]))))
    scale = draw(st.sampled_from([1, 3, 4]))
    return dict(den=scale * draw(st.sampled_from([1, 2, 3])),
                lo=[v * scale for v in lo], hi=[v * scale for v in hi],
                density=density, density_den=draw(st.sampled_from([1, 5, ODD])))


@settings(max_examples=120, deadline=None)
@given(st.one_of(unit_columns(), cases().map(lambda case: case[2])))
def test_unit_length_prefix_is_the_length_weighted_prefix(columns):
    mu = Measure.from_columns(**columns)
    assert mu._pcum == length_weighted_prefix(mu)


@pytest.mark.parametrize("den, lo, hi, pcum", [
    (3, [0, 3, 6], [3, 6, 9], [0, 1, 3, 4]),    # unit-length after `_reduce`
    (1, [0, 1, 3], [1, 2, 4], [0, 1, 3, 4]),    # one gap
    (1, [0, 1, 3], [1, 3, 4], [0, 1, 5, 6]),    # one piece of length 2
])
def test_unit_length_prefix_at_the_edges_of_the_rule(den, lo, hi, pcum):
    mu = Measure.from_columns(den, lo, hi, [1, 2, 1])
    assert mu._pcum == pcum == length_weighted_prefix(mu)


# -- canonical form ----------------------------------------------------------

def test_overlap_after_a_merge_names_the_merged_piece():
    # [0,1] and [1,2] of equal density merge into [0,2], which [3/2,3] overlaps
    pieces = [StepPiece(Interval(1, 2), F(1)), StepPiece(Interval(F(3, 2), 3), F(2)),
              StepPiece(Interval(0, 1), F(1)), StepPiece(Interval(5, 6), F(0)),
              StepPiece(Interval(-2, -1), F(3))]
    want = "pieces [0,2] and [3/2,3] overlap"
    with pytest.raises(OverlappingStepsError) as got:
        Measure(pieces=pieces)
    assert str(got.value) == want
    with pytest.raises(OverlappingStepsError) as got:
        Measure.from_columns(2, [2, 3, 0, 10, -4], [4, 6, 2, 12, -2], [1, 2, 1, 0, 3])
    assert str(got.value) == want


def old_superpose(pieces):
    """Sum of step densities with arbitrary overlaps, as disjoint pieces, built
    from objects as `Measure.__add__` built it before it read the columns."""
    if not pieces:
        return []
    cuts = sorted({p.support.lo for p in pieces} | {p.support.hi for p in pieces})
    events = sorted(pieces, key=lambda p: p.support.lo)
    out = []
    j = 0
    active = []
    for lo, hi in zip(cuts, cuts[1:]):
        while j < len(events) and events[j].support.lo <= lo:
            active.append(events[j])
            j += 1
        active = [p for p in active if p.support.hi > lo]
        dens = sum((p.density for p in active), F(0))
        if dens > 0:
            out.append(StepPiece(Interval(lo, hi), dens))
    return out


def old_sum(a, b):
    """(atoms, pieces) of a + b as the object build gives them."""
    masses = {}
    for t in list(a.atoms) + list(b.atoms):
        masses[t.x] = masses.get(t.x, F(0)) + t.mass
    atoms = tuple(Atom(x, m) for x, m in sorted(masses.items()))
    return atoms, tuple(canonical_pieces(old_superpose(list(a.pieces) + list(b.pieces))))


@settings(max_examples=60, deadline=None)
@given(cases(), cases(), st.sampled_from([F(0), F(1, 8), F(-1, 3)]))
def test_sum_matches_the_object_superposition(case1, case2, dx):
    a = Measure(case1[0], case1[1])
    b = Measure.from_columns(**case2[2])
    for x, y in ((a, b), (a, a), (a, a.translate(dx).scale(F(2, 7)))):
        atoms, pieces = old_sum(x, y)
        for s in (x + y, y + x):
            assert s.atoms == atoms and s.pieces == pieces
            assert s == Measure(atoms, pieces)


def test_sum_over_different_denominators():
    # a shared atom at 1/3, an overlap on [1/5, 1/3] and an abutting piece
    # of equal density at 1, over position denominators 15 and 1
    a = Measure([Atom(F(1, 3), F(1, 2))], [StepPiece(Interval(0, F(1, 3)), F(1, 7))])
    b = Measure([Atom(F(1, 3), F(1, 5)), Atom(F(2), F(1))],
                [StepPiece(Interval(F(1, 5), 1), F(1, 7)),
                 StepPiece(Interval(1, 3), F(2, 7))])
    c = a + b
    assert c.atoms == (Atom(F(1, 3), F(7, 10)), Atom(F(2), F(1)))
    assert c.pieces == (StepPiece(Interval(0, F(1, 5)), F(1, 7)),
                        StepPiece(Interval(F(1, 5), F(1, 3)), F(2, 7)),
                        StepPiece(Interval(F(1, 3), 1), F(1, 7)),
                        StepPiece(Interval(1, 3), F(2, 7)))
    assert c.pieces == old_sum(a, b)[1]
    # the abutting pieces of equal density merge
    d = c + Measure.lebesgue(Interval(F(1, 3), 1), F(1, 7))
    assert d.pieces == (StepPiece(Interval(0, F(1, 5)), F(1, 7)),
                        StepPiece(Interval(F(1, 5), 3), F(2, 7)))


@settings(max_examples=60, deadline=None)
@given(cases(), st.randoms(use_true_random=False))
def test_shuffled_columns_build_the_object_measure(case, rnd):
    atoms, pieces, columns, _ = case
    # each atom split in two entries at its point; the rows in random order
    atom_rows = [(x, m) for x, m in zip(columns["atom_x"], columns["atom_mass"])
                 for m in (m // 2, m - m // 2)]
    piece_rows = list(zip(columns["lo"], columns["hi"], columns["density"]))
    rnd.shuffle(atom_rows)
    rnd.shuffle(piece_rows)
    shuffled = dict(columns, atom_x=[x for x, _ in atom_rows],
                    atom_mass=[m for _, m in atom_rows],
                    lo=[r[0] for r in piece_rows], hi=[r[1] for r in piece_rows],
                    density=[r[2] for r in piece_rows])
    assert Measure.from_columns(**shuffled) == Measure(atoms, pieces)
    # the object build sorts and merges the same rows, as Atom/StepPiece lists
    den, mden, dden = columns["den"], columns["mass_den"], columns["density_den"]
    objects = Measure([Atom(F(x, den), F(m, mden)) for x, m in atom_rows],
                      [StepPiece(Interval(F(lo, den), F(hi, den)), F(d, dden))
                       for lo, hi, d in piece_rows])
    assert objects == Measure(atoms, pieces)


# -- Riesz potential ---------------------------------------------------------

def old_riesz_potential_sup(mu, interval, alpha, sample_points):
    """The four-power formula as riesz_potential_sup computed it before it
    took one power per breakpoint; each atom's gap |x - a| is exact before
    it is floated, as there."""
    alpha = float(alpha)
    mu_in = mu.restrict(interval)
    total = mu_in.total_mass()
    if total == 0:
        return RieszReport(0.0, 0.0, None)
    plo, phi, pden, ax, am = mu_in.float_data()
    best = None
    witness = None
    for x in sample_points:
        xf = float(x)
        val = 0.0
        if ax.size:
            gaps = np.array([float(abs(x - a.x)) for a in mu_in.atoms])
            val += float(np.sum(am * gaps ** (alpha - 1)))
        if plo.size:
            left_hi = np.minimum(phi, xf)
            left_lo = np.minimum(plo, xf)
            right_lo = np.maximum(plo, xf)
            right_hi = np.maximum(phi, xf)
            val += float(np.sum(pden * (
                (xf - left_lo) ** alpha - (xf - left_hi) ** alpha
                + (right_hi - xf) ** alpha - (right_lo - xf) ** alpha))) / alpha
        if best is None or val > best:
            best, witness = val, x
    norm = best / (float(total) * float(interval.length) ** (alpha - 1))
    return RieszReport(best, norm, witness)


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([0.25, 0.5, 0.9]), st.data())
def test_riesz_matches_the_four_power_formula(case, alpha, data):
    atoms, pieces, _, points = case
    mu = Measure(atoms, pieces)
    ivs = query_intervals(points)
    if not ivs:
        return
    for iv in (data.draw(st.sampled_from(ivs)), Interval(points[0], points[-1])):
        samples = [x for x in points if iv.lo <= x <= iv.hi and not mu.atom_at(x)]
        assert riesz_potential_sup(mu, iv, alpha, samples) == \
            old_riesz_potential_sup(mu, iv, alpha, samples)
        for x in samples:
            assert riesz_potential_sup(mu, iv, alpha, [x]) == \
                old_riesz_potential_sup(mu, iv, alpha, [x])
        hit = [t.x for t in atoms if iv.contains_point(t.x)]
        if hit:
            with pytest.raises(SingularSampleError):
                riesz_potential_sup(mu, iv, alpha, hit[:1])


def cascade_samples(iv):
    """The interval's ends, 35 equally spaced points, the depth-4 breakpoints
    and gks-afrac-doubling's samples j/37 inside iv; on [0, 1] the last two
    sets hold mirrored pairs x, 1 - x, tied in real arithmetic."""
    return [iv.lo, iv.hi] + [iv.lo + j * iv.length / 36 for j in range(1, 36)] \
        + [F(j, 3 ** 4) for j in range(81) if iv.lo <= F(j, 3 ** 4) <= iv.hi] \
        + [F(j, 37) for j in range(1, 37) if iv.lo <= F(j, 37) <= iv.hi]


@functools.cache
def cascade(depth):
    return gks_cascade(F(1, 4), depth)


@pytest.mark.parametrize("iv", [Interval(0, 1), Interval(F(1, 7), F(5, 7))])
def test_riesz_on_a_cascade_matches_the_four_power_formula(iv):
    # alpha = 0.6 and the samples j/37 are gks-afrac-doubling's own; from
    # depth 8 on the sup skips samples, so the depth-10 search checks that
    # the skipped ones change neither the value nor the witness
    samples = cascade_samples(iv)
    for depth in (6, 8, 10):
        mu = cascade(depth)
        for alpha in (0.25, 0.5, 0.6):
            assert riesz_potential_sup(mu, iv, alpha, samples) == \
                old_riesz_potential_sup(mu, iv, alpha, samples)
            for x in samples if depth < 10 else ():
                assert riesz_potential_sup(mu, iv, alpha, [x]) == \
                    old_riesz_potential_sup(mu, iv, alpha, [x])


def assert_riesz_bounds_hold(mu, iv, alpha, samples):
    """Each sample's full value lies in [lower - tau, upper + tau], and is
    the value riesz_potential_sup reports for it alone."""
    sums = _RieszSums(mu.restrict(iv), iv, alpha)
    for x in samples:
        atom = sums.atom_part(x)
        low, up, tau = sums.bounds(float(x), atom)
        value = sums.value(float(x), atom)
        assert low - tau <= value <= up + tau, (x, low, up, tau, value)
        assert value == riesz_potential_sup(mu, iv, alpha, [x]).sup


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([0.25, 0.5, 0.9]), st.data())
def test_riesz_bounds_hold_on_random_measures(case, alpha, data):
    atoms, pieces, _, points = case
    mu = Measure(atoms, pieces)
    ivs = query_intervals(points)
    if not ivs:
        return
    for iv in (data.draw(st.sampled_from(ivs)), Interval(points[0], points[-1])):
        if mu.restrict(iv).total_mass():
            samples = [x for x in points if iv.lo <= x <= iv.hi and not mu.atom_at(x)]
            assert_riesz_bounds_hold(mu, iv, alpha, samples)


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 10), st.sampled_from([0.25, 0.5, 0.6, 0.9]),
       st.sampled_from([Interval(0, 1), Interval(F(1, 7), F(5, 7))]),
       st.lists(st.tuples(st.integers(0, 3 ** 12), st.sampled_from([0, 1, -1])),
                min_size=1, max_size=6))
def test_riesz_bounds_hold_on_cascades(depth, alpha, iv, draws):
    # points on the depth-12 grid, so on breakpoints and between them, and
    # some within 1e-30 of one
    points = {F(k, 3 ** 12) + F(s, 10 ** 30) for k, s in draws}
    samples = sorted(x for x in points if iv.lo <= x <= iv.hi)
    assert_riesz_bounds_hold(cascade(depth), iv, alpha, samples)


def test_riesz_prune_skips_samples_that_cannot_win():
    unit, alpha = Interval(0, 1), 0.6
    samples = [F(j, 37) for j in range(1, 37)]
    sums = _RieszSums(cascade(10).restrict(unit), unit, alpha)
    xfs = [float(x) for x in samples]
    keep = sums.keep(xfs, [0.0] * len(xfs))
    values = [sums.value(xf, 0.0) for xf in xfs]
    taus = [sums.bounds(xf, 0.0)[2] for xf in xfs]
    best = max(values)
    assert sum(keep) < len(samples)
    assert all(k for k, v, t in zip(keep, values, taus) if v >= best - t)


# -- float columns -----------------------------------------------------------

@pytest.mark.parametrize("den", [1, 3, 2 ** 53 - 1, 2 ** 53, ODD])
def test_float_column_rounds_each_entry_once(den):
    near = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64]
    col = [0, 1, 3] + near + [-v for v in near]     # 3 / ODD != 3 / float(ODD)
    for entries in [col, col[:4]] + [[v] for v in col]:
        assert _float_column(entries, den).tolist() == [float(F(v, den)) for v in entries]
    assert _float_column([], den).size == 0


# -- memory ------------------------------------------------------------------

def test_cascade_holds_no_per_piece_objects():
    """Peak traced memory of building a depth-10 cascade and reading a few
    pieces stays below twice its column footprint.

    Per piece the columns hold four list slots (lo, hi, density and the
    mass prefix sum; lo and hi share their ints) and three ints: lo below
    3^10, a density numerator at most 3^20 (cells times the largest cell
    mass over 8^10) and a prefix sum below 8^10 * 3^10.  Twice that leaves
    room for one transient copy of every column while it is built.  A build
    that made one StepPiece per piece would need, for that piece's
    StepPiece, Interval and three Fractions alone, more than the columns'
    own footprint: it cannot stay below the bound.
    """
    depth = 10
    n = 3 ** depth
    per_piece = (4 * 8 + sys.getsizeof(3 ** depth) + sys.getsizeof(3 ** (2 * depth))
                 + sys.getsizeof(8 ** depth * 3 ** depth))
    bound = 2 * per_piece * n
    p = StepPiece(Interval(F(1, 3), F(2, 3)), F(5, 7))
    objects = sys.getsizeof(p) + sys.getsizeof(p.support) + 3 * sys.getsizeof(p.density)
    assert objects > per_piece       # the bound separates the two builds

    tracemalloc.start()
    try:
        mu = gks_cascade(F(1, 4), depth)
        assert len(mu.pieces) == n and not mu.atoms
        for j in (0, 1, n // 3, n // 2, n - 1):
            assert mu.pieces[j].support == Interval(F(j, n), F(j + 1, n))
        assert mu.total_mass() == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak} B for {n} pieces, bound {bound} B"


def test_cascade_hi_shares_the_ints_of_lo():
    """A cascade's `hi` column is `lo` shifted by one, holding the same int
    objects: its own ints would cost 12 MB more at depth 12."""
    mu = gks_cascade(F(1, 4), 9)
    n = 3 ** 9
    for j in (0, 1, 300, n // 3, n // 2, n - 2):
        assert mu._phi[j] is mu._plo[j + 1]
    assert mu._phi[-1] == n
