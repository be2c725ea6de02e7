from fractions import Fraction as F

import pytest

from wtc import (
    Atom,
    Interval,
    Measure,
    OverlappingStepsError,
    ParamDomainError,
    StepPiece,
    WtcError,
    ZeroMassError,
)


def iv(a, b):
    return Interval(F(a), F(b))


@pytest.mark.parametrize("make", [
    lambda: Interval(1, 0), lambda: Atom(0, -1),
    lambda: StepPiece(Interval(0, 1), -1),
    lambda: Measure.from_columns(1, [1], [1], [1]),
    lambda: Measure.lebesgue(Interval(0, 1)).scale(-1),
    lambda: Measure.lebesgue(Interval(0, 1)).dilate(0)])
def test_bad_input_is_a_library_error(make):
    # a WtcError for the CLI, and still a ValueError for other callers
    with pytest.raises(ParamDomainError) as info:
        make()
    assert isinstance(info.value, WtcError) and isinstance(info.value, ValueError)


class TestInterval:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval(1, 1)

    def test_dilate_concentric(self):
        assert iv(0, 2).dilate(3) == iv(-2, 4)

    def test_dist(self):
        assert iv(0, 1).dist(F(3, 2)) == F(1, 2)
        assert iv(0, 1).dist(F(1, 2)) == 0


class TestMass:
    def test_atom_on_endpoint_counts(self):
        mu = Measure.point_mass(2, 3)
        assert mu.mass(iv(0, 2)) == 3

    def test_atom_on_right_endpoint_half_open(self):
        mu = Measure.point_mass(2, 3)
        assert mu.mass(iv(0, 2), include_hi=False) == 0

    def test_step_partial(self):
        mu = Measure.lebesgue(iv(0, 1))
        assert mu.mass(iv(0, F(1, 2))) == F(1, 2)

    def test_mixed_sum(self):
        mu = Measure([Atom(F(0), F(1))], [StepPiece(iv(0, 1), F(1))])
        assert mu.mass(iv(-1, 1)) == 2

    def test_many_pieces_prefix_sums(self):
        pieces = [StepPiece(iv(k, k + 1), F(k + 1)) for k in range(50)]
        mu = Measure(pieces=pieces)
        # mass over [10, 40] = sum of densities 11..40
        assert mu.mass(iv(10, 40)) == sum(range(11, 41))
        assert mu.mass(iv(F(21, 2), F(25, 2))) == F(11, 2) + 12 + F(13, 2)


class TestCanonical:
    def test_overlap_rejected(self):
        with pytest.raises(OverlappingStepsError):
            Measure(pieces=[StepPiece(iv(0, 1), F(1)), StepPiece(iv(F(1, 2), 2), F(1))])

    @pytest.mark.parametrize("steps", [
        [(0, 1, 1), (1, 2, 3), (F(3, 2), 4, 5)],          # sorted, overlap last
        [(0, 1, 1), (0, 1, 2)],                            # same support twice
        [(3, 4, 1), (0, 2, 1), (1, 3, 2)],                 # unsorted
    ])
    def test_overlap_rejected_anywhere(self, steps):
        with pytest.raises(OverlappingStepsError):
            Measure(pieces=[StepPiece(iv(a, b), F(d)) for a, b, d in steps])

    def test_adjacent_equal_merged(self):
        mu = Measure(pieces=[StepPiece(iv(0, 1), F(2)), StepPiece(iv(1, 2), F(2))])
        assert len(mu.pieces) == 1
        assert mu.pieces[0].support == iv(0, 2)

    def test_equal_neighbours_merged_inside_a_sorted_run(self):
        mu = Measure(pieces=[StepPiece(iv(k, k + 1), F(d))
                             for k, d in enumerate([1, 2, 2, 2, 3, 1])])
        assert mu.pieces == (StepPiece(iv(0, 1), F(1)), StepPiece(iv(1, 4), F(2)),
                             StepPiece(iv(4, 5), F(3)), StepPiece(iv(5, 6), F(1)))

    def test_coincident_atoms_merged(self):
        mu = Measure(atoms=[Atom(F(1), F(1)), Atom(F(1), F(2))])
        assert mu.atoms == (Atom(F(1), F(3)),)

    def test_zero_parts_dropped(self):
        mu = Measure([Atom(F(0), F(0))], [StepPiece(iv(0, 1), F(0))])
        assert mu.is_zero()

    def test_add_superposes_overlaps(self):
        mu = Measure.lebesgue(iv(0, 1)) + Measure.lebesgue(iv(F(1, 2), 1), 7)
        assert mu.density_at(F(1, 4)) == 1
        assert mu.density_at(F(3, 4)) == 8
        assert mu.total_mass() == F(1, 2) + F(8, 2)


class TestRestrict:
    def test_step(self):
        mu = Measure.lebesgue(iv(0, 3))
        assert mu.restrict(iv(1, 2)) == Measure.lebesgue(iv(1, 2))

    def test_atom_outside(self):
        assert Measure.point_mass(5, 2).restrict(iv(0, 1)).is_zero()

    def test_mass_agrees(self):
        mu = Measure([Atom(F(1), F(1))], [StepPiece(iv(0, 2), F(1))])
        r = mu.restrict(iv(1, 2))
        assert r.total_mass() == mu.mass(iv(1, 2)) == 2

    def test_idempotent(self):
        mu = Measure([Atom(F(1), F(1))], [StepPiece(iv(0, 2), F(3, 2))])
        assert mu.restrict(iv(0, 1)).restrict(iv(0, 1)) == mu.restrict(iv(0, 1))

    def test_covering_interval_returns_self(self):
        mu = Measure([Atom(F(-1), F(1)), Atom(F(3), F(2))],
                     [StepPiece(iv(0, 2), F(3, 2))])
        assert mu.restrict(iv(-1, 3)) is mu
        assert mu.restrict(iv(-5, 5)) is mu
        assert mu.restrict(iv(-1, F(5, 2))) == Measure([Atom(F(-1), F(1))],
                                                       [StepPiece(iv(0, 2), F(3, 2))])

    def test_one_piece_clipped_on_both_sides(self):
        mu = Measure.lebesgue(iv(0, 4), 3)
        assert mu.restrict(iv(1, 2)) == Measure.lebesgue(iv(1, 2), 3)
        assert mu.complement_restrict(iv(1, 2)) == \
            Measure.from_steps([(0, 1, 3), (2, 4, 3)])

    def test_complement_restrict(self):
        mu = Measure.lebesgue(iv(0, 3)) + Measure.point_mass(F(3, 2))
        out = mu.complement_restrict(iv(1, 2))
        assert out.total_mass() == 2
        assert out.mass(iv(1, 2)) == 0


class TestMoments:
    def test_uniform(self):
        mu = Measure.lebesgue(iv(0, 1))
        m, mean, second = mu.moments(iv(0, 1))
        assert (m, mean, second) == (1, F(1, 2), F(1, 3))

    def test_atom(self):
        mu = Measure.point_mass(F(1, 3), 5)
        _, mean, _ = mu.moments(iv(0, 1))
        assert mean == F(1, 3)

    def test_two_endpoint_atoms_variance(self):
        mu = Measure([Atom(F(0), F(1, 2)), Atom(F(1), F(1, 2))])
        m, mean, _ = mu.moments(iv(0, 1))
        assert mean == F(1, 2)
        assert mu.variance(iv(0, 1)) == F(1, 4)

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMassError):
            Measure().moments(iv(0, 1))


def test_scale_and_dilate():
    mu = Measure([Atom(F(1), F(2))], [StepPiece(iv(0, 1), F(1))])
    assert mu.scale(F(3, 2)).total_mass() == mu.total_mass() * F(3, 2)
    d = mu.dilate(2)
    assert d.total_mass() == mu.total_mass()
    assert d.mass(iv(0, 2)) == mu.mass(iv(0, 1))
