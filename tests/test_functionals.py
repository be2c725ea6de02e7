import math
from fractions import Fraction as F

import numpy as np
import pytest

from wtc import (
    Atom,
    AtomPresentError,
    Interval,
    Measure,
    SingularSampleError,
    WtcError,
    ZeroMassError,
)
from wtc.functionals import (
    AP_KINDS,
    _poisson_float,
    _tail_many,
    ap_local,
    ap_local_many,
    ap_local_squared,
    avg_density,
    doubling_constant,
    dyadic_maximal_integral,
    energy_e2,
    maximal_indicator_integral,
    pivotal_sum,
    poisson,
    power_weight_ap_bound,
    reverse_doubling_constant,
    riesz_potential_sup,
    sawyer_ratio,
    sup_over_family,
)
from wtc.constructions import power_weight
from wtc.grid import Partition, ScanFamily

from oracles import dilate


def iv(a, b):
    return Interval(F(a), F(b))


WIDE = Measure.lebesgue(iv(-10, 11))
UNIT = iv(0, 1)


def atom_train(n_max=10):
    """sum over n in 2..n_max of n * delta_n"""
    return Measure(atoms=[Atom(F(n), F(n)) for n in range(2, n_max + 1)])


class TestAvgDensity:
    def test_lebesgue(self):
        assert avg_density(Measure.lebesgue(UNIT), UNIT) == 1

    def test_atom(self):
        mu = Measure.point_mass(0, 1)
        assert avg_density(mu, iv(F(-1, 2), F(1, 2))) == 1
        assert avg_density(mu, iv(F(-1, 2), F(1, 2)), alpha=F(1, 2)) == pytest.approx(1.0)


class TestPoisson:
    def test_wide_step_exact(self):
        assert poisson(UNIT, WIDE) == F(31, 11)

    def test_far_atom(self):
        assert poisson(UNIT, Measure.point_mass(2, 1)) == F(1, 4)

    def test_zero(self):
        assert poisson(UNIT, Measure()) == 0

    def test_kinds_agree_at_alpha_zero(self):
        v_std = _poisson_float(UNIT, WIDE, 0)
        assert v_std == pytest.approx(float(F(31, 11)), rel=1e-12)

    @pytest.mark.parametrize("kernel, alpha", [(poisson, 3), (_poisson_float, 1)],
                             ids=["poisson-3", "float-1"])
    def test_outside_domain_rejected(self, kernel, alpha):
        # the kernel's tail decays only for alpha < 1
        with pytest.raises(WtcError):
            kernel(UNIT, WIDE, alpha)

    def test_dominates_average(self):
        mu = Measure.from_steps([(-2, 0, 3), (0, 1, F(1, 2)), (1, 4, 2)])
        assert poisson(UNIT, mu) >= avg_density(mu, UNIT)


class TestApLocal:
    def test_classical_lebesgue_pair(self):
        assert ap_local(WIDE, WIDE, UNIT, p=2, kind="classical") == pytest.approx(1.0)

    def test_one_tailed_harmonic_oracle(self):
        omega = Measure.point_mass(0, 1)
        sigma = atom_train(10)
        hsum = sum(1.0 / n for n in range(2, 11))
        got = ap_local(omega, sigma, UNIT, p=2, kind="one_tailed")
        assert got == pytest.approx(math.sqrt(hsum), rel=1e-12)
        assert ap_local_squared(omega, sigma, UNIT, "one_tailed") == sum(
            F(1, n) for n in range(2, 11))

    def test_kind_monotonicity(self):
        omega = Measure.from_steps([(-3, 2, 1)]) + Measure.point_mass(F(5, 2), 2)
        sigma = Measure.from_steps([(0, 1, 2), (1, 6, F(1, 3))])
        vals = {k: ap_local(omega, sigma, UNIT, p=2, kind=k)
                for k in ("classical", "one_tailed", "one_tailed_dual", "two_tailed")}
        assert vals["classical"] <= vals["one_tailed"] <= vals["two_tailed"]
        assert vals["classical"] <= vals["one_tailed_dual"] <= vals["two_tailed"]

    def test_offset_drops_interior(self):
        # sigma supported inside I contributes nothing to the offset version
        omega = Measure.lebesgue(UNIT)
        sigma = Measure.lebesgue(iv(F(1, 4), F(3, 4)))
        assert ap_local(omega, sigma, UNIT, kind="offset") == pytest.approx(0.0)

    def test_scale_invariance(self):
        omega = Measure.from_steps([(-1, 2, 3)])
        sigma = Measure.from_steps([(0, 4, F(1, 2))])
        lam = F(7, 3)
        scaled = iv(0 * lam, 1 * lam)
        # weight rescaling: pushforward preserves mass, so densities gain lam
        om2, sg2 = dilate(omega, lam).scale(lam), dilate(sigma, lam).scale(lam)
        for kind in ("classical", "one_tailed", "two_tailed"):
            v1 = ap_local(omega, sigma, UNIT, p=2, kind=kind)
            v2 = ap_local(om2, sg2, scaled, p=2, kind=kind)
            assert v1 == pytest.approx(v2, rel=1e-12)

    @pytest.mark.parametrize("kind", AP_KINDS)
    @pytest.mark.parametrize("p", [1, 0, F(1, 2), -2])
    def test_exponent_at_most_one_rejected(self, kind, p):
        with pytest.raises(WtcError):
            ap_local(WIDE, WIDE, UNIT, p=p, kind=kind)

    @pytest.mark.parametrize("p", [3, F(3, 2)])
    def test_offset_only_at_two(self, p):
        with pytest.raises(WtcError):
            ap_local(WIDE, WIDE, UNIT, p=p, kind="offset")
        assert ap_local(WIDE, WIDE, UNIT, p=p, kind="classical") == pytest.approx(1.0)


    def test_unknown_kind_rejected(self):
        with pytest.raises(WtcError):
            ap_local(WIDE, WIDE, UNIT, 2, 0, "foo")
        with pytest.raises(WtcError):
            ap_local_squared(WIDE, WIDE, UNIT, "foo")
        lo, hi = np.array([0.0]), np.array([1.0])
        for kind in ("foo", "offset"):
            with pytest.raises(WtcError):
                ap_local_many(WIDE, WIDE, lo, hi, 0, kind=kind)


class TestSupOverFamily:
    def test_lebesgue_constant(self):
        fam = ScanFamily(iv(0, 1), min_level=-3, max_level=0)
        val, wit = sup_over_family(
            lambda c: ap_local(WIDE, WIDE, c, kind="classical"), fam)
        assert val == pytest.approx(1.0)
        assert wit == iv(0, F(1, 8))  # first candidate in scan order wins ties


class TestMaximalIndicator:
    def test_wide_step(self):
        assert maximal_indicator_integral(WIDE, UNIT, 2) == F(31, 11)

    def test_supported_inside(self):
        assert maximal_indicator_integral(Measure.lebesgue(UNIT), UNIT, 2) == 1

    def test_atom_rejected(self):
        with pytest.raises(AtomPresentError):
            maximal_indicator_integral(Measure.point_mass(0), UNIT, 2)

    def test_p1_log_branch(self):
        got = maximal_indicator_integral(Measure.lebesgue(iv(1, 3)), UNIT, 1)
        assert got == pytest.approx(math.log(3.0), rel=1e-12)

    def test_float_path_matches_exact(self):
        w = Measure.from_steps([(-5, -1, F(2, 3)), (0, 1, 1), (2, 9, F(5, 7))])
        ex = maximal_indicator_integral(w, UNIT, 2)
        fl = _tail_many(w, [0.0], [1.0], 2)[0]
        assert fl == pytest.approx(float(ex), rel=1e-12)


class TestFloatTailKernel:
    """The float kernel at fractional exponents, against closed forms."""

    def test_poisson_half_alpha_lebesgue(self):
        # kernel 1/x^(3/2) on [1, 3]
        got = poisson(UNIT, Measure.lebesgue(iv(1, 3)), F(1, 2))
        assert got == pytest.approx((1 - 3 ** -0.5) / 0.5, rel=1e-12)

    def test_poisson_half_alpha_with_atoms(self):
        # an atom of mass m at distance d adds m/(1 + d)^(3/2); inside I, m
        mu = (Measure.lebesgue(iv(1, 3)) + Measure.point_mass(-1, F(1, 2))
              + Measure.point_mass(F(1, 2), 3))
        want = (1 - 3 ** -0.5) / 0.5 + 0.5 / 2 ** 1.5 + 3
        assert poisson(UNIT, mu, F(1, 2)) == pytest.approx(want, rel=1e-12)

    # density 2 on [-3, -1], 3 on I and 1/2 on [1, 4]: the tails run over
    # u = 1 - x in [2, 4] and u = x in [1, 4]
    STEPS = Measure.from_steps([(-3, -1, 2), (0, 1, 3), (1, 4, F(1, 2))])

    def test_maximal_log_branch(self):
        got = maximal_indicator_integral(self.STEPS, UNIT, 1)
        assert got == pytest.approx(3 + 2 * math.log(2) + 0.5 * math.log(4), rel=1e-12)

    def test_maximal_three_halves(self):
        got = maximal_indicator_integral(self.STEPS, UNIT, F(3, 2))
        want = 3 + 2 * (2 * (2 ** -0.5 - 4 ** -0.5)) + 0.5 * (2 * (1 - 4 ** -0.5))
        assert got == pytest.approx(want, rel=1e-12)

    def test_batch_matches_batches_of_one(self):
        # 63 pieces and one atom: 65 rows per chunk, so 150 candidates span three
        mu = power_weight(F(1, 2), iv(-2, 2), 6) + Measure.point_mass(F(1, 3), 1)
        lo = np.linspace(-3, 2.5, 150)
        hi = lo + np.linspace(0.01, 1, 150)
        for q in (1, 1.5, 2):
            one = [_tail_many(mu, lo[i:i + 1], hi[i:i + 1], q)[0] for i in range(lo.size)]
            assert _tail_many(mu, lo, hi, q).tolist() == one


class TestDoubling:
    def test_lebesgue_factor2(self):
        fam = ScanFamily(iv(0, 1), min_level=-3, max_level=-1)
        scan = doubling_constant(Measure.lebesgue(iv(-10, 10)), fam, 2)
        assert scan.value == 2
        rev = reverse_doubling_constant(Measure.lebesgue(iv(-10, 10)), fam, 2)
        assert rev.value == 2

    def test_atom_near_cell_is_non_doubling(self):
        mu = Measure.point_mass(0, 1) + Measure.lebesgue(iv(-4, 4))
        shallow = ScanFamily(iv(0, 1), min_level=-3, max_level=-3)
        deep = ScanFamily(iv(0, 1), min_level=-8, max_level=-8)
        v1 = doubling_constant(mu, shallow, 3).value
        v2 = doubling_constant(mu, deep, 3).value
        assert v2 > 4 * v1  # triple of a tiny right-of-0 cell captures the atom

    def test_hole_reported_as_skipped(self):
        mu = Measure.lebesgue(iv(-8, -1)) + Measure.lebesgue(iv(1, 8))
        fam = ScanFamily(iv(-2, 2), min_level=0, max_level=1)
        scan = reverse_doubling_constant(mu, fam, 2)
        assert iv(-1, 0) in scan.skipped and iv(0, 1) in scan.skipped
        assert scan.value is not None


class TestEnergy:
    def test_uniform(self):
        assert energy_e2(UNIT, Measure.lebesgue(iv(-3, 3))) == F(1, 12)

    def test_endpoint_atoms(self):
        mu = Measure([Atom(F(0), F(1, 2)), Atom(F(1), F(1, 2))])
        assert energy_e2(UNIT, mu) == F(1, 4)

    def test_single_atom(self):
        assert energy_e2(UNIT, Measure.point_mass(F(1, 3), 5)) == 0

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            energy_e2(UNIT, Measure())


class TestPivotal:
    def test_single_cell_dominates_classical(self):
        omega = Measure.from_steps([(0, 1, 2)])
        sigma = Measure.from_steps([(0, 1, F(1, 2))])
        part = Partition(UNIT, (UNIT,))
        ps = pivotal_sum(omega, sigma, UNIT, part, p=2)
        assert ps >= ap_local_squared(omega, sigma, UNIT, "classical")

    def test_atom_train_oracle(self):
        omega = Measure.point_mass(0, 1)
        sigma = atom_train(10)
        parent = iv(-1, F(21, 2))
        part = Partition(parent, (iv(-1, F(1, 2)), iv(F(1, 2), F(21, 2))))
        got = pivotal_sum(omega, sigma, parent, part, p=2)
        inner = sum(F(n) * F(3, 2) / (n + 1) ** 2 for n in range(2, 11))
        assert got == inner ** 2 / 54
        assert float(got) == pytest.approx(0.0612, abs=5e-4)

    def test_energy_half_domination(self):
        omega = Measure.from_steps([(0, 1, 1), (1, 2, 5)]) + Measure.point_mass(F(3, 2))
        sigma = Measure.lebesgue(iv(0, 2))
        parent = iv(0, 2)
        part = Partition(parent, (iv(0, 1), iv(1, 2)))
        plain = pivotal_sum(omega, sigma, parent, part, p=2)
        energetic = pivotal_sum(omega, sigma, parent, part, p=2, with_energy=True)
        assert energetic <= plain / 2

    def test_zero_sigma(self):
        with pytest.raises(ZeroMassError):
            pivotal_sum(Measure.lebesgue(UNIT), Measure(), UNIT,
                        Partition(UNIT, (UNIT,)), p=2)


class TestDyadicMaximal:
    def test_lebesgue_pair(self):
        leb = Measure.lebesgue(UNIT)
        val, diags = dyadic_maximal_integral(leb, leb, UNIT, 2, max_depth=6)
        assert val == 1
        assert not diags

    def test_atom_grows_with_depth(self):
        sigma = Measure.point_mass(F(1, 3), 1)
        omega = Measure.lebesgue(UNIT)
        v4, _ = dyadic_maximal_integral(sigma, omega, UNIT, 2, max_depth=4)
        v8, _ = dyadic_maximal_integral(sigma, omega, UNIT, 2, max_depth=8)
        # each extra level roughly doubles the integral: 2^(2m) * 2^(-m) terms
        assert v8 > 8 * v4

    def test_boundary_atom_diagnosed(self):
        omega = Measure.point_mass(F(1, 2), 1)
        _, diags = dyadic_maximal_integral(Measure.lebesgue(UNIT), omega, UNIT,
                                           2, max_depth=3)
        assert diags


class TestSawyer:
    def test_lebesgue(self):
        leb = Measure.lebesgue(UNIT)
        assert sawyer_ratio(leb, leb, UNIT, 2, max_depth=5) == 1

    def test_zero_sigma(self):
        with pytest.raises(ZeroMassError):
            sawyer_ratio(Measure.lebesgue(UNIT), Measure(), UNIT, 2)


class TestRiesz:
    def test_center_of_uniform(self):
        rep = riesz_potential_sup(Measure.lebesgue(UNIT), UNIT, 0.5, [F(1, 2)])
        assert rep.sup == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert rep.normalized == rep.sup  # mu(I)=1, |I|=1

    def test_atom_sample_rejected(self):
        with pytest.raises(SingularSampleError):
            riesz_potential_sup(Measure.point_mass(F(1, 2)), UNIT, 0.5, [F(1, 2)])

    def test_sample_next_to_an_atom_is_finite(self, recwarn):
        # 1/3 + 10^-30 floats onto float(1/3); the gap is 10^-30, exactly
        x = F(1, 3) + F(1, 10 ** 30)
        rep = riesz_potential_sup(Measure.point_mass(F(1, 3)), UNIT, F(3, 5), [x])
        assert rep.sup == pytest.approx(1e12, rel=1e-12)
        assert rep.witness == x
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_zero_measure(self):
        rep = riesz_potential_sup(Measure(), UNIT, 0.5, [F(1, 2)])
        assert rep.sup == 0.0


class TestPowerWeightBound:
    def test_unit(self):
        assert power_weight_ap_bound(0, 2) == (True, 1.0)

    def test_boundary_infinite(self):
        finite, val = power_weight_ap_bound(1, 2)
        assert not finite and math.isinf(val)
        assert not power_weight_ap_bound(-1, 2)[0]

    def test_half(self):
        finite, val = power_weight_ap_bound(F(1, 2), 2)
        assert finite
        assert val == pytest.approx(4.0 / 3.0, rel=1e-12)
