"""Pressure laws against independent oracles.

Frozen reference values were computed with mpmath at 30 significant
digits from the defining integrals, cross-checked against the
hypergeometric representation of the incomplete beta function.  Tests
marked "inline oracle" additionally integrate the raw definition with
scipy inside the test, so the shipped closed forms are never compared
against themselves.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from jamflow.errors import BarrierViolation, ParameterError
from jamflow.pressure import (
    BarotropicLaw,
    FluidParams,
    SedimentationLaw,
    SingularLaw,
    SteepnessWarning,
    TruncatedLaw,
    energy_potential_floor,
    ratio_law,
    _steep_energy_hyp,
)


def make_singular(eps, alpha, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SteepnessWarning)
        return SingularLaw(eps, alpha, beta)


def make_truncated(eps, alpha, beta, kappa, cap_k, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SteepnessWarning)
        return TruncatedLaw(eps, alpha, beta, kappa, cap_k, delta)


# mpmath oracles, 17 digits, for energy_potential = int_0^r pi(s)/s^2 ds
FROZEN_ENERGY = [
    # (eps, alpha, beta, r, expected)
    (2e-3, 2.5, 3.5, 0.2, 0.00019166666666666669),
    (2e-3, 2.5, 3.5, 0.5, 0.0021333333333333334),
    (2e-3, 2.5, 3.5, 0.9, 0.23040000000000014),
    (1e-2, 4.0, 3.0, 0.5, 0.0019314718055994531),
    (1e-2, 4.0, 3.0, 0.9, 0.33802585092994064),
    (1e-3, 2.0, 4.0, 0.5, 0.0023333333333333334),
    (1e-3, 2.0, 4.0, 0.9, 0.33300000000000023),
]

FROZEN_SEDIMENT_ENERGY = [
    # (c0, s_exp, phi, expected), phi_star = 0.64
    (1.0, 3.0, 0.3, 0.10481443759584669),
    (1.0, 3.0, 0.6, 1.1744567822334595),
    (0.8, 2.5, 0.3, 0.19605479326299057),
    (0.8, 2.5, 0.55, 0.9085205847929884),
    (0.8, 2.5, 0.6399, 5.216272484475983),
]

# mpmath oracles, 30 digits, for fractional exponents (the hypergeometric
# path) up to ratios just inside the default barrier tolerance; r is the
# binary double of the written expression
FROZEN_FRACTIONAL_ENERGY = [
    # (eps, alpha, beta, r, expected)
    (1e-3, 2.5, 2.0, 0.5, 0.0005328399753535521),
    (1e-3, 2.5, 2.0, 0.99, 0.09650552086453552),
    (1e-3, 2.5, 2.0, 0.9999, 9.994201695134866),
    (1e-3, 2.5, 2.0, 1 - 2e-6, 499.9922456847585),
    (1e-3, 2.5, 3.0, 0.5, 0.0008403167750249355),
    (1e-3, 2.5, 3.0, 0.99, 4.949314193893894),
    (1e-3, 2.5, 3.0, 0.9999, 49994.99873793792),
    (1e-3, 2.5, 3.0, 1 - 2e-6, 124999750.00493778),
    (1e-3, 3.5, 2.5, 0.5, 0.00023746299346156328),
    (1e-3, 3.5, 2.5, 0.99, 0.6397332175595026),
    (1e-3, 3.5, 2.5, 0.9999, 666.3698007593887),
    (1e-3, 3.5, 2.5, 1 - 2e-6, 235700.14222516376),
    (1e-3, 4.5, 4.0, 0.5, 0.0002151738543982121),
    (1e-3, 4.5, 4.0, 0.99, 321.0183884752074),
    (1e-3, 4.5, 4.0, 0.9999, 333208352.0795591),
    (1e-3, 4.5, 4.0, 1 - 2e-6, 41666354170948.58),
]

# mpmath oracles, 30 digits, for beta within 1e-6 of 1, where
# c - a - b = 1 - beta of the hypergeometric form is almost an integer
FROZEN_NEAR_BETA_ONE = [
    # (eps, alpha, beta, r, expected)
    (1e-3, 2.5, 1 + 1e-6, 0.9999, 0.008596726606163072),
    (1e-3, 2.5, 1 + 1e-6, 1 - 1e-5, 0.010899290556760439),
    (1e-3, 2.5, 1 + 1e-6, 1 - 2e-6, 0.012508744293768493),
    (1e-3, 2.5, 1 - 1e-6, 0.9999, 0.008596642861538738),
    (1e-3, 2.5, 1 - 1e-6, 1 - 1e-5, 0.010899159095949027),
    (1e-3, 2.5, 1 - 1e-6, 1 - 2e-6, 0.012508573184086118),
    (1e-3, 3.5, 1 + 1e-6, 0.9999, 0.007930159084434911),
    (1e-3, 3.5, 1 + 1e-6, 1 - 1e-5, 0.010232633036611434),
    (1e-3, 3.5, 1 + 1e-6, 1 - 2e-6, 0.011842078773546602),
    (1e-3, 3.5, 1 - 1e-6, 0.9999, 0.00793007704493163),
    (1e-3, 3.5, 1 - 1e-6, 1 - 1e-5, 0.010232503282712838),
    (1e-3, 3.5, 1 - 1e-6, 1 - 2e-6, 0.011841909370970813),
]


class TestSingularValues:
    def test_pressure_at_half(self):
        law = make_singular(1e-3, 2.0, 4.0)
        # 1e-3 * 0.25 / 0.5**4 exactly
        assert law.pressure(0.5) == pytest.approx(4.0e-3, rel=1e-14)

    def test_pressure_derivative_at_half(self):
        law = make_singular(1e-3, 2.0, 4.0)
        # eps * r^(a-1) (1-r)^(-b-1) (a(1-r) + b r) = 1e-3*0.5*32*3
        assert law.pressure_deriv(0.5) == pytest.approx(4.8e-2, rel=1e-14)

    def test_energy_potential_at_half(self):
        law = make_singular(1e-3, 2.0, 4.0)
        # int_0^0.5 1e-3 (1-s)^-4 ds = 1e-3 * (8 - 1) / 3
        assert law.energy_potential(0.5) == pytest.approx(7e-3 / 3.0, rel=1e-14)

    def test_enthalpy_at_half(self):
        law = make_singular(1e-3, 2.0, 4.0)
        assert law.enthalpy(0.5) == pytest.approx(8e-3 + 7e-3 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("eps,alpha,beta,r,expected", FROZEN_ENERGY)
    def test_energy_matches_frozen_oracle(self, eps, alpha, beta, r, expected):
        law = make_singular(eps, alpha, beta)
        assert law.energy_potential(r) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eps,alpha,beta,r,expected", FROZEN_ENERGY)
    def test_energy_matches_inline_scipy_oracle(self, eps, alpha, beta, r, expected):
        # independent formulation: integrate the raw definition directly
        def integrand(s):
            return eps * s ** (alpha - 2.0) * (1.0 - s) ** (-beta)

        oracle, err = integrate.quad(integrand, 0.0, r, epsabs=0.0, epsrel=1e-11, limit=400)
        assert err < 1e-9 * abs(oracle)
        law = make_singular(eps, alpha, beta)
        assert law.energy_potential(r) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("eps,alpha,beta,r,expected", FROZEN_FRACTIONAL_ENERGY)
    def test_fractional_energy_matches_frozen_oracle(self, eps, alpha, beta, r, expected):
        law = make_singular(eps, alpha, beta)
        assert law.energy_potential(r) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eps,alpha,beta,r,expected", FROZEN_NEAR_BETA_ONE)
    def test_near_beta_one_error_stays_bounded(self, eps, alpha, beta, r, expected):
        # Loose on purpose.  Next to the degenerate case c - a - b = 0 the
        # hyp2f1 connection formulas cancel two nearly equal terms, so the
        # error is up to 1.8e-6 at these points (2.5e-5 for alpha = 2.7)
        # instead of 1e-14, and it is not monotone in beta - 1 (5e-4 at
        # |beta - 1| = 1e-12).  The bound pins that order of magnitude, not
        # scipy's rounding.
        law = make_singular(eps, alpha, beta)
        assert law.energy_potential(r) == pytest.approx(expected, rel=1e-4)

    def test_closed_form_agrees_with_hypergeometric_path(self):
        # integer exponents dispatch to the binomial sum; evaluate the
        # hypergeometric form for the same law and compare
        law = make_singular(1e-3, 3.0, 3.0)
        for r in (0.1, 0.5, 0.95):
            closed = law.energy_potential(r)
            hyp = _steep_energy_hyp(law.eps, law.alpha, law.beta, r)
            assert hyp == pytest.approx(closed, rel=1e-12)

    def test_energy_zero_at_zero(self):
        law = make_singular(1e-3, 2.0, 4.0)
        assert law.energy_potential(0.0) == 0.0
        assert law.enthalpy(0.0) == 0.0
        assert law.pressure(0.0) == 0.0


class TestDerivativeAndIdentities:
    GRID = np.linspace(0.05, 0.99, 39)

    @pytest.mark.parametrize(
        "law",
        [
            make_singular(1e-3, 2.0, 4.0),
            make_singular(2e-3, 2.5, 3.5),
            make_singular(5e-2, 3.0, 3.0),
        ],
        ids=["int-exponents", "half-exponents", "recommended"],
    )
    def test_derivative_matches_finite_difference(self, law):
        h = 1e-7
        for r in self.GRID:
            fd = (law.pressure(r + h) - law.pressure(r - h)) / (2.0 * h)
            assert law.pressure_deriv(r) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "law",
        [
            make_singular(1e-3, 2.0, 4.0),
            make_singular(2e-3, 2.5, 3.5),
            make_singular(5e-2, 3.0, 3.0),
            BarotropicLaw(1.0, 2.0),
            SedimentationLaw(1.0, 3.0),
        ],
        ids=["int", "half", "recommended", "barotropic", "sedimentation"],
    )
    def test_energy_identity_by_finite_difference(self, law):
        # energy_potential + r * energy_potential' = enthalpy, with the
        # derivative taken by central differences
        h = 1e-7
        top = 0.99 if law.singular_at is not None else 1.5
        scale = law.singular_at if law.singular_at is not None else 1.0
        for r in np.linspace(0.05, top, 30) * scale:
            fd = (law.energy_potential(r + h) - law.energy_potential(r - h)) / (2.0 * h)
            lhs = law.energy_potential(r) + r * fd
            q = law.enthalpy(r)
            assert abs(lhs - q) <= 1e-8 * (1.0 + abs(q))

    def test_enthalpy_decomposition(self):
        # enthalpy = pressure / r + energy_potential pointwise
        law = make_singular(2e-3, 2.5, 3.5)
        r = np.linspace(0.01, 0.99, 25)
        lhs = law.enthalpy(r)
        rhs = law.pressure(r) / r + law.energy_potential(r)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_monotone_increasing(self):
        law = make_singular(1e-3, 2.0, 4.0)
        r = np.linspace(0.01, 0.999, 400)
        pi = law.pressure(r)
        assert np.all(np.diff(pi) > 0.0)
        assert np.all(law.pressure_deriv(r) > 0.0)
        assert np.all(np.diff(law.energy_potential(r)) > 0.0)


class TestArgumentHandling:
    def test_scalar_in_scalar_out(self):
        law = make_singular(1e-3, 2.0, 4.0)
        assert isinstance(law.pressure(0.5), float)
        assert isinstance(law.enthalpy(0.5), float)

    def test_array_shape_preserved(self):
        law = make_singular(1e-3, 2.0, 4.0)
        r = np.full((3, 4), 0.25)
        assert law.pressure(r).shape == (3, 4)
        assert law.energy_potential(r).shape == (3, 4)

    def test_negative_argument_rejected(self):
        law = make_singular(1e-3, 2.0, 4.0)
        with pytest.raises(ParameterError):
            law.pressure(-0.1)

    def test_at_barrier_rejected(self):
        law = make_singular(1e-3, 2.0, 4.0)
        with pytest.raises(BarrierViolation):
            law.pressure(1.0)
        with pytest.raises(BarrierViolation):
            law.enthalpy(np.array([0.5, 1.2]))

    def test_barotropic_accepts_overshoot(self):
        law = BarotropicLaw(2.0, 3.0)
        assert law.pressure(1.5) == pytest.approx(2.0 * 1.5**3)

    def test_quadrature_cache_is_deterministic(self):
        law = make_singular(2e-3, 2.5, 3.5)
        first = law.energy_potential(0.7)
        again = law.energy_potential(0.7)
        assert first == again


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps=0.0, alpha=2.0, beta=4.0),
            dict(eps=-1e-3, alpha=2.0, beta=4.0),
            dict(eps=1e-3, alpha=0.0, beta=4.0),
            dict(eps=1e-3, alpha=0.5, beta=4.0),
            dict(eps=1e-3, alpha=1.0, beta=4.0),
            dict(eps=1e-3, alpha=2.0, beta=-1.0),
        ],
    )
    def test_singular_rejects(self, kwargs):
        with pytest.raises(ParameterError):
            make_singular(**kwargs)

    def test_barotropic_rejects(self):
        with pytest.raises(ParameterError):
            BarotropicLaw(0.0, 2.0)
        with pytest.raises(ParameterError):
            BarotropicLaw(1.0, 1.0)

    def test_truncated_rejects(self):
        with pytest.raises(ParameterError):
            make_truncated(1e-3, 3.0, 3.0, 1.0, 4.0, 0.1)  # cap_k too small
        with pytest.raises(ParameterError):
            make_truncated(1e-3, 3.0, 3.0, 1.0, 6.0, 0.0)
        with pytest.raises(ParameterError):
            make_truncated(1e-3, 3.0, 3.0, 1.0, 6.0, 1.0)
        with pytest.raises(ParameterError):
            make_truncated(1e-3, 3.0, 3.0, 0.0, 6.0, 0.1)
        with pytest.raises(ParameterError):
            make_truncated(1e-3, 1.0, 3.0, 1.0, 6.0, 0.1)  # potentials need alpha > 1

    def test_sedimentation_rejects(self):
        with pytest.raises(ParameterError):
            SedimentationLaw(1.0, 1.5)
        with pytest.raises(ParameterError):
            SedimentationLaw(1.0, 5.5)
        with pytest.raises(ParameterError):
            SedimentationLaw(0.0, 3.0)

    def test_shallow_exponents_warn_but_build(self):
        with pytest.warns(SteepnessWarning):
            law = SingularLaw(1e-3, 2.0, 4.0)
        assert law.pressure(0.5) > 0.0
        with pytest.warns(SteepnessWarning):
            TruncatedLaw(1e-3, 2.0, 2.0, 1.0, 6.0, 0.1)

    def test_recommended_exponents_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SingularLaw(1e-3, 3.0, 3.0)
            SingularLaw(1e-3, 4.5, 3.0)


class TestTruncatedLaw:
    LAW = make_truncated(1e-2, 3.0, 3.0, 0.5, 6.0, 0.2)

    def test_continuous_at_junction(self):
        cap = 1.0 - self.LAW.delta
        left = self.LAW.pressure(cap - 1e-11)
        at = self.LAW.pressure(cap)
        assert at == pytest.approx(left, rel=1e-8)

    def test_right_derivative_at_junction(self):
        cap = 1.0 - self.LAW.delta
        law = self.LAW
        expected = (
            law.kappa * law.cap_k * cap ** (law.cap_k - 1.0)
            + law.eps * law.alpha * cap ** (law.alpha - 1.0) * law.delta**-law.beta
        )
        assert law.pressure_deriv(cap) == pytest.approx(expected, rel=1e-13)
        right_fd = (law.pressure(cap + 1e-8) - law.pressure(cap)) / 1e-8
        assert law.pressure_deriv(cap) == pytest.approx(right_fd, rel=1e-5)

    def test_finite_beyond_one(self):
        vals = self.LAW.pressure(np.array([0.99, 1.0, 1.3]))
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) > 0.0)

    def test_ordering_in_delta(self):
        # smaller truncation delta means a stiffer law, everywhere
        tight = make_truncated(1e-2, 3.0, 3.0, 0.5, 6.0, 0.05)
        loose = make_truncated(1e-2, 3.0, 3.0, 0.5, 6.0, 0.2)
        s = np.linspace(0.0, 1.4, 200)
        assert np.all(tight.pressure(s) >= loose.pressure(s) - 1e-15)

    def test_energy_continuous_and_increasing(self):
        cap = 1.0 - self.LAW.delta
        s = np.linspace(0.01, 1.2, 300)
        gamma = self.LAW.energy_potential(s)
        assert np.all(np.isfinite(gamma))
        assert np.all(np.diff(gamma) > 0.0)
        below = self.LAW.energy_potential(cap - 1e-10)
        above = self.LAW.energy_potential(cap + 1e-10)
        assert above == pytest.approx(below, rel=1e-8)

    def test_energy_matches_inline_quadrature(self):
        law = self.LAW

        def integrand(s):
            return law.pressure(s) / s**2

        for r in (0.5, 0.9, 1.1):
            oracle, err = integrate.quad(
                integrand, 1e-12, r, epsabs=0.0, epsrel=1e-11,
                points=[1.0 - law.delta] if r > 1.0 - law.delta else None,
                limit=400,
            )
            assert law.energy_potential(r) == pytest.approx(oracle, rel=1e-8)


class TestSedimentation:
    @pytest.mark.parametrize("c0,s_exp,phi,expected", FROZEN_SEDIMENT_ENERGY)
    def test_energy_matches_frozen_oracle(self, c0, s_exp, phi, expected):
        law = SedimentationLaw(c0, s_exp)
        assert law.energy_potential(phi) == pytest.approx(expected, rel=1e-12)

    def test_pressure_value(self):
        law = SedimentationLaw(1.0, 3.0)
        assert law.pressure(0.3) == pytest.approx(0.027 / 0.34, rel=1e-14)

    def test_blows_up_at_packing_fraction(self):
        law = SedimentationLaw(1.0, 3.0)
        with pytest.raises(BarrierViolation):
            law.pressure(0.64)
        assert law.pressure(0.6399) > 1e2 * law.pressure(0.3)

    def test_derivative_matches_finite_difference(self):
        law = SedimentationLaw(0.8, 2.5)
        h = 1e-8
        for phi in (0.1, 0.3, 0.55, 0.62):
            fd = (law.pressure(phi + h) - law.pressure(phi - h)) / (2.0 * h)
            assert law.pressure_deriv(phi) == pytest.approx(fd, rel=1e-6)

    def test_ratio_view_rescales_blowup_to_one(self):
        law = SedimentationLaw(1.0, 3.0)
        view = ratio_law(law)
        assert view.singular_at == 1.0
        # same physical point: ratio r corresponds to phi = 0.64 r
        assert view.pressure(0.5) == pytest.approx(law.pressure(0.32), rel=1e-14)
        with pytest.raises(BarrierViolation):
            view.pressure(1.0)

    def test_ratio_view_keeps_identities(self):
        law = SedimentationLaw(1.0, 3.0)
        view = ratio_law(law)
        r = np.linspace(0.05, 0.95, 20)
        lhs = view.enthalpy(r)
        rhs = view.pressure(r) / r + view.energy_potential(r)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
        # derivative identity with the scale factor folded in
        h = 1e-7
        for rr in (0.3, 0.7):
            fd = (view.energy_potential(rr + h) - view.energy_potential(rr - h)) / (2 * h)
            q = view.enthalpy(rr)
            assert abs(view.energy_potential(rr) + rr * fd - q) <= 1e-8 * (1.0 + abs(q))

    def test_ratio_view_is_identity_for_ratio_laws(self):
        law = make_singular(1e-3, 2.0, 4.0)
        assert ratio_law(law) is law


class TestEnergyFloor:
    def test_floor_holds_on_dense_grid(self):
        law = make_singular(1e-3, 2.0, 4.0)
        r = np.linspace(0.0, 0.9985, 3000)
        holds, slack = energy_potential_floor(law, r)
        assert holds
        assert slack.shape == r.shape
        assert np.all(slack >= 0.0)

    def test_floor_holds_for_recommended_exponents(self):
        law = SingularLaw(0.05, 3.0, 3.0)
        holds, _ = energy_potential_floor(law, np.linspace(0.0, 0.999, 2000))
        assert holds

    def test_floor_requires_integer_exponents(self):
        with pytest.raises(ParameterError):
            energy_potential_floor(make_singular(1e-3, 2.5, 3.5), 0.5)

    def test_floor_requires_singular_law(self):
        with pytest.raises(ParameterError):
            energy_potential_floor(BarotropicLaw(1.0, 2.0), 0.5)

    def test_floor_rejects_ratios_at_one(self):
        law = make_singular(1e-3, 2.0, 4.0)
        with pytest.raises(BarrierViolation):
            energy_potential_floor(law, np.array([0.5, 1.0]))


class TestFluidParams:
    def test_pressure_and_enthalpy_values(self):
        p = FluidParams(mu=1e-2, lam=0.0, gamma=2.0)
        assert p.pressure(0.5) == pytest.approx(0.25, rel=1e-14)
        assert p.enthalpy(0.5) == pytest.approx(1.0, rel=1e-14)
        q = FluidParams(mu=1e-2, lam=0.0, gamma=1.4)
        assert q.pressure(1.0) == pytest.approx(1.0, rel=1e-14)
        assert q.enthalpy(1.0) == pytest.approx(3.5, rel=1e-14)

    def test_enthalpy_gradient_relation(self):
        # rho * d(enthalpy)/drho = d(pressure)/drho checked by differences
        p = FluidParams(mu=1e-2, lam=0.0, gamma=1.4)
        h = 1e-7
        for rho in (0.2, 0.7, 1.3):
            dh = (p.enthalpy(rho + h) - p.enthalpy(rho - h)) / (2 * h)
            dp = (p.pressure(rho + h) - p.pressure(rho - h)) / (2 * h)
            assert rho * dh == pytest.approx(dp, rel=1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, lam=0.0, gamma=2.0),
            dict(mu=-1.0, lam=0.0, gamma=2.0),
            dict(mu=1e-3, lam=-1.0, gamma=2.0),
            dict(mu=1e-2, lam=0.0, gamma=1.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            FluidParams(**kwargs)
