"""Energy accounting, jam metrics, and the budget residual."""

import warnings

import numpy as np
import pytest

from jamflow.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    collect,
    congested_divergence_report,
    congested_interior,
    matched_congestion_delta,
    congestion_metrics,
    dissipation_rate,
    div_barrier_velocity,
    energy,
    energy_budget,
    mass,
    pressure_level_threshold,
)
from jamflow.domain import (
    ConstantBarrier,
    FlowState,
    Grid,
    TanhStepBarrier,
    build_barrier,
    make_state,
)
from jamflow.pressure import (
    FluidParams,
    SedimentationLaw,
    SingularLaw,
    SteepnessWarning,
    TruncatedLaw,
    ratio_law,
)
from jamflow.solver import SolverConfig, advance


def make_singular(eps, alpha, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SteepnessWarning)
        return SingularLaw(eps, alpha, beta)


FLUID = FluidParams(mu=1e-2, lam=0.0, gamma=2.0)
LAW = make_singular(1e-3, 2.0, 4.0)


def linear_velocity_state(n=32, slope=1.0, rho=1.0):
    """State with u = slope * x, ghosts continued analytically.

    Bypasses the no-slip ghost fill so the velocity gradient is exactly
    ``slope`` in every interior cell.
    """
    grid = Grid((1.0,), (n,))
    xg = grid.ghosted_centers(0)
    rho_arr = np.full(n + 2, rho)
    mom = (rho * slope * xg)[None, :]
    return FlowState(t=0.0, rho=rho_arr, mom=mom, grid=grid)


class TestEnergy:
    def test_rest_state_frozen_values(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = make_state(grid, np.full(16, 0.5), np.zeros((1, 16)))
        kin, internal, stored = energy(state, LAW, FLUID, barrier)
        assert kin == 0.0
        # gamma = 2: rho^2 / (gamma - 1) integrates to 0.25
        assert internal == pytest.approx(0.25, rel=1e-14)
        # rho * Gamma(0.5) = 0.5 * 7e-3 / 3
        assert stored == pytest.approx(0.5 * 7e-3 / 3.0, rel=1e-13)

    def test_kinetic_energy_value(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = make_state(grid, np.full(16, 0.5), np.full((1, 16), 0.2))
        kin, _, _ = energy(state, LAW, FLUID, barrier)
        # 0.5 * m^2 / rho = 0.5 * 0.04 / 0.5 = 0.04
        assert kin == pytest.approx(0.04, rel=1e-14)

    def test_vacuum_cells_carry_no_kinetic_energy(self):
        grid = Grid((1.0,), (8,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        rho0 = np.zeros(8)
        rho0[:4] = 0.5
        state = make_state(grid, rho0, np.zeros((1, 8)))
        kin, _, _ = energy(state, LAW, FLUID, barrier)
        assert kin == 0.0

    def test_mass_value(self):
        grid = Grid((2.0,), (10,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = make_state(grid, np.full(10, 0.3), np.zeros((1, 10)))
        assert mass(state) == pytest.approx(0.6, rel=1e-14)
        del barrier


class TestDissipation:
    def test_linear_shear_exact_value(self):
        # u = x has D(u) = 1 and div u = 1: rate = 2*mu + lam over a unit
        # domain
        params = FluidParams(mu=0.3, lam=0.1, gamma=2.0)
        state = linear_velocity_state(slope=1.0)
        assert dissipation_rate(state, params) == pytest.approx(0.7, rel=1e-12)

    def test_quadratic_scaling_in_slope(self):
        params = FluidParams(mu=0.3, lam=0.1, gamma=2.0)
        one = dissipation_rate(linear_velocity_state(slope=1.0), params)
        three = dissipation_rate(linear_velocity_state(slope=3.0), params)
        assert three == pytest.approx(9.0 * one, rel=1e-12)

    def test_rest_state_dissipates_nothing(self):
        grid = Grid((1.0,), (16,))
        state = make_state(grid, np.full(16, 0.5), np.zeros((1, 16)))
        assert dissipation_rate(state, FLUID) == 0.0

    def test_2d_shear_exact_value(self):
        # u = (y, 0): D = [[0, 1/2], [1/2, 0]], |D|^2 = 1/2, div = 0
        grid = Grid((1.0, 1.0), (16, 16))
        ys = grid.ghosted_centers(1)[None, :]
        u0 = np.broadcast_to(ys, grid.ghosted_shape).copy()
        rho = np.ones(grid.ghosted_shape)
        mom = np.stack([u0, np.zeros_like(u0)])
        state = FlowState(t=0.0, rho=rho, mom=mom, grid=grid)
        params = FluidParams(mu=0.3, lam=0.1, gamma=2.0)
        assert dissipation_rate(state, params) == pytest.approx(0.3, rel=1e-12)


class TestCongestionMetrics:
    def test_complementarity_factorization(self):
        # (barrier - rho) * pi equals eps * barrier * r^alpha * (1-r)^(1-beta)
        grid = Grid((1.0,), (20,))
        bar_value = 0.8
        barrier = build_barrier(ConstantBarrier(bar_value), grid)
        rho = np.full(20, 0.4)
        state = make_state(grid, rho, np.zeros((1, 20)))
        cm = congestion_metrics(state, LAW, barrier)
        r = 0.5
        direct = (bar_value - 0.4) * LAW.pressure(r)
        factored = LAW.eps * bar_value * r**LAW.alpha * (1.0 - r) ** (1.0 - LAW.beta)
        assert direct == pytest.approx(factored, rel=1e-14)
        assert cm.complementarity == pytest.approx(direct, rel=1e-13)

    def test_congested_measure_counts_cells(self):
        grid = Grid((1.0,), (20,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        rho = np.full(20, 0.5)
        rho[3:7] = 0.97
        state = make_state(grid, rho, np.zeros((1, 20)))
        cm = congestion_metrics(state, LAW, barrier, delta_c=0.05)
        assert cm.congested_measure == pytest.approx(4 * grid.cell_volume, rel=1e-14)
        assert cm.max_ratio == pytest.approx(0.97, rel=1e-14)

    def test_pi_l1_value(self):
        grid = Grid((1.0,), (10,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = make_state(grid, np.full(10, 0.5), np.zeros((1, 10)))
        cm = congestion_metrics(state, LAW, barrier)
        assert cm.pi_l1 == pytest.approx(LAW.pressure(0.5), rel=1e-13)

    def test_div_barrier_velocity_linear_field(self):
        # constant barrier b, u = x: div(b u) = b everywhere
        state = linear_velocity_state(slope=1.0)
        barrier = build_barrier(ConstantBarrier(0.8), state.grid)
        div = div_barrier_velocity(state, barrier)
        np.testing.assert_allclose(div, 0.8, rtol=1e-12)


class TestCollect:
    def test_record_fields_and_total(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = make_state(grid, np.full(16, 0.5), np.full((1, 16), 0.2))
        rec = collect(state, LAW, FLUID, barrier)
        assert rec.t == 0.0
        assert rec.total_energy == pytest.approx(
            rec.kinetic + rec.internal + rec.singular_potential
        )
        assert rec.mass == pytest.approx(0.5)
        assert CSV_COLUMNS[0] == "t"
        assert set(CSV_COLUMNS) == {
            "t", "kinetic", "internal", "singular_potential", "dissipation_rate",
            "mass", "max_ratio", "congested_measure", "pi_l1", "complementarity",
            "divu_congested",
        }


def record_at(t, kinetic, dissipation_rate):
    return DiagnosticsRecord(
        t=t, kinetic=kinetic, internal=0.0, singular_potential=0.0,
        dissipation_rate=dissipation_rate, mass=1.0, max_ratio=0.5,
        congested_measure=0.0, pi_l1=0.0, complementarity=0.0, divu_congested=0.0,
    )


class TestEnergyBudget:
    def test_hand_computed_residual(self):
        # E drops by 0.03 while trapezoid(D) = 0.5*(0.2+0.4)*0.1 = 0.03:
        # perfect balance, residual zero
        recs = [record_at(0.0, 1.0, 0.2), record_at(0.1, 0.97, 0.4)]
        rep = energy_budget(recs)
        assert rep.initial_energy == pytest.approx(1.0)
        np.testing.assert_allclose(rep.residuals, [0.0], atol=1e-15)
        assert rep.max_positive == 0.0
        assert rep.cumulative_positive == 0.0

    def test_positive_residual_detected(self):
        recs = [record_at(0.0, 1.0, 0.0), record_at(0.1, 1.05, 0.0)]
        rep = energy_budget(recs)
        assert rep.max_positive == pytest.approx(0.05)
        assert rep.cumulative_positive == pytest.approx(0.05)

    def test_short_record_lists(self):
        assert energy_budget([]).residuals.size == 0
        assert energy_budget([record_at(0.0, 1.0, 0.1)]).residuals.size == 0

    def test_dissipative_run_has_tiny_residual(self):
        # viscous relaxation of a velocity perturbation: the budget must
        # close to a small fraction of the initial energy at each interval
        grid = Grid((1.0,), (64,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = np.full(64, 0.5)
        mom0 = (0.1 * np.sin(2 * np.pi * x) * rho0)[None, :]
        state = make_state(grid, rho0, mom0)
        cfg = SolverConfig(t_end=0.05, snapshot_every=0.005)
        recs = []
        advance(state, 0.05, LAW, FLUID, barrier, cfg,
                sink=lambda s, r: recs.append(r))
        rep = energy_budget(recs)
        assert rep.cumulative_positive <= 1e-3 * rep.initial_energy


class TestCongestedDivergenceReport:
    def test_empty_congestion_yields_zero_ratio(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = make_state(grid, np.full(16, 0.3), np.zeros((1, 16)))
        rep = congested_divergence_report([state], barrier)
        assert rep.congested_snapshots == 0
        assert rep.mean_congested_ratio == 0.0
        assert rep.ratios[0] == 0.0

    def test_fully_congested_ratio_is_one(self):
        state = linear_velocity_state(n=32, slope=1.0, rho=0.97)
        barrier = build_barrier(ConstantBarrier(1.0), state.grid)
        rep = congested_divergence_report([state], barrier, delta_c=0.05)
        assert rep.congested_snapshots == 1
        assert rep.mean_congested_ratio == pytest.approx(1.0, rel=1e-9)

    def test_interior_erosion_drops_one_rim_cell(self):
        mask = np.array([False, True, True, True, False])
        assert congested_interior(mask).tolist() == [False, False, True, False, False]

    def test_erosion_keeps_wall_side_cells(self):
        mask = np.array([True, True, True, False, False, False])
        assert congested_interior(mask).tolist() == [True, True, False, False, False, False]

    def test_erosion_2d_plus_shape_keeps_center(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 1:4] = True
        mask[1:4, 2] = True
        eroded = congested_interior(mask)
        assert eroded[2, 2]
        assert np.count_nonzero(eroded) == 1

    def test_rim_compression_is_excluded_from_ratio(self):
        grid = Grid((1.0,), (50,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        jam = (x > 0.3) & (x < 0.7)
        rho0 = np.where(jam, 0.97, 0.3)
        mom0 = (np.where(jam, 0.2, 0.0) * rho0)[None, :]
        state = make_state(grid, rho0, mom0)
        rep = congested_divergence_report([state], barrier, delta_c=0.05)
        # uniform flow inside the jam: all divergence sits on the rim cells
        assert rep.congested_snapshots == 1
        assert rep.ratios[0] == 0.0

    def test_partial_congestion_lies_strictly_between(self):
        grid = Grid((1.0,), (64,))
        barrier = build_barrier(TanhStepBarrier(1.0, 0.6, 0.5, 0.05), grid)
        x = grid.centers(0)
        rho0 = np.where(x > 0.6, 0.59, 0.3)  # jammed only on the right
        mom0 = (0.1 * np.sin(2 * np.pi * x) * rho0)[None, :]
        state = make_state(grid, rho0, mom0)
        rep = congested_divergence_report([state], barrier, delta_c=0.05)
        assert rep.congested_snapshots == 1
        assert 0.0 < rep.mean_congested_ratio < 1.0

    def test_times_follow_states(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        s1 = make_state(grid, np.full(16, 0.3), np.zeros((1, 16)), t=0.0)
        s2 = make_state(grid, np.full(16, 0.3), np.zeros((1, 16)), t=0.5)
        rep = congested_divergence_report([s1, s2], barrier)
        assert rep.times == (0.0, 0.5)


class TestMatchedThreshold:
    def test_level_threshold_inverts_the_law(self):
        # closed form for alpha = beta = 2: pi(1 - d) = eps (1-d)^2 / d^2,
        # so pi = L gives d = 1 / (1 + sqrt(L / eps))
        law = make_singular(1e-3, 2.0, 2.0)
        for level in (0.05, 0.4, 3.0):
            delta = pressure_level_threshold(law, level)
            exact = 1.0 / (1.0 + np.sqrt(level / law.eps))
            assert delta == pytest.approx(exact, rel=1e-10)

    def test_solved_threshold_reproduces_the_level(self):
        law = make_singular(2e-4, 2.0, 3.0)
        level = 0.7
        delta = pressure_level_threshold(law, level)
        from jamflow.pressure import ratio_law

        attained = float(ratio_law(law).pressure(np.asarray(1.0 - delta)))
        assert attained == pytest.approx(level, rel=1e-9)

    def test_unreachable_level_returns_none(self):
        law = make_singular(1e-3, 2.0, 2.0)
        peak = 0.5  # pi(0.5) = eps, far below the requested level
        assert pressure_level_threshold(law, 10.0, r_hint=peak) is None

    def test_nonpositive_level_rejected(self):
        from jamflow.errors import ParameterError

        with pytest.raises(ParameterError):
            pressure_level_threshold(make_singular(1e-3, 2.0, 2.0), 0.0)

    def test_matched_delta_shrinks_with_stiffness(self):
        # each law probed at the ratio where it carries half the load it
        # reaches at its own typical peak: stiffer laws concentrate closer
        # to the barrier, so the matched threshold tightens
        soft = matched_congestion_delta(make_singular(1e-2, 2.0, 2.0), 0.86)
        mid = matched_congestion_delta(make_singular(1e-3, 2.0, 2.0), 0.96)
        stiff = matched_congestion_delta(make_singular(1e-4, 2.0, 2.0), 0.987)
        assert soft is not None and mid is not None and stiff is not None
        assert soft > mid > stiff

    def test_matched_delta_agrees_with_closed_form(self):
        law = make_singular(1e-3, 2.0, 2.0)
        peak = 0.95
        p_peak = law.eps * peak**2 / (1.0 - peak) ** 2
        expected = 1.0 / (1.0 + np.sqrt(0.5 * p_peak / law.eps))
        assert matched_congestion_delta(law, peak) == pytest.approx(
            expected, rel=1e-10
        )

    def test_diffuse_pressure_reports_unjammed(self):
        # a run that never exceeds moderate ratios has no pressure core;
        # the matched threshold would be wider than the cap
        law = make_singular(1e-3, 2.0, 2.0)
        assert matched_congestion_delta(law, 0.4) is None

    def test_degenerate_peaks_report_unjammed(self):
        law = make_singular(1e-3, 2.0, 2.0)
        assert matched_congestion_delta(law, 0.0) is None
        assert matched_congestion_delta(law, float("nan")) is None


class TestThresholdBisection:
    """The in-module bisection against scipy's Brent solver on the ratio."""

    @staticmethod
    def brent_ratio(law, level):
        from scipy.optimize import brentq

        rlaw = ratio_law(law)
        return brentq(lambda r: float(rlaw.pressure(r)) - level, 1e-9, 1.0 - 1e-9, rtol=1e-12)

    @pytest.mark.parametrize(
        "law",
        [
            make_singular(1e-3, 2.0, 2.0),
            make_singular(2e-4, 2.0, 3.0),
            make_singular(1e-3, 2.5, 2.0),
            TruncatedLaw(1e-3, 3.0, 3.0, kappa=1.0, cap_k=6.0, delta=0.05),
            TruncatedLaw(1e-3, 3.0, 3.0, kappa=0.1, cap_k=6.0, delta=0.3),
            SedimentationLaw(1.0, 3.0),
            SedimentationLaw(0.01, 2.0, phi_star=0.6),
        ],
        ids=lambda law: law.kind,
    )
    def test_matches_brentq(self, law):
        for peak in (0.3, 0.86, 0.95, 0.99, 0.9999):
            level = 0.5 * float(ratio_law(law).pressure(peak))
            delta = pressure_level_threshold(law, level)
            assert 1.0 - delta == pytest.approx(self.brent_ratio(law, level), rel=1e-12)

    def test_matches_the_closed_form(self):
        # pi(1 - d) = eps (1-d)^2 / d^2 for alpha = beta = 2
        law = make_singular(1e-3, 2.0, 2.0)
        for level in (1e-3, 0.05, 0.4, 3.0, 1e3):
            exact = 1.0 / (1.0 + np.sqrt(level / law.eps))
            assert pressure_level_threshold(law, level) == pytest.approx(exact, rel=1e-12)
