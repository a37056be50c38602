"""Time stepping: stability sizing, fixed points, conservation, retries."""

import math
import warnings

import numpy as np
import pytest

from jamflow.domain import (
    ConstantBarrier,
    FlowState,
    Grid,
    TanhStepBarrier,
    build_barrier,
    make_state,
    profile_values,
)
from jamflow.errors import (
    BarrierViolation,
    DegenerateState,
    ParameterError,
    StepFailure,
)
from jamflow.pressure import BarotropicLaw, FluidParams, SingularLaw, SteepnessWarning
from jamflow.solver import (
    SolverConfig,
    StepStats,
    _Increments,
    _apply,
    _viscous_velocity,
    advance,
    effective_sound_speed,
    first_dt,
    next_tick,
    stable_dt,
    step,
    step_ratio,
    track_ratio_transport,
)


def make_singular(eps, alpha, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SteepnessWarning)
        return SingularLaw(eps, alpha, beta)


FLUID = FluidParams(mu=1e-2, lam=0.0, gamma=2.0)
SOFT_LAW = BarotropicLaw(1e-6, 2.0)


def wall_laplacian(n):
    """tridiag(-1, 2, -1) with 3 on the wall rows, dense."""
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    lap[0, 0] = lap[-1, -1] = 3.0
    return lap


def uniform_state(grid, rho=0.5, vel=0.0):
    cells = grid.shape
    rho0 = np.full(cells, rho)
    mom0 = np.zeros((grid.dim,) + cells)
    mom0[0] = rho * vel
    return make_state(grid, rho0, mom0)


class TestSolverConfig:
    def test_defaults_build(self):
        cfg = SolverConfig(t_end=1.0)
        assert cfg.cfl == 0.4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_end=-1.0),
            dict(t_end=1.0, cfl=0.0),
            dict(t_end=1.0, cfl=1.5),
            dict(t_end=1.0, barrier_tol=0.0),
            dict(t_end=1.0, barrier_tol=0.5),
            dict(t_end=1.0, max_substeps=0),
            dict(t_end=1.0, snapshot_every=0.0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ParameterError):
            SolverConfig(**kwargs)


class TestSoundSpeedAndDt:
    def test_sound_speed_exact_value(self):
        # gamma rho^(gamma-1) + dpi = 2*0.5 + 2*0.5 = 2 for the unit
        # barotropic congestion law at ratio 0.5
        grid = Grid((1.0,), (8,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = uniform_state(grid, rho=0.5)
        c = effective_sound_speed(state, BarotropicLaw(1.0, 2.0), FLUID, barrier)
        np.testing.assert_allclose(c, np.sqrt(2.0), rtol=1e-14)

    def test_sound_speed_rejects_saturated_ratio(self):
        grid = Grid((1.0,), (8,))
        barrier = build_barrier(ConstantBarrier(0.5), grid)
        state = uniform_state(grid, rho=0.5)
        with pytest.raises(BarrierViolation):
            effective_sound_speed(state, make_singular(1e-3, 2.0, 4.0), FLUID, barrier)

    def test_stable_dt_matches_hand_formula(self):
        # in 1D the viscous stress is implicit: the bound is advective and
        # acoustic only, and the viscous rate enters the first step alone
        grid = Grid((1.0,), (50,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        rho, vel = 0.5, 0.3
        state = uniform_state(grid, rho=rho, vel=vel)
        law = BarotropicLaw(1.0, 2.0)
        c = np.sqrt(FLUID.gamma * rho ** (FLUID.gamma - 1.0) + 2.0 * rho)
        dx = grid.dx[0]
        wave = (abs(vel) + c) / dx
        visc = 2.0 * (2.0 * FLUID.mu + FLUID.lam) / dx**2 / rho
        assert stable_dt(state, law, FLUID, barrier) == pytest.approx(0.4 / wave, rel=1e-12)
        assert first_dt(state, law, FLUID, barrier) == pytest.approx(
            0.4 / (wave + visc), rel=1e-12
        )

    def test_stable_dt_matches_hand_formula_2d(self):
        # the 2D viscous stress stays explicit, and its rate stays in the bound
        grid = Grid((1.0, 2.0), (20, 25))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        rho, vel = 0.5, 0.3
        state = uniform_state(grid, rho=rho, vel=vel)
        law = BarotropicLaw(1.0, 2.0)
        c = np.sqrt(FLUID.gamma * rho ** (FLUID.gamma - 1.0) + 2.0 * rho)
        dx, dy = grid.dx
        rate = (
            (abs(vel) + c) / dx + c / dy
            + 2.0 * (2.0 * FLUID.mu + FLUID.lam) * (1.0 / dx**2 + 1.0 / dy**2) / rho
        )
        dt = stable_dt(state, law, FLUID, barrier)
        assert dt == pytest.approx(0.4 / rate, rel=1e-12)
        assert first_dt(state, law, FLUID, barrier) == dt

    def test_stable_dt_scales_with_cfl(self):
        grid = Grid((1.0,), (50,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = uniform_state(grid, rho=0.5, vel=0.3)
        base = stable_dt(state, SOFT_LAW, FLUID, barrier, cfl=0.4)
        half = stable_dt(state, SOFT_LAW, FLUID, barrier, cfl=0.2)
        assert half == pytest.approx(0.5 * base, rel=1e-13)

    def test_vacuum_cells_do_not_zero_the_step(self):
        grid = Grid((1.0,), (50,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        rho0 = np.zeros(50)
        rho0[10:20] = 0.5
        state = make_state(grid, rho0, np.zeros((1, 50)))
        dt = stable_dt(state, SOFT_LAW, FLUID, barrier)
        assert np.isfinite(dt) and dt > 0.0

    def test_degenerate_rate_raises(self):
        grid = Grid((1.0,), (8,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = uniform_state(grid, rho=0.5)
        state.mom[0, 3] = np.nan
        with pytest.raises(DegenerateState):
            stable_dt(state, SOFT_LAW, FLUID, barrier)


class TestStep:
    def test_uniform_rest_is_fixed_point(self):
        grid = Grid((1.0,), (32,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = uniform_state(grid, rho=0.5)
        cfg = SolverConfig(t_end=1.0)
        law = make_singular(1e-3, 2.0, 4.0)
        new = step(state, 1e-3, law, FLUID, barrier, cfg)
        np.testing.assert_array_equal(new.rho_interior, state.rho_interior)
        np.testing.assert_array_equal(new.mom_interior, state.mom_interior)
        assert new.t == pytest.approx(1e-3)

    def test_uniform_rest_fixed_point_2d(self):
        grid = Grid((1.0, 1.0), (12, 12))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        rho0 = np.full((12, 12), 0.4)
        state = make_state(grid, rho0, np.zeros((2, 12, 12)))
        cfg = SolverConfig(t_end=1.0)
        new = step(state, 1e-3, make_singular(1e-3, 2.0, 4.0), FLUID, barrier, cfg)
        np.testing.assert_array_equal(new.rho_interior, rho0)
        assert np.all(new.mom_interior == 0.0)

    def test_mass_is_conserved_exactly(self):
        grid = Grid((1.0,), (64,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = 0.4 + 0.2 * np.sin(2 * np.pi * x)
        mom0 = (0.1 * np.cos(2 * np.pi * x) * rho0)[None, :]
        state = make_state(grid, rho0, mom0)
        cfg = SolverConfig(t_end=1.0)
        law = make_singular(1e-3, 2.0, 4.0)
        new = step(state, 5e-4, law, FLUID, barrier, cfg)
        assert np.sum(new.rho_interior) == pytest.approx(np.sum(rho0), rel=1e-14)

    def test_mass_is_conserved_exactly_2d(self):
        grid = Grid((1.0, 1.0), (24, 24))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        xs, ys = grid.meshes()
        rho0 = 0.4 + 0.15 * np.sin(2 * np.pi * xs) * np.cos(np.pi * ys)
        mom0 = np.stack([0.1 * rho0, -0.05 * rho0])
        state = make_state(grid, rho0, mom0)
        cfg = SolverConfig(t_end=1.0)
        new = step(state, 2e-4, make_singular(1e-3, 2.0, 4.0), FLUID, barrier, cfg)
        assert np.sum(new.rho_interior) == pytest.approx(np.sum(rho0), rel=1e-13)

    def test_pressure_pushes_away_from_bump(self):
        grid = Grid((1.0,), (64,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = 0.4 + 0.3 * np.exp(-((x - 0.5) / 0.1) ** 2)
        state = make_state(grid, rho0, np.zeros((1, 64)))
        cfg = SolverConfig(t_end=1.0)
        law = make_singular(1e-3, 2.0, 4.0)
        new = step(state, 1e-4, law, FLUID, barrier, cfg)
        mom = new.mom_interior[0]
        # left of the bump momentum points left, right of it points right
        assert np.all(mom[5:27] < 0.0)
        assert np.all(mom[37:59] > 0.0)

    def test_pressure_pushes_away_from_bump_2d(self):
        grid = Grid((1.0, 1.0), (24, 24))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        xs, ys = grid.meshes()
        rho0 = 0.4 + 0.3 * np.exp(-((xs - 0.5) ** 2 + (ys - 0.5) ** 2) / 0.15**2)
        state = make_state(grid, rho0, np.zeros((2, 24, 24)))
        cfg = SolverConfig(t_end=1.0)
        new = step(state, 1e-4, make_singular(1e-3, 2.0, 4.0), FLUID, barrier, cfg)
        mx, my = new.mom_interior
        # on the bump's flanks the momentum points away from its center
        band = slice(8, 16)
        assert np.all(mx[4:11, band] < 0.0) and np.all(mx[13:20, band] > 0.0)
        assert np.all(my[band, 4:11] < 0.0) and np.all(my[band, 13:20] > 0.0)
        # the bump is symmetric under swapping x and y, and so is the push
        np.testing.assert_allclose(mx, my.T, rtol=1e-12, atol=1e-15)

    def test_potential_force_converges_to_the_direct_form(self):
        # at rest the 2D momentum after one step is dt * -rho grad(enthalpy);
        # against a falling barrier it must approach, at second order, the
        # direct force grad(gas pressure) + barrier * grad(congestion pressure)
        spec = TanhStepBarrier(1.0, 0.55, 0.5, 0.08)
        law = make_singular(5e-2, 3.0, 3.0)
        dt = 1e-6
        errors = []
        for n in (32, 64, 128):
            grid = Grid((1.0, 1.0), (n, 4))
            xs, _ = grid.meshes()
            rho0 = 0.3 + 0.1 * np.cos(2 * np.pi * xs)
            state = make_state(grid, rho0, np.zeros((2, n, 4)))
            new = step(state, dt, law, FLUID, build_barrier(spec, grid), SolverConfig(t_end=1.0))
            force = new.mom_interior / dt
            bar, (dbar, _) = profile_values(spec, (xs, xs))
            drho = -0.2 * np.pi * np.sin(2 * np.pi * xs)
            r = rho0 / bar
            g = FLUID.gamma
            direct = -(g * rho0 ** (g - 1.0) * drho + law.pressure_deriv(r) * (drho - r * dbar))
            keep = (xs > 0.1) & (xs < 0.9)
            errors.append(np.abs(force[0] - direct)[keep].max() / np.abs(direct[keep]).max())
            np.testing.assert_array_equal(force[1], 0.0)
        assert errors[0] / errors[1] > 3.0 and errors[1] / errors[2] > 3.0
        assert errors[2] < 2e-3

    def test_falling_barrier_pushes_toward_roomy_side(self):
        # uniform density against a barrier that drops along x: congestion
        # is felt on the right, so the force points left
        grid = Grid((1.0,), (64,))
        barrier = build_barrier(TanhStepBarrier(1.0, 0.55, 0.5, 0.08), grid)
        state = uniform_state(grid, rho=0.45)
        cfg = SolverConfig(t_end=1.0)
        law = make_singular(5e-2, 3.0, 3.0)
        new = step(state, 1e-4, law, FLUID, barrier, cfg)
        center = new.mom_interior[0][20:44]
        assert np.all(center <= 0.0)
        assert np.min(center) < 0.0

    def test_sources_enter_at_first_order(self):
        # the sources enter the explicit update, ahead of the implicit
        # viscous solve: the density takes dt * 0.7, and the velocity solves
        # (diag(rho) + s*T) u = dt * -0.2, whose no-slip wall rows bend it
        grid = Grid((1.0,), (32,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = uniform_state(grid, rho=0.5)
        cfg = SolverConfig(t_end=1.0)
        s_rho = np.full(32, 0.7)
        s_mom = np.full((1, 32), -0.2)
        seen = []

        def sources(t):
            seen.append(t)
            return s_rho, s_mom

        dt = 1e-3
        new = step(state, dt, SOFT_LAW, FLUID, barrier, cfg, sources=sources)
        assert seen == [0.0]
        rho = 0.5 + dt * 0.7
        np.testing.assert_allclose(new.rho_interior, rho, rtol=1e-14)
        s = dt * (2.0 * FLUID.mu + FLUID.lam) / grid.dx[0] ** 2
        u = np.linalg.solve(rho * np.eye(32) + s * wall_laplacian(32), np.full(32, dt * -0.2))
        np.testing.assert_allclose(new.mom_interior[0], rho * u, rtol=1e-12)
        assert np.ptp(u) > 1e-3 * abs(u).max()  # the walls hold it back

    def test_viscous_solve_matches_a_dense_solve(self):
        # a random stacked state: three members, each with its own dt, a
        # near-vacuum cell and a density spread of three decades
        rng = np.random.default_rng(7)
        n = 40
        rho = 10.0 ** rng.uniform(-3.0, 0.0, (3, n))
        rho[1, 5] = 0.0
        mom = rng.normal(size=(3, n))
        s = np.array([1e-3, 0.7, 40.0])[:, None]
        u = _viscous_velocity(rho, mom, s)
        for m in range(3):
            dense = np.linalg.solve(np.diag(rho[m]) + s[m, 0] * wall_laplacian(n), mom[m])
            np.testing.assert_allclose(u[m], dense, rtol=0.0, atol=1e-12 * abs(dense).max())

    def test_implicit_viscosity_dissipates_at_long_steps(self):
        # only the viscous stress acts; at 100 times the explicit viscous
        # step backward Euler still takes kinetic energy out at every step,
        # while forward Euler at that step blows it up
        grid = Grid((1.0,), (64,))
        x = grid.centers(0)
        rho0 = 0.5 + 0.4 * np.sin(3 * np.pi * x)
        u0 = np.random.default_rng(3).normal(size=64)  # every wavelength
        state = make_state(grid, rho0, (rho0 * u0)[None, :])
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        nu = 2.0 * FLUID.mu + FLUID.lam
        h = grid.dx[0]
        dt = 100.0 * h**2 * rho0.min() / (2.0 * nu)
        zero = np.zeros(64)
        inc = _Increments(zero, zero[None], zero, nu / h**2)

        def kinetic(mom, rho):
            return 0.5 * np.sum(mom[0, 1:-1] ** 2 / rho[1:-1])

        rho, mom = state.rho, state.mom
        energy = [kinetic(mom, rho)]
        for _ in range(30):
            rho, mom, _ = _apply(rho, mom, inc, dt, barrier)
            energy.append(kinetic(mom, rho))
        assert np.array_equal(rho, state.rho)
        assert all(b < a for a, b in zip(energy, energy[1:]))
        assert energy[-1] < 1e-3 * energy[0]

        u = state.mom[0] / state.rho
        lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        explicit = state.mom[0, 1:-1] + dt * nu * lap
        assert 0.5 * np.sum(explicit**2 / rho0) > 100.0 * energy[0]

    def test_shifted_mass_flux_conserves_mass_and_flattens_a_bump(self):
        # at rest only the shift moves mass: down the enthalpy gradient, so
        # the bump's peak drops, with walls that let nothing out
        grid = Grid((1.0,), (64,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = 0.4 + 0.3 * np.exp(-((x - 0.5) / 0.1) ** 2)
        state = make_state(grid, rho0, np.zeros((1, 64)))
        law = make_singular(1e-3, 2.0, 4.0)
        new = step(state, 1e-3, law, FLUID, barrier, SolverConfig(t_end=1.0))
        assert new.rho_interior.max() < rho0.max()
        assert np.sum(new.rho_interior) == pytest.approx(np.sum(rho0), rel=1e-15)

    def test_negative_density_raises_barrier_violation(self):
        grid = Grid((1.0,), (32,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = np.full(32, 0.1)
        mom0 = (0.1 * np.sign(x - 0.5) * 5.0)[None, :]  # strong rarefaction
        state = make_state(grid, rho0, mom0)
        cfg = SolverConfig(t_end=1.0)
        with pytest.raises(BarrierViolation):
            step(state, 0.1, SOFT_LAW, FLUID, barrier, cfg)

    def test_ratio_cap_raises_barrier_violation(self):
        grid = Grid((1.0,), (50,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = np.full(50, 0.89)
        mom0 = (rho0 * np.where(x < 0.5, 1.0, -1.0))[None, :]  # crash at center
        state = make_state(grid, rho0, mom0)
        cfg = SolverConfig(t_end=1.0, barrier_tol=0.09)
        with pytest.raises(BarrierViolation):
            step(state, 3e-3, SOFT_LAW, FLUID, barrier, cfg)


class TestAdvance:
    def test_zero_horizon_emits_single_record(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = uniform_state(grid, rho=0.5)
        cfg = SolverConfig(t_end=0.0)
        records = []
        final = advance(state, 0.0, SOFT_LAW, FLUID, barrier, cfg,
                        sink=lambda s, r: records.append(r))
        assert len(records) == 1
        assert final.t == 0.0
        assert records[0].mass == pytest.approx(0.5)

    def test_reaches_target_and_keeps_cadence(self):
        grid = Grid((1.0,), (40,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = 0.4 + 0.1 * np.sin(2 * np.pi * x)
        state = make_state(grid, rho0, np.zeros((1, 40)))
        cfg = SolverConfig(t_end=0.1, snapshot_every=0.02)
        records = []
        final = advance(state, 0.1, make_singular(1e-3, 2.0, 4.0), FLUID, barrier, cfg,
                        sink=lambda s, r: records.append(r))
        assert final.t == pytest.approx(0.1, abs=1e-12)
        times = [r.t for r in records]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.1, abs=1e-12)
        assert len(times) >= 6
        assert all(b > a for a, b in zip(times, times[1:]))
        # cadence: consecutive emitted times may not drift apart by more
        # than one tick plus a step
        gaps = np.diff(times)
        assert np.max(gaps) < 2.5 * cfg.snapshot_every

    def test_next_tick_is_the_first_lap_past_the_time(self):
        assert next_tick(0.0, 0.0, 0.01) == 0.01
        assert next_tick(0.015, 0.0, 0.01) == 0.02
        assert next_tick(0.02, 0.0, 0.01) == 0.03
        assert next_tick(0.30, 0.25, 0.02) == 0.25 + 3 * 0.02
        # a time short of a tick by round-off counts as on it
        assert next_tick(0.03 - 1e-14, 0.0, 0.01) == 0.04

    @pytest.mark.parametrize("every", [1e-20, 1e-320])
    def test_unresolved_next_tick_is_the_time_itself(self, every):
        # 1e-20 is past 2**53 laps; t / 1e-320 overflows to infinity
        assert next_tick(0.003, 0.0, every) == 0.003

    def test_mass_conserved_over_many_steps(self):
        grid = Grid((1.0,), (40,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = 0.4 + 0.1 * np.sin(2 * np.pi * x)
        mom0 = (0.2 * rho0)[None, :]
        state = make_state(grid, rho0, mom0)
        cfg = SolverConfig(t_end=0.2)
        records = []
        advance(state, 0.2, make_singular(1e-3, 2.0, 4.0), FLUID, barrier, cfg,
                sink=lambda s, r: records.append(r))
        masses = [r.mass for r in records]
        np.testing.assert_allclose(masses, masses[0], rtol=1e-13)

    def test_1d_steps_grow_by_at_most_the_cap(self):
        # solo and stacked: the first step is the fully explicit one, and
        # every accepted step is at most 1.2 times the one before it
        grid = Grid((1.0,), (60,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = 0.3 + 0.5 * np.exp(-((x - 0.3) / 0.08) ** 2)
        state = make_state(grid, rho0, (0.5 * rho0)[None, :])
        laws = [make_singular(1e-2, 2.0, 4.0), make_singular(1e-4, 2.0, 4.0)]
        cfg = SolverConfig(t_end=0.3)
        trails = [[], []]
        hooks = [lambda prev, new, dt, trail=trail: trail.append(dt) for trail in trails]
        advance([state, state.copy()], 0.3, laws, FLUID, barrier, cfg, step_hook=hooks)
        solo = []
        advance(state, 0.3, laws[0], FLUID, barrier, cfg,
                step_hook=lambda prev, new, dt: solo.append(dt))
        assert solo == trails[0]
        for law, dts in zip(laws, trails):
            assert dts[0] == first_dt(state, law, FLUID, barrier)
            ratios = np.array(dts[1:]) / np.array(dts[:-1])
            assert ratios.max() <= 1.2
            assert np.isclose(ratios, 1.2, rtol=1e-12).any()  # the cap binds
            assert len(dts) < 0.3 / dts[0]

    def test_rejects_backward_target(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = uniform_state(grid, rho=0.5)
        state.t = 1.0
        cfg = SolverConfig(t_end=0.5)
        with pytest.raises(ParameterError):
            advance(state, 0.5, SOFT_LAW, FLUID, barrier, cfg)

    def crash_state(self, grid):
        x = grid.centers(0)
        rho0 = np.full(grid.shape, 0.89)
        mom0 = (rho0 * np.where(x < 0.5, 1.0, -1.0))[None, :]
        return make_state(grid, rho0, mom0)

    def test_halving_rescues_oversized_first_step(self, monkeypatch):
        # inflate only the first stable_dt by 200x: the upwind update then
        # runs at a mass Courant number near 3 and drives the steep profile
        # negative, so the retry loop must halve its way back; afterwards
        # the ordinary CFL step carries the run to the target
        grid = Grid((1.0,), (50,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = np.where(x < 0.5, 0.2, 0.6)
        mom0 = (0.4 * rho0)[None, :]
        state = make_state(grid, rho0, mom0)
        law = make_singular(5e-2, 3.0, 3.0)

        import jamflow.solver as solver_mod

        real = solver_mod.stable_dt
        calls = {"n": 0, "first": None}

        def inflated(*args, **kwargs):
            calls["n"] += 1
            dt = real(*args, **kwargs)
            if calls["n"] == 1:
                calls["first"] = 200.0 * dt
                return calls["first"]
            return dt

        monkeypatch.setattr("jamflow.solver.stable_dt", inflated)
        # the growth cap's seed would otherwise hold the first step down
        monkeypatch.setattr("jamflow.solver.first_dt", lambda *args: math.inf)
        cfg = SolverConfig(t_end=0.2, max_substeps=40)
        dts = []
        stats = StepStats()
        final = advance(state, 0.2, law, FLUID, barrier, cfg,
                        step_hook=lambda prev, new, dt: dts.append(dt), stats=stats)
        assert final.t == pytest.approx(0.2, abs=1e-12)
        assert sum(dts) == pytest.approx(0.2, abs=1e-12)
        assert dts[0] < 0.9 * calls["first"]  # halving actually happened
        assert stats.halvings > 0 and stats.dts == dts
        assert np.all(final.rho_interior >= 0.0)

    def test_step_failure_when_retries_exhausted(self):
        grid = Grid((1.0,), (50,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        state = self.crash_state(grid)
        cfg = SolverConfig(t_end=2e-3, barrier_tol=0.09, max_substeps=1, cfl=1.0)
        with pytest.raises(StepFailure):
            advance(state, 2e-3, SOFT_LAW, FLUID, barrier, cfg)

    def test_saturated_member_fails_alone_in_a_stack(self):
        # a member whose ratio reaches 1 cannot be sized; stacked with a
        # sound member it ends with its solo error while the other runs on
        grid = Grid((1.0,), (40,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        good = make_state(grid, 0.4 + 0.1 * np.sin(2 * np.pi * x), np.zeros((1, 40)))
        rho0 = np.full(40, 0.5)
        rho0[17] = 1.0
        bad = make_state(grid, rho0, np.zeros((1, 40)))
        law = make_singular(1e-3, 2.0, 4.0)
        cfg = SolverConfig(t_end=0.02)
        with pytest.raises(BarrierViolation) as solo_error:
            advance(bad, 0.02, law, FLUID, barrier, cfg)
        solo = advance(good, 0.02, law, FLUID, barrier, cfg)

        final, error = advance([good, bad], 0.02, [law, law], FLUID, barrier, cfg)
        assert isinstance(error, BarrierViolation)
        assert str(error) == str(solo_error.value)
        assert final.t == solo.t == pytest.approx(0.02)
        assert final.rho.tobytes() == solo.rho.tobytes()
        assert final.mom.tobytes() == solo.mom.tobytes()

    def test_halving_stops_at_the_step_floor_for_that_member_alone(self):
        # a state already past the barrier tolerance fails at every step
        # size; halving ends once dt drops below 1e-14 * t_target, long
        # before a large retry budget is spent, and a stacked sound member
        # runs on exactly as alone
        grid = Grid((1.0,), (40,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        good = make_state(grid, 0.4 + 0.1 * np.sin(2 * np.pi * x), np.zeros((1, 40)))
        over = uniform_state(grid, rho=0.95)
        cfg = SolverConfig(t_end=0.02, barrier_tol=0.09, max_substeps=200)
        with pytest.raises(DegenerateState, match="underflowed after") as solo_error:
            advance(over, 0.02, SOFT_LAW, FLUID, barrier, cfg)
        solo = advance(good, 0.02, SOFT_LAW, FLUID, barrier, cfg)

        final, error = advance([good, over], 0.02, [SOFT_LAW] * 2, FLUID, barrier, cfg)
        assert isinstance(error, DegenerateState)
        assert str(error) == str(solo_error.value)
        assert final.t == solo.t == pytest.approx(0.02)
        assert final.rho.tobytes() == solo.rho.tobytes()
        assert final.mom.tobytes() == solo.mom.tobytes()


class TestRatioTransport:
    def test_reduces_to_upwind_for_constant_barrier(self):
        grid = Grid((1.0,), (6,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        ratio = np.array([0.1, 0.3, 0.5, 0.4, 0.2, 0.1])
        vel = np.full((1, 8), 0.25)
        # hand-rolled: ghosts mirror, face velocity 0.25 everywhere except
        # the walls (odd mirror there), upwind picks the left value
        dx = grid.dx[0]
        dt = 1e-3
        ghosted = np.concatenate([[ratio[0]], ratio, [ratio[-1]]])
        fv = 0.5 * (vel[0][:-1] + vel[0][1:])
        upw = np.where(fv > 0.0, ghosted[:-1], ghosted[1:])
        flux = fv * upw
        expected = ratio - dt * (flux[1:] - flux[:-1]) / dx

        out = step_ratio(ratio, vel, dt, barrier)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_barrier_gradient_source_term(self):
        grid = Grid((1.0,), (64,))
        barrier = build_barrier(TanhStepBarrier(1.0, 0.6, 0.5, 0.1), grid)
        r0 = 0.5
        u0 = 0.2
        ratio = np.full(64, r0)
        vel = np.full((1, 66), u0)
        dt = 1e-4
        out = step_ratio(ratio, vel, dt, barrier)
        # uniform ratio and velocity: pure source -r u d(log barrier)/dx
        expected = r0 - dt * r0 * u0 * barrier.log_grad[0]
        np.testing.assert_allclose(out[2:-2], expected[2:-2], rtol=1e-10)

    def test_tracked_ratio_stays_close_to_density_ratio(self):
        grid = Grid((1.0,), (100,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        x = grid.centers(0)
        rho0 = 0.4 + 0.1 * np.sin(2 * np.pi * x)
        mom0 = (0.2 * rho0)[None, :]
        state = make_state(grid, rho0, mom0)
        cfg = SolverConfig(t_end=0.05)
        final, tracked = track_ratio_transport(
            state, 0.05, make_singular(1e-3, 2.0, 4.0), FLUID, barrier, cfg
        )
        actual = final.rho_interior / barrier.interior
        gap = np.mean(np.abs(tracked - actual))
        assert np.all(np.isfinite(tracked))
        assert gap < 0.05
