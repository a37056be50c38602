"""Grids, ghost cells, barrier fields, and initial-data validation."""

import numpy as np
import pytest

from jamflow.domain import (
    ConstantBarrier,
    GaussianBumpBarrier,
    Grid,
    InitialData,
    PipeBarrier,
    TanhStepBarrier,
    build_barrier,
    fill_scalar_ghosts,
    fill_velocity_ghosts,
    interior_view,
    make_state,
    profile_values,
    validate_initial,
)
from jamflow.errors import ParameterError, SpecError


class TestGrid:
    def test_basic_geometry_1d(self):
        g = Grid((2.0,), (8,))
        assert g.dim == 1
        assert g.dx == (0.25,)
        assert g.shape == (8,)
        assert g.ghosted_shape == (10,)
        assert g.cell_volume == pytest.approx(0.25)
        x = g.centers(0)
        assert x[0] == pytest.approx(0.125)
        assert x[-1] == pytest.approx(2.0 - 0.125)
        assert len(g.ghosted_centers(0)) == 10

    def test_basic_geometry_2d(self):
        g = Grid((1.0, 2.0), (4, 8))
        assert g.dim == 2
        assert g.dx == (0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.0625)
        xs, ys = g.meshes()
        assert np.broadcast(xs, ys).shape == (4, 8)

    @pytest.mark.parametrize(
        "extents,cells",
        [
            ((1.0,), (2,)),
            ((0.0,), (8,)),
            ((-1.0,), (8,)),
            ((1.0, 1.0, 1.0), (4, 4, 4)),
            ((1.0, 1.0), (4,)),
        ],
    )
    def test_rejects_bad_geometry(self, extents, cells):
        with pytest.raises(ParameterError):
            Grid(extents, cells)


class TestGhostCells:
    def test_scalar_mirror_1d(self):
        arr = np.empty(6)
        arr[1:-1] = [1.0, 2.0, 3.0, 4.0]
        fill_scalar_ghosts(arr, 1)
        assert arr[0] == 1.0 and arr[-1] == 4.0

    def test_velocity_odd_mirror_gives_zero_wall_face(self):
        arr = np.empty(6)
        arr[1:-1] = [1.0, 2.0, 3.0, 4.0]
        fill_velocity_ghosts(arr, 1)
        assert arr[0] == -1.0 and arr[-1] == -4.0
        assert 0.5 * (arr[0] + arr[1]) == 0.0

    def test_fill_is_idempotent(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(6, 7))
        fill_scalar_ghosts(arr, 2)
        once = arr.copy()
        fill_scalar_ghosts(arr, 2)
        np.testing.assert_array_equal(arr, once)

    def test_2d_corners_double_reflect(self):
        arr = np.zeros((5, 5))
        arr[1:-1, 1:-1] = np.arange(9).reshape(3, 3) + 1.0
        fill_scalar_ghosts(arr, 2)
        assert arr[0, 0] == arr[1, 1]
        assert arr[-1, -1] == arr[-2, -2]
        vel = np.zeros((5, 5))
        vel[1:-1, 1:-1] = np.arange(9).reshape(3, 3) + 1.0
        fill_velocity_ghosts(vel, 2)
        # odd mirror twice: corner picks up both sign flips
        assert vel[0, 0] == vel[1, 1]
        assert vel[0, 1] == -vel[1, 1]

    def test_interior_view_round_trip(self):
        arr = np.zeros((2, 6, 7))
        interior_view(arr, 2)[...] = 5.0
        assert np.all(arr[:, 1:-1, 1:-1] == 5.0)
        assert np.all(arr[:, 0, :] == 0.0)


class TestBarrierProfiles:
    def test_constant(self):
        g = Grid((1.0,), (16,))
        bar = build_barrier(ConstantBarrier(0.8), g)
        assert bar.inf_value == bar.sup_value == pytest.approx(0.8)
        np.testing.assert_array_equal(bar.grad, np.zeros((1, 16)))

    def test_tanh_step_endpoints(self):
        g = Grid((1.0,), (256,))
        spec = TanhStepBarrier(1.0, 0.6, 0.5, 0.05)
        bar = build_barrier(spec, g)
        assert bar.interior[0] == pytest.approx(1.0, abs=1e-4)
        assert bar.interior[-1] == pytest.approx(0.6, abs=1e-4)
        assert bar.inf_value > 0.59

    @pytest.mark.parametrize(
        "spec",
        [
            TanhStepBarrier(1.0, 0.6, 0.5, 0.05),
            GaussianBumpBarrier(1.0, -0.5, (0.4,), 0.15),
        ],
        ids=["tanh", "gaussian"],
    )
    def test_gradient_convergence_order(self, spec):
        # analytic gradient vs centered differences of the sampled values:
        # the mismatch must shrink at second order in dx once the profile
        # is resolved
        errs = []
        for n in (128, 256):
            g = Grid((1.0,), (n,))
            vals, grads = profile_values(spec, g.meshes())
            fd = np.gradient(vals, g.dx[0], edge_order=2)
            errs.append(np.max(np.abs(fd - grads[0])))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_gaussian_bump_2d_gradient_order(self):
        spec = GaussianBumpBarrier(1.0, -0.6, (0.7, 0.5), 0.12)
        errs = []
        for n in (64, 128):
            g = Grid((1.0, 1.0), (n, n))
            vals, grads = profile_values(spec, g.meshes())
            fx = np.gradient(vals, g.dx[0], axis=0, edge_order=2)
            fy = np.gradient(vals, g.dx[1], axis=1, edge_order=2)
            errs.append(max(np.max(np.abs(fx - grads[0])), np.max(np.abs(fy - grads[1]))))
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_pipe_profile_gradient_away_from_edges(self):
        spec = PipeBarrier(1.0, 0.7, 0.5, 0.2)
        g = Grid((1.0,), (512,))
        vals, grads = profile_values(spec, g.meshes())
        x = g.centers(0)
        fd = np.gradient(vals, g.dx[0], edge_order=2)
        # the profile is only C1 at the throat edges; keep two cells clear
        mask = np.abs(np.abs(x - spec.center) - spec.halfwidth) > 2.5 * g.dx[0]
        assert np.max(np.abs((fd - grads[0])[mask])) < 1e-3

    def test_pipe_throat_value(self):
        g = Grid((1.0,), (255,))
        spec = PipeBarrier(1.0, 0.7, 0.5, 0.2)
        bar = build_barrier(spec, g)
        assert bar.inf_value == pytest.approx(0.7, abs=1e-4)
        assert bar.sup_value == pytest.approx(1.0)

    def test_rejects_nonpositive_barrier(self):
        g = Grid((1.0,), (32,))
        with pytest.raises(SpecError):
            build_barrier(TanhStepBarrier(1.0, -0.1, 0.5, 0.05), g)
        with pytest.raises(SpecError):
            build_barrier(GaussianBumpBarrier(1.0, -1.5, (0.5,), 0.2), g)

    def test_rejects_unknown_spec(self):
        g = Grid((1.0,), (32,))
        with pytest.raises(SpecError):
            build_barrier(object(), g)

    def test_ghosts_mirror_interior(self):
        g = Grid((1.0,), (32,))
        bar = build_barrier(TanhStepBarrier(1.0, 0.6, 0.5, 0.05), g)
        assert bar.values[0] == bar.values[1]
        assert bar.values[-1] == bar.values[-2]


class TestFlowState:
    def test_make_state_shapes_and_bc(self):
        g = Grid((1.0,), (16,))
        rho0 = np.full(16, 0.5)
        mom0 = np.full((1, 16), 0.2)
        state = make_state(g, rho0, mom0)
        assert state.rho.shape == (18,)
        assert state.mom.shape == (1, 18)
        np.testing.assert_array_equal(state.rho_interior, rho0)
        # odd mirror on momentum: zero mean across the wall face
        assert state.mom[0, 0] == -state.mom[0, 1]
        assert state.rho[0] == state.rho[1]

    def test_velocity_floor_zeroes_vacuum(self):
        g = Grid((1.0,), (8,))
        rho0 = np.array([0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0])
        mom0 = np.zeros((1, 8))
        mom0[0, 2:6] = 0.25
        state = make_state(g, rho0, mom0)
        u = state.velocity(floor=1e-12)
        assert np.all(u[0][1:3] == 0.0)
        np.testing.assert_allclose(u[0][3:7], 0.5)

    def test_copy_is_independent(self):
        g = Grid((1.0,), (8,))
        state = make_state(g, np.full(8, 0.5), np.zeros((1, 8)))
        other = state.copy()
        other.rho[:] = 9.0
        assert np.all(state.rho_interior == 0.5)


class TestValidateInitial:
    def setup_method(self):
        self.grid = Grid((1.0,), (16,))
        self.barrier = build_barrier(ConstantBarrier(1.0), self.grid)

    def report_for(self, rho, mom=None):
        mom = np.zeros((1, rho.size)) if mom is None else mom
        return validate_initial(InitialData(rho, mom), self.barrier)

    def test_admissible(self):
        rep = self.report_for(np.full(16, 0.5))
        assert rep.ok
        assert rep.codes() == set()
        assert "admissible" in rep.summary()

    def test_nonfinite_density(self):
        rho = np.full(16, 0.5)
        rho[3] = np.nan
        rep = self.report_for(rho)
        assert not rep.ok and "nonfinite_density" in rep.codes()

    def test_nonfinite_momentum(self):
        mom = np.zeros((1, 16))
        mom[0, 5] = np.inf
        rep = self.report_for(np.full(16, 0.5), mom)
        assert "nonfinite_momentum" in rep.codes()

    def test_negative_density(self):
        rho = np.full(16, 0.5)
        rho[0] = -0.1
        rep = self.report_for(rho)
        assert "negative_density" in rep.codes()

    def test_density_at_barrier(self):
        rho = np.full(16, 0.5)
        rho[7] = 1.0
        rep = self.report_for(rho)
        assert "density_at_barrier" in rep.codes()

    def test_momentum_in_vacuum(self):
        rho = np.full(16, 0.5)
        rho[2] = 0.0
        mom = np.zeros((1, 16))
        mom[0, 2] = 0.3
        rep = self.report_for(rho, mom)
        assert "momentum_in_vacuum" in rep.codes()

    def test_mean_density_must_undercut_barrier_minimum(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(TanhStepBarrier(1.0, 0.55, 0.5, 0.05), grid)
        rho = np.full(16, 0.6)
        rho[:8] = 0.7  # mean 0.65 > barrier minimum 0.55, pointwise legal
        rep = validate_initial(InitialData(rho, np.zeros((1, 16))), barrier)
        assert "mean_density_exceeds_barrier_min" in rep.codes()
        assert rep.mean_density > rep.barrier_min

    def test_summary_lists_violations(self):
        rho = np.full(16, 0.5)
        rho[0] = -1.0
        rep = self.report_for(rho)
        text = rep.summary()
        assert "negative_density" in text and "violation" in text
