"""Bundled scenarios and manufactured solutions.

The manufactured-source checks rebuild every term of the balance laws
inside the test with plain finite differences, and the barrier from a
formula written in the test, so the closed-form forcing is validated
against an implementation that shares no code with it.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from jamflow.config import parse_config
from jamflow.domain import (
    ConstantBarrier,
    Grid,
    TanhStepBarrier,
    build_barrier,
    validate_initial,
)
from jamflow.errors import (
    BarrierViolation,
    ParameterError,
    SpecError,
    ValidationError,
)
from jamflow.pressure import FluidParams, SingularLaw, SteepnessWarning
from jamflow.runner import build_problem
from jamflow.scenarios import (
    SCENARIO_NAMES,
    FillFraction,
    InitialSpec,
    ManufacturedSolution,
    build_initial,
    scenario_descriptions,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def quietly(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SteepnessWarning)
        return fn(*args, **kwargs)


def preset(name, cells=None):
    """The named preset's config, on ``cells`` when given."""
    grid = f"[grid]\ncells = {cells}\n" if cells else ""
    return quietly(parse_config, f"[scenario]\nname = {name}\n{grid}")


MLAW = SingularLaw(0.05, 3.0, 3.0)
MFLUID = FluidParams(mu=0.02, lam=0.0, gamma=2.0)


class TestRegistry:
    def test_known_names(self):
        assert set(SCENARIO_NAMES) == {
            "traffic_1d",
            "lane_narrowing_1d",
            "pipe_1d",
            "crowd_blob_2d",
            "manufactured_1d",
        }

    def test_unknown_scenario_lists_names(self):
        with pytest.raises(ValidationError, match="known: traffic_1d, "):
            parse_config("[scenario]\nname = warp_drive\n")

    def test_descriptions_are_informative(self):
        descs = scenario_descriptions()
        assert set(descs) == set(SCENARIO_NAMES)
        assert all(len(d) > 10 for d in descs.values())

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_initial_state_is_admissible(self, name):
        barrier, data, _, _ = build_problem(preset(name))
        report = validate_initial(data, barrier)
        assert report.ok, report.summary()

    def test_cells_override(self):
        scen = preset("traffic_1d", "64")
        assert scen.grid.cells == (64,)
        scen2 = preset("crowd_blob_2d", "32, 48")
        assert scen2.grid.cells == (32, 48)

    def test_traffic_mass_matches_analytic_oracle(self):
        # integral of base + amp * exp(-((x-c)/w)^2) over [0, 1] via erf
        scen = preset("traffic_1d")
        _, data, _, _ = build_problem(scen)
        prof = scen.initial.profile
        w, c = prof.width, prof.center[0]
        exact = prof.base + prof.amp * w * np.sqrt(np.pi) / 2.0 * (
            erf((1.0 - c) / w) + erf(c / w)
        )
        sampled = float(np.mean(data.rho0))  # unit extent: mean == integral
        assert sampled == pytest.approx(exact, rel=1e-6)

    def test_pipe_fills_a_fraction_of_its_barrier(self):
        barrier, data, _, _ = build_problem(preset("pipe_1d"))
        np.testing.assert_allclose(data.rho0 / barrier.interior, 0.8, rtol=1e-13)


class TestInitialSpecs:
    def test_fill_fraction_bounds(self):
        with pytest.raises(ParameterError):
            FillFraction(0.0)
        with pytest.raises(ParameterError):
            FillFraction(1.0)

    def test_velocity_dimension_checked(self):
        grid = Grid((1.0,), (16,))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        spec = InitialSpec(profile=ConstantBarrier(0.5), velocity=(0.1, 0.2))
        with pytest.raises(SpecError):
            build_initial(spec, grid, barrier)

    def test_momentum_is_density_times_velocity(self):
        grid = Grid((1.0, 1.0), (8, 8))
        barrier = build_barrier(ConstantBarrier(1.0), grid)
        spec = InitialSpec(profile=ConstantBarrier(0.5), velocity=(0.2, -0.1))
        data = build_initial(spec, grid, barrier)
        np.testing.assert_allclose(data.mom0[0], 0.5 * 0.2, rtol=1e-14)
        np.testing.assert_allclose(data.mom0[1], 0.5 * -0.1, rtol=1e-14)


def tanh_step(x):
    """TanhStepBarrier(1.0, 0.9, 0.5, 0.1), written out."""
    return 1.0 - 0.1 * (1.0 + np.tanh((x - 0.5) / 0.1)) / 2.0


class TestManufacturedSolution:
    def test_field_evaluation_matches_expressions(self):
        sol = ManufacturedSolution(MLAW, MFLUID, ConstantBarrier(1.0))
        t, x = 0.3, 0.25
        rho = 0.5 + 0.2 * np.sin(2 * np.pi * x) * np.cos(t)
        u = 0.1 * np.sin(2 * np.pi * x)
        assert sol.density(t, x) == pytest.approx(rho, rel=1e-14)
        assert sol.velocity(t, x) == pytest.approx(u, rel=1e-14)
        assert sol.momentum(t, x) == pytest.approx(rho * u, rel=1e-14)

    @pytest.mark.parametrize(
        "spec, bar_fn",
        [
            (ConstantBarrier(1.0), lambda x: 1.0),
            (TanhStepBarrier(1.0, 0.9, 0.5, 0.1), tanh_step),
        ],
        ids=["constant", "tanh_step"],
    )
    def test_sources_match_finite_difference_oracle(self, spec, bar_fn):
        sol = ManufacturedSolution(MLAW, MFLUID, spec)

        def rho_fn(t, x):
            return 0.5 + 0.2 * np.sin(2 * np.pi * x) * np.cos(t)

        def u_fn(t, x):
            return 0.1 * np.sin(2 * np.pi * x)

        def pi_fn(r):
            return MLAW.eps * r**3 / (1.0 - r) ** 3

        def mom_flux(t, x):
            rho = rho_fn(t, x)
            u = u_fn(t, x)
            return rho * u * u + rho**MFLUID.gamma

        h = 1e-6
        for (t, x) in [(0.3, 0.25), (0.15, 0.6), (0.0, 0.4), (0.1, 0.52)]:
            d_rho_t = (rho_fn(t + h, x) - rho_fn(t - h, x)) / (2 * h)
            d_rhou_x = (
                rho_fn(t, x + h) * u_fn(t, x + h) - rho_fn(t, x - h) * u_fn(t, x - h)
            ) / (2 * h)
            expected_mass = d_rho_t + d_rhou_x
            assert sol.mass_source(t, x) == pytest.approx(expected_mass, rel=1e-6, abs=1e-10)

            d_mom_t = (
                rho_fn(t + h, x) * u_fn(t + h, x) - rho_fn(t - h, x) * u_fn(t - h, x)
            ) / (2 * h)
            d_flux_x = (mom_flux(t, x + h) - mom_flux(t, x - h)) / (2 * h)
            d_pi_x = (
                pi_fn(rho_fn(t, x + h) / bar_fn(x + h))
                - pi_fn(rho_fn(t, x - h) / bar_fn(x - h))
            ) / (2 * h)
            d2u = (u_fn(t, x + h) - 2 * u_fn(t, x) + u_fn(t, x - h)) / h**2
            expected_mom = (
                d_mom_t
                + d_flux_x
                + bar_fn(x) * d_pi_x
                - (2 * MFLUID.mu + MFLUID.lam) * d2u
            )
            assert sol.momentum_source(t, x) == pytest.approx(expected_mom, rel=1e-5, abs=1e-9)

    def test_congestion_term_is_linear_in_stiffness(self):
        # pi is linear in eps, so src(2 eps) - 2 src(eps) + src(law=None)
        # must vanish identically
        x = np.linspace(0.1, 0.9, 17)
        t = 0.3
        law1 = SingularLaw(0.05, 3.0, 3.0)
        law2 = SingularLaw(0.10, 3.0, 3.0)
        s1 = ManufacturedSolution(law1, MFLUID, ConstantBarrier(1.0)).momentum_source(t, x)
        s2 = ManufacturedSolution(law2, MFLUID, ConstantBarrier(1.0)).momentum_source(t, x)
        s0 = ManufacturedSolution(None, MFLUID, ConstantBarrier(1.0)).momentum_source(t, x)
        np.testing.assert_allclose(s2 - 2.0 * s1 + s0, 0.0, atol=1e-12)

    def test_dropping_the_law_removes_congestion_forcing(self):
        # pick a point where the density has a genuine slope (at x = 0.25
        # the profile peaks and the congestion gradient legitimately
        # vanishes)
        x = np.array([0.4])
        s_with = ManufacturedSolution(MLAW, MFLUID, ConstantBarrier(1.0))
        s_without = ManufacturedSolution(None, MFLUID, ConstantBarrier(1.0))
        gap = s_with.momentum_source(0.3, x) - s_without.momentum_source(0.3, x)
        assert abs(gap[0]) > 1e-4  # the congestion term genuinely contributes

    def test_margin_check_passes_for_pinned_pair(self):
        sol = ManufacturedSolution(MLAW, MFLUID, ConstantBarrier(1.0))
        worst = sol.check_margin(0.2)
        assert worst == pytest.approx(0.7, abs=1e-6)

    def test_margin_check_rejects_saturating_fields(self):
        # the pinned pair peaks at density 0.7, ratio 0.875 under 0.8
        sol = ManufacturedSolution(MLAW, MFLUID, ConstantBarrier(0.8))
        with pytest.raises(BarrierViolation, match="ratio 0.875 > 0.8"):
            sol.check_margin(0.2)

    def test_initial_data_and_sources_have_grid_shapes(self):
        grid = Grid((1.0,), (48,))
        sol = ManufacturedSolution(MLAW, MFLUID, ConstantBarrier(1.0))
        data = sol.initial_data(grid)
        assert data.rho0.shape == (48,)
        assert data.mom0.shape == (1, 48)
        src = sol.sources_for(grid)
        s_rho, s_mom = src(0.1)
        assert s_rho.shape == (48,)
        assert s_mom.shape == (1, 48)

    def test_sources_do_not_depend_on_the_hash_seed(self):
        # a manufactured run's diagnostics are bit-identical in every
        # interpreter only if its sources are
        probe = (
            "import warnings\n"
            "import numpy as np\n"
            "from jamflow.domain import PipeBarrier\n"
            "from jamflow.pressure import FluidParams, SingularLaw\n"
            "from jamflow.scenarios import ManufacturedSolution\n"
            "warnings.simplefilter('ignore')\n"
            "sol = ManufacturedSolution(SingularLaw(0.05, 3.0, 3.0), "
            "FluidParams(0.02, 0.0, 2.0), PipeBarrier(1.0, 0.8, 0.5, 0.2))\n"
            "x = np.linspace(0.0, 1.0, 101)\n"
            "print((sol.mass_source(0.07, x).tobytes()"
            " + sol.momentum_source(0.07, x).tobytes()).hex())\n"
        )
        sources = []
        for seed in ("1", "3"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            proc = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                env=env, timeout=120, check=True,
            )
            sources.append(proc.stdout.splitlines()[-1])
        assert len(sources[0]) == 2 * 2 * 101 * 8
        assert sources[0] == sources[1]

    def test_scenario_wires_manufactured_initial_data(self):
        scen = preset("manufactured_1d", "32")
        _, data, _, _ = build_problem(scen)
        x = scen.grid.centers(0)
        np.testing.assert_allclose(
            data.rho0, 0.5 + 0.2 * np.sin(2 * np.pi * x), rtol=1e-12
        )
