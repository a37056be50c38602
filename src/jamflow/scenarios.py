"""Initial-data specs, the manufactured solution and the bundled presets.

The manufactured solution is one pinned pair of trigonometric fields.  Its
forcing is written out in closed form and evaluates the barrier profile and
the congestion law through the same code a run uses, so it needs no
symbolic copy of either.

The preset constants below were tuned once against the acceptance runs: the
gas exponent is deliberately high so the gas stays soft until the barrier
takes over, and the steep-law exponents are at the shallow end so the jam
structure reacts visibly across a stiffness sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    ConstantBarrier,
    GaussianBumpBarrier,
    InitialData,
    PipeBarrier,
    profile_values,
    TanhStepBarrier,
)
from .errors import BarrierViolation, ParameterError, SpecError
from .pressure import ratio_law


@dataclass(frozen=True)
class FillFraction:
    """Initial density as a fixed fraction of the local barrier."""

    fraction: float
    kind = "fill_fraction"

    def __post_init__(self):
        if not (0.0 < self.fraction < 1.0):
            raise ParameterError(f"fill fraction must lie in (0, 1), got {self.fraction}", "fraction")


# every profile spec by kind; fill_fraction is an initial profile only
PROFILE_KINDS = {
    cls.kind: cls
    for cls in (ConstantBarrier, TanhStepBarrier, GaussianBumpBarrier, PipeBarrier, FillFraction)
}


@dataclass(frozen=True)
class InitialSpec:
    """Density profile plus a uniform initial velocity."""

    profile: object  # any barrier-style profile spec, or FillFraction
    velocity: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "velocity", tuple(float(v) for v in np.atleast_1d(self.velocity))
        )


def build_initial(spec, grid, barrier):
    """Sample an initial spec into cell-centered fields."""
    if len(spec.velocity) != grid.dim:
        raise SpecError(
            f"initial velocity has {len(spec.velocity)} components on a "
            f"{grid.dim}D grid"
        )
    if isinstance(spec.profile, FillFraction):
        rho0 = spec.profile.fraction * barrier.interior.copy()
    else:
        rho0, _ = profile_values(spec.profile, grid.meshes())
        rho0 = np.asarray(rho0, dtype=float)
    mom0 = np.stack([rho0 * v for v in spec.velocity])
    return InitialData(rho0=rho0, mom0=mom0)


# ---------------------------------------------------------------------------
# manufactured solution

RATIO_MARGIN = 0.8


class ManufacturedSolution:
    """Pinned trigonometric fields with the forcing that makes them exact.

    rho = 0.5 + 0.2 sin(kx) cos t and u = 0.1 sin(kx), k = 2 pi, pushed
    through the full 1D balance laws (advection, gas pressure,
    barrier-weighted congestion pressure, viscous stress) with every
    derivative written out.  The barrier and its slope come from
    ``profile_values`` and pi' from the law, so any law or barrier a run
    accepts is covered.  A run driven by these sources must converge to the
    fields as the mesh refines.
    """

    def __init__(self, law, params, barrier_spec):
        self.law = law
        self.params = params
        self.barrier_spec = barrier_spec

    @staticmethod
    def _shaped(values, x):
        return np.broadcast_to(values, np.shape(x)).copy() if np.ndim(x) else float(values)

    def _fields(self, t, x):
        """rho, rho_t, rho_x, u, u_x, u_xx at (t, x)."""
        k = 2.0 * np.pi
        sin, cos = np.sin(k * x), np.cos(k * x)
        rho = 0.5 + 0.2 * sin * np.cos(t)
        rho_t = -0.2 * sin * np.sin(t)
        rho_x = 0.2 * k * cos * np.cos(t)
        return rho, rho_t, rho_x, 0.1 * sin, 0.1 * k * cos, -0.1 * k * k * sin

    def _barrier(self, x):
        """The barrier and its slope at x."""
        b, [b_x] = profile_values(self.barrier_spec, (np.asarray(x, dtype=float),))
        return b, b_x

    def density(self, t, x):
        return self._shaped(self._fields(t, x)[0], x)

    def velocity(self, t, x):
        return self._shaped(self._fields(t, x)[3], x)

    def momentum(self, t, x):
        rho, _, _, u, _, _ = self._fields(t, x)
        return self._shaped(rho * u, x)

    def mass_source(self, t, x):
        rho, rho_t, rho_x, u, u_x, _ = self._fields(t, x)
        return self._shaped(rho_t + rho_x * u + rho * u_x, x)

    def momentum_source(self, t, x):
        rho, rho_t, rho_x, u, u_x, u_xx = self._fields(t, x)
        p = self.params
        src = rho_t * u + rho_x * u * u + 2.0 * rho * u * u_x
        src = src + p.gamma * rho ** (p.gamma - 1.0) * rho_x - (2.0 * p.mu + p.lam) * u_xx
        if self.law is not None:
            b, b_x = self._barrier(x)
            r_x = (rho_x * b - rho * b_x) / b**2
            src = src + b * ratio_law(self.law).pressure_deriv(rho / b) * r_x
        return self._shaped(src, x)

    def check_margin(self, t_end, extent=1.0):
        xs = np.linspace(0.0, extent, 512)
        b, _ = self._barrier(xs)
        ts = np.linspace(0.0, max(t_end, 1e-9), 65)
        worst = max(float(np.max(self.density(tv, xs) / b)) for tv in ts)
        if worst > RATIO_MARGIN:
            raise BarrierViolation(
                f"manufactured fields reach ratio {worst:.3f} > {RATIO_MARGIN}"
            )
        return worst

    def initial_data(self, grid):
        x = grid.centers(0)
        return InitialData(rho0=self.density(0.0, x), mom0=self.momentum(0.0, x)[None, :])

    def sources_for(self, grid):
        x = grid.centers(0)

        def sources(t):
            return self.mass_source(t, x), self.momentum_source(t, x)[None, :]

        return sources


# ---------------------------------------------------------------------------
# bundled presets
#
# Each preset is config text that ``parse_config`` merges under the user's
# sections.  It names only the keys that have no default or differ from it.

PRESETS = {
    # Stiff gas exponent keeps the free stream honest about the unit
    # barrier: softer exponents let the pile absorb the ram load well below
    # saturation and the jam never forms.  The fine snapshot cadence keeps
    # time integrals of the recorded series accurate.
    "traffic_1d": ("rightward stream piles up against the right wall", """
[scenario]
initial_kind = gaussian_bump
initial_base = 0.3
initial_amp = 0.4
initial_center = 0.3
initial_width = 0.1
velocity = 0.5
[grid]
cells = 200
[barrier]
kind = constant
value = 1.0
[pressure]
kind = singular
eps = 0.001
alpha = 2.0
beta = 2.0
[fluid]
mu = 0.002
gamma = 60.0
[solver]
t_end = 1.0
snapshot_every = 0.002
"""),
    "lane_narrowing_1d": ("uniform stream meets a smooth drop in the maximal density", """
[scenario]
initial_kind = constant
initial_value = 0.5
velocity = 0.3
[grid]
cells = 200
[barrier]
kind = tanh_step
left = 1.0
right = 0.6
center = 0.5
width = 0.05
[pressure]
kind = singular
eps = 0.001
alpha = 2.0
beta = 2.0
[fluid]
mu = 0.005
gamma = 8.0
[solver]
t_end = 0.5
snapshot_every = 0.001
"""),
    # The stiffer gas exponent and extra viscosity keep the throat pocket
    # from ringing antidissipatively once it saturates.
    "pipe_1d": ("nearly full channel squeezed through a cosine throat", """
[scenario]
initial_kind = fill_fraction
initial_fraction = 0.8
velocity = 0.3
[grid]
cells = 200
[barrier]
kind = pipe_profile
base = 1.0
throat = 0.8
center = 0.5
halfwidth = 0.2
[pressure]
kind = singular
eps = 0.001
alpha = 2.0
beta = 2.0
[fluid]
mu = 0.01
gamma = 12.0
[solver]
t_end = 0.5
snapshot_every = 0.001
"""),
    # Blob and obstacle sit one blob-width apart and the drift is brisk, so
    # the leading edge reaches the capacity dip early and saturates it well
    # inside the short 2D horizon.
    "crowd_blob_2d": ("dense blob drifts into a region of reduced capacity", """
[scenario]
initial_kind = gaussian_bump
initial_base = 0.15
initial_amp = 0.5
initial_center = 0.32, 0.5
initial_width = 0.12
velocity = 1.0, 0.0
[grid]
cells = 96, 96
[barrier]
kind = gaussian_bump
base = 1.0
amp = -0.6
center = 0.6, 0.5
width = 0.12
[pressure]
kind = singular
eps = 0.001
alpha = 2.0
beta = 2.0
[fluid]
mu = 0.01
gamma = 8.0
[solver]
t_end = 0.3
snapshot_every = 0.001
"""),
    # initial data and sources come from the manufactured solution, which
    # ``runner.build_problem`` builds from these sections
    "manufactured_1d": ("forced trigonometric fields for convergence measurement", """
[grid]
cells = 200
[barrier]
kind = constant
value = 1.0
[pressure]
kind = singular
eps = 0.05
alpha = 3.0
beta = 3.0
[fluid]
mu = 0.02
gamma = 2.0
[solver]
t_end = 0.2
"""),
}

SCENARIO_NAMES = tuple(PRESETS)


def scenario_descriptions():
    return {name: desc for name, (desc, _) in PRESETS.items()}
