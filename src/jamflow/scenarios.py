"""Initial-data specs, manufactured solutions and the bundled presets.

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
from .pressure import BarotropicLaw, SedimentationLaw, SingularLaw, TruncatedLaw


@dataclass(frozen=True)
class FillFraction:
    """Initial density as a fixed fraction of the local barrier."""

    fraction: float
    kind = "fill_fraction"

    def __post_init__(self):
        if not (0.0 < self.fraction < 1.0):
            raise ParameterError(f"fill fraction must lie in (0, 1), got {self.fraction}")


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
# manufactured solutions (sympy is imported only when one is built)

def _symbolic_pressure(law, r):
    """Congestion pressure as a sympy expression of the ratio symbol."""
    import sympy as sp

    if law is None:
        return sp.Integer(0)
    if isinstance(law, SingularLaw):
        return law.eps * r**law.alpha / (1 - r) ** law.beta
    if isinstance(law, BarotropicLaw):
        return law.a * r**law.gamma_n
    if isinstance(law, TruncatedLaw):
        cap = 1 - law.delta
        steep = law.eps * r**law.alpha / (1 - r) ** law.beta
        capped = law.eps * r**law.alpha / law.delta**law.beta
        return law.kappa * r**law.cap_k + sp.Piecewise((steep, r < cap), (capped, True))
    if isinstance(law, SedimentationLaw):
        phi = law.phi_star * r
        return law.c0 * phi**law.s_exp / (law.phi_star - phi)
    raise ParameterError(f"no symbolic form for law {law!r}")


def _symbolic_barrier(spec, x):
    import sympy as sp

    if spec is None:
        return sp.Integer(1)
    if isinstance(spec, (int, float)):
        return sp.Float(spec)
    if isinstance(spec, sp.Expr):
        return spec
    if isinstance(spec, ConstantBarrier):
        return sp.Float(spec.value)
    if isinstance(spec, TanhStepBarrier):
        arg = (x - spec.center) / spec.width
        return spec.left + (spec.right - spec.left) * (1 + sp.tanh(arg)) / 2
    if isinstance(spec, GaussianBumpBarrier):
        c = spec.center[0]
        return spec.base + spec.amp * sp.exp(-(((x - c) / spec.width) ** 2))
    if isinstance(spec, PipeBarrier):
        theta = sp.pi * (x - spec.center) / (2 * spec.halfwidth)
        depth = spec.base - spec.throat
        return sp.Piecewise(
            (spec.base - depth * sp.cos(theta) ** 2, abs(x - spec.center) <= spec.halfwidth),
            (spec.base, True),
        )
    raise SpecError(f"cannot lift barrier spec {spec!r} to a symbolic profile")


RATIO_MARGIN = 0.8


class ManufacturedSolution:
    """Closed-form fields with the forcing that makes them exact solutions.

    Given density and velocity expressions in (t, x), builds the mass and
    momentum sources by pushing the expressions through the full 1D balance
    laws (advection, gas pressure, barrier-weighted congestion pressure,
    viscous stress) and differentiating symbolically.  A solver run driven
    by these sources must converge to the expressions as the mesh refines.
    """

    def __init__(self, rho_expr, u_expr, law, params, barrier_spec=None):
        import sympy as sp
        from sympy.printing.numpy import NumPyPrinter

        t, x = sp.symbols("t x", real=True)
        local = {"t": t, "x": x, "pi": sp.pi}
        rho = sp.sympify(rho_expr, locals=local)
        u = sp.sympify(u_expr, locals=local)
        bar = _symbolic_barrier(barrier_spec, x)
        ratio = rho / bar
        pi_c = _symbolic_pressure(law, ratio)
        gas = rho**params.gamma
        visc = (2 * params.mu + params.lam) * sp.diff(u, x, 2)
        mass_src = sp.diff(rho, t) + sp.diff(rho * u, x)
        mom_src = (
            sp.diff(rho * u, t)
            + sp.diff(rho * u * u, x)
            + sp.diff(gas, x)
            + bar * sp.diff(pi_c, x)
            - visc
        )
        self.law = law
        self.params = params
        self.exprs = {"rho": rho, "u": u, "barrier": bar}
        # lambdify's default printer orders the terms of a sum by their
        # hashes, which vary with PYTHONHASHSEED; printed in the order sympy
        # stores them, the sources evaluate bit-identically in every process
        printer = NumPyPrinter({
            "fully_qualified_modules": False,
            "inline": True,
            "allow_unknown_functions": True,
            "user_functions": {},
            "order": "none",
        })
        self._fns = {
            name: sp.lambdify((t, x), expr, modules="numpy", printer=printer)
            for name, expr in [
                ("rho", rho),
                ("u", u),
                ("mom", rho * u),
                ("mass_src", mass_src),
                ("mom_src", mom_src),
                ("ratio", ratio),
            ]
        }

    def _eval(self, name, t, x):
        out = self._fns[name](t, x)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() \
            if np.ndim(x) else float(out)

    def density(self, t, x):
        return self._eval("rho", t, x)

    def velocity(self, t, x):
        return self._eval("u", t, x)

    def momentum(self, t, x):
        return self._eval("mom", t, x)

    def mass_source(self, t, x):
        return self._eval("mass_src", t, x)

    def momentum_source(self, t, x):
        return self._eval("mom_src", t, x)

    def check_margin(self, t_end, extent=1.0, samples=512):
        ts = np.linspace(0.0, max(t_end, 1e-9), 65)
        xs = np.linspace(0.0, extent, samples)
        worst = max(float(np.max(self._fns["ratio"](tv, xs))) for tv in ts)
        if worst > RATIO_MARGIN:
            raise BarrierViolation(
                f"manufactured fields reach ratio {worst:.3f} > {RATIO_MARGIN}"
            )
        return worst

    def initial_data(self, grid):
        x = grid.centers(0)
        rho0 = self.density(0.0, x)
        mom0 = self.momentum(0.0, x)[None, :]
        return InitialData(rho0=rho0, mom0=mom0)

    def sources_for(self, grid):
        x = grid.centers(0)

        def sources(t):
            return self.mass_source(t, x), self.momentum_source(t, x)[None, :]

        return sources


def manufactured_sources(rho_expr, u_expr, law, params, barrier_spec, t, x):
    """Evaluate manufactured mass/momentum sources at given points.

    Raises BarrierViolation when the fields leave the safety margin
    ratio <= 0.8 at the evaluation points.
    """
    sol = ManufacturedSolution(rho_expr, u_expr, law, params, barrier_spec)
    ratio = np.asarray(sol._fns["ratio"](t, x), dtype=float)
    if np.any(ratio > RATIO_MARGIN):
        raise BarrierViolation(
            f"manufactured fields reach ratio {float(np.max(ratio)):.3f} > {RATIO_MARGIN}"
        )
    return sol.mass_source(t, x), sol.momentum_source(t, x)


MANUFACTURED_DENSITY = "0.5 + 0.2*sin(2*pi*x)*cos(t)"
MANUFACTURED_VELOCITY = "0.1*sin(2*pi*x)"


def manufactured_default(law, params, barrier_spec=None):
    """The pinned trigonometric manufactured pair used by the scenario."""
    return ManufacturedSolution(
        MANUFACTURED_DENSITY, MANUFACTURED_VELOCITY, law, params, barrier_spec
    )


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
