"""Grid, barrier field, flow state, and initial-data validation.

Cell-centered collocated layout with a single ghost layer on every side.
Ghosts implement impermeable no-slip walls: scalars are mirrored (zero
normal gradient), velocity and momentum are mirrored with a sign flip so
that the interpolated wall-face velocity is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, SpecError


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid; extents are physical side lengths."""

    # a config spells it ``extent``
    extents: tuple[float, ...] = field(metadata={"key": "extent"})
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in np.atleast_1d(self.extents)))
        object.__setattr__(self, "cells", tuple(int(n) for n in np.atleast_1d(self.cells)))
        if len(self.extents) != len(self.cells):
            raise ParameterError("grid extents and cells must have matching dimension", "extents")
        if len(self.cells) not in (1, 2):
            raise ParameterError("only 1D and 2D grids are supported", "cells")
        if not all(math.isfinite(e) for e in self.extents):
            raise ParameterError(f"grid extents must be finite, got {self.extents}", "extents")
        if any(e <= 0 for e in self.extents):
            raise ParameterError("grid extents must be positive", "extents")
        if any(n < 3 for n in self.cells):
            raise ParameterError("need at least 3 cells per axis", "cells")

    @property
    def dim(self):
        return len(self.cells)

    @cached_property
    def dx(self):
        return tuple(e / n for e, n in zip(self.extents, self.cells))

    @property
    def shape(self):
        return self.cells

    @property
    def ghosted_shape(self):
        return tuple(n + 2 for n in self.cells)

    @property
    def cell_volume(self):
        return float(np.prod(self.dx))

    def centers(self, axis):
        """Interior cell-center coordinates along one axis."""
        h = self.dx[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def ghosted_centers(self, axis):
        h = self.dx[axis]
        return (np.arange(-1, self.cells[axis] + 1) + 0.5) * h

    def meshes(self):
        """Per-axis interior coordinate arrays broadcast to the grid shape."""
        return np.meshgrid(*(self.centers(a) for a in range(self.dim)), indexing="ij")


# Ghosted arrays may carry leading component or member axes; the ``dim``
# spatial axes are always the trailing ones.

@lru_cache(maxsize=None)
def _sl(dim, axis, start, stop):
    out = [slice(None)] * dim
    out[axis] = slice(start, stop)
    return (Ellipsis,) + tuple(out)


@lru_cache(maxsize=None)
def _others(dim, axis):
    # interior cells along every axis but ``axis``
    other = [slice(1, -1)] * dim
    other[axis] = slice(None)
    return (Ellipsis,) + tuple(other)


def _centered_grad(arr, axis, dim, dx):
    """Centered difference of a ghosted array along ``axis``, on interior cells."""
    # dividing before the ghost rows of the other axes are dropped sweeps a
    # contiguous array, several times faster than the strided interior view
    d = arr[_sl(dim, axis, 2, None)] - arr[_sl(dim, axis, None, -2)]
    return (d / (2.0 * dx))[_others(dim, axis)]


def interior_view(arr, dim):
    """Interior cells of a ghosted array; leading component axes survive."""
    return arr[(Ellipsis,) + (slice(1, -1),) * dim]


def _mirror(arr, dim, odd):
    """Copy the cells along each wall into its ghost layer, negated if ``odd``."""
    for ax in range(dim):
        for ghost, edge in (((0, 1), (1, 2)), ((-1, None), (-2, -1))):
            near = arr[_sl(dim, ax, *edge)]
            arr[_sl(dim, ax, *ghost)] = -near if odd else near
    return arr


def fill_scalar_ghosts(arr, dim):
    """Mirror the interior into the ghost layer along every spatial axis."""
    return _mirror(arr, dim, odd=False)


def fill_velocity_ghosts(arr, dim):
    """Odd-mirror all components along every spatial axis (no-slip walls)."""
    return _mirror(arr, dim, odd=True)


# ---------------------------------------------------------------------------
# barrier field profiles

@dataclass(frozen=True)
class ConstantBarrier:
    value: float
    kind = "constant"


@dataclass(frozen=True)
class TanhStepBarrier:
    """Smooth step along x from ``left`` to ``right`` around ``center``."""

    left: float
    right: float
    center: float
    width: float
    kind = "tanh_step"


@dataclass(frozen=True)
class GaussianBumpBarrier:
    """base + amp * exp(-(distance/width)**2); amp < 0 carves a dip."""

    base: float
    amp: float
    center: tuple[float, ...]
    width: float
    kind = "gaussian_bump"

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))


@dataclass(frozen=True)
class PipeBarrier:
    """Cosine-squared constriction along x; C1 at the throat edges."""

    base: float
    throat: float
    center: float
    halfwidth: float
    kind = "pipe_profile"


def profile_values(spec, coords):
    """Evaluate a barrier spec and its analytic gradient on coordinates.

    ``coords`` holds one coordinate array per axis, all of one shape.
    Returns (values, list of per-axis gradient arrays).
    """
    x = coords[0]
    if isinstance(spec, ConstantBarrier):
        vals = np.full_like(x, spec.value)
        return vals, [np.zeros_like(vals) for _ in coords]
    if isinstance(spec, TanhStepBarrier):
        arg = (x - spec.center) / spec.width
        vals = spec.left + (spec.right - spec.left) * 0.5 * (1.0 + np.tanh(arg))
        gx = (spec.right - spec.left) * 0.5 / spec.width / np.cosh(arg) ** 2
        return vals, [gx] + [np.zeros_like(vals) for _ in coords[1:]]
    if isinstance(spec, GaussianBumpBarrier):
        center = spec.center
        if len(center) == 1 and len(coords) > 1:
            center = center * len(coords)
        d2 = sum((c - cc) ** 2 for c, cc in zip(coords, center))
        bump = np.exp(-d2 / spec.width**2)
        vals = spec.base + spec.amp * bump
        grads = [
            spec.amp * bump * (-2.0 * (c - cc) / spec.width**2)
            for c, cc in zip(coords, center)
        ]
        return vals, grads
    if isinstance(spec, PipeBarrier):
        theta = np.pi * (x - spec.center) / (2.0 * spec.halfwidth)
        inside = np.abs(x - spec.center) <= spec.halfwidth
        depth = spec.base - spec.throat
        vals = np.where(inside, spec.base - depth * np.cos(theta) ** 2, spec.base)
        gx = np.where(
            inside, depth * np.sin(2.0 * theta) * np.pi / (2.0 * spec.halfwidth), 0.0
        )
        return vals, [gx] + [np.zeros_like(vals) for _ in coords[1:]]
    raise SpecError(f"unknown barrier spec {spec!r}")


@dataclass(frozen=True)
class BarrierField:
    """Maximal-density field sampled on a grid, with analytic gradients."""

    grid: Grid
    values: np.ndarray  # ghosted; ghosts mirror the interior
    grad: np.ndarray  # (dim, *cells), analytic, interior only
    log_grad: np.ndarray  # grad / values, interior only

    @property
    def interior(self):
        return self.values[(slice(1, -1),) * self.grid.dim]

    @cached_property
    def inf_value(self):
        return float(np.min(self.interior))

    @cached_property
    def sup_value(self):
        return float(np.max(self.interior))


def build_barrier(spec, grid):
    """Sample a barrier spec on ``grid``; reject non-positive values."""
    coords = grid.meshes()
    vals, grads = profile_values(spec, coords)
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise SpecError("barrier spec produced non-finite values")
    if np.min(vals) <= 0.0:
        raise SpecError(
            f"barrier must stay positive; minimum sampled value {np.min(vals):.6g}"
        )
    ghosted = np.empty(grid.ghosted_shape)
    ghosted[(slice(1, -1),) * grid.dim] = vals
    fill_scalar_ghosts(ghosted, grid.dim)
    grad = np.stack([np.asarray(g, dtype=float) for g in grads])
    return BarrierField(grid=grid, values=ghosted, grad=grad, log_grad=grad / vals)


# ---------------------------------------------------------------------------
# flow state

@dataclass
class FlowState:
    """Density and momentum with ghost layers at a fixed time."""

    t: float
    rho: np.ndarray  # ghosted scalar
    mom: np.ndarray  # (dim, *ghosted)
    grid: Grid

    @property
    def rho_interior(self):
        return self.rho[(slice(1, -1),) * self.grid.dim]

    @property
    def mom_interior(self):
        return self.mom[(Ellipsis,) + (slice(1, -1),) * self.grid.dim]

    def velocity(self, floor=0.0):
        """Ghosted velocity; zero where density does not exceed ``floor``."""
        safe = np.where(self.rho > floor, self.rho, 1.0)
        return np.where(self.rho > floor, self.mom / safe, 0.0)

    def copy(self):
        return FlowState(self.t, self.rho.copy(), self.mom.copy(), self.grid)


def make_state(grid, rho0, mom0, t=0.0):
    """Allocate a ghosted state from interior fields and fill its ghosts."""
    rho = np.zeros(grid.ghosted_shape)
    mom = np.zeros((grid.dim,) + grid.ghosted_shape)
    rho[(slice(1, -1),) * grid.dim] = rho0
    mom[(Ellipsis,) + (slice(1, -1),) * grid.dim] = mom0
    fill_scalar_ghosts(rho, grid.dim)
    fill_velocity_ghosts(mom, grid.dim)
    return FlowState(t=float(t), rho=rho, mom=mom, grid=grid)


# ---------------------------------------------------------------------------
# initial data

@dataclass(frozen=True)
class InitialData:
    rho0: np.ndarray  # (*cells)
    mom0: np.ndarray  # (dim, *cells)


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)  # (code, index, message)
    mean_density: float = 0.0
    barrier_min: float = 0.0

    def codes(self):
        return {code for code, _, _ in self.violations}

    def summary(self):
        if self.ok:
            return "initial data admissible"
        head = [f"{len(self.violations)} violation(s):"]
        head += [f"  [{c}] cell {i}: {m}" for c, i, m in self.violations[:10]]
        if len(self.violations) > 10:
            head.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(head)


def validate_initial(data, barrier):
    """Check admissibility of initial fields against a barrier.

    Collects violations instead of raising: non-finite entries, negative
    density, density at or above the barrier, momentum carried by empty
    cells, and a domain-mean density that does not stay below the barrier
    minimum (that margin is what keeps the congestion pressure integrable
    uniformly in the stiffness parameter).
    """
    rho0 = np.asarray(data.rho0, dtype=float)
    mom0 = np.asarray(data.mom0, dtype=float)
    bar = barrier.interior
    report = ValidationReport(ok=True)
    report.barrier_min = barrier.inf_value

    def flag(code, idx, message):
        report.violations.append((code, tuple(int(i) for i in idx), message))

    bad = ~np.isfinite(rho0)
    for idx in np.argwhere(bad):
        flag("nonfinite_density", tuple(idx), "density is not finite")
    bad = ~np.all(np.isfinite(mom0), axis=0)
    for idx in np.argwhere(bad):
        flag("nonfinite_momentum", tuple(idx), "momentum is not finite")
    finite = np.isfinite(rho0)
    neg = finite & (rho0 < 0.0)
    for idx in np.argwhere(neg):
        flag("negative_density", tuple(idx), f"density {rho0[tuple(idx)]:.6g} < 0")
    over = finite & (rho0 >= bar)
    for idx in np.argwhere(over):
        flag(
            "density_at_barrier",
            tuple(idx),
            f"density {rho0[tuple(idx)]:.6g} >= barrier {bar[tuple(idx)]:.6g}",
        )
    speed = np.sqrt(np.sum(mom0**2, axis=0))
    ghost_mass = (rho0 == 0.0) & (speed > 0.0)
    for idx in np.argwhere(ghost_mass):
        flag("momentum_in_vacuum", tuple(idx), "momentum carried by an empty cell")

    report.mean_density = float(np.mean(rho0[finite])) if np.any(finite) else float("nan")
    if not np.isfinite(report.mean_density) or report.mean_density >= report.barrier_min:
        flag(
            "mean_density_exceeds_barrier_min",
            (),
            f"mean density {report.mean_density:.6g} must stay below "
            f"the barrier minimum {report.barrier_min:.6g}",
        )
    report.ok = not report.violations
    return report
