"""Explicit finite-volume scheme for barrier-limited compressible flow.

First-order upwind fluxes for mass and momentum, centered differences for
the pressure force and the viscous stress, forward Euler in time with an
adaptive step.  The pressure force is applied in potential form by default:

    density * grad( gas enthalpy + congestion enthalpy(ratio) )

which agrees with grad(gas pressure) + barrier * grad(congestion pressure)
in the continuum, including for a spatially varying barrier, and is the
form under which the semi-discrete energy stays under control.  The direct
form is kept selectable for comparison runs.

A step that drives the ratio density/barrier past 1 - barrier_tol raises
and is retried with half the step; accepted states always satisfy the
constraint strictly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .domain import apply_velocity_bc, fill_scalar_ghosts, FlowState, interior_view
from .errors import (
    BarrierViolation,
    DegenerateState,
    NonFinite,
    ParameterError,
    StepFailure,
)
from .pressure import ratio_law

# cells below this fraction of the barrier maximum carry no momentum
VACUUM_REL_FLOOR = 1e-12

FORCE_FORMS = ("potential", "direct")


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.4
    barrier_tol: float = 1e-6
    max_substeps: int = 40
    snapshot_every: float = 0.01
    force_form: str = "potential"

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ParameterError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (0.0 < self.barrier_tol < 0.1):
            raise ParameterError(
                f"barrier_tol must lie in (0, 0.1), got {self.barrier_tol}"
            )
        if self.max_substeps < 1:
            raise ParameterError("max_substeps must be at least 1")
        if self.t_end < 0.0:
            raise ParameterError(f"t_end must be nonnegative, got {self.t_end}")
        if self.snapshot_every <= 0.0:
            raise ParameterError("snapshot_every must be positive")
        if self.force_form not in FORCE_FORMS:
            raise ParameterError(
                f"force_form must be one of {FORCE_FORMS}, got {self.force_form!r}"
            )


def _sl(dim, axis, s):
    out = [slice(None)] * dim
    out[axis] = s
    return tuple(out)


def _face_mean(arr, axis, dim):
    return 0.5 * (arr[_sl(dim, axis, slice(None, -1))] + arr[_sl(dim, axis, slice(1, None))])


def _upwind(face_vel, arr, axis, dim):
    # faces with zero velocity take hi; callers multiply by face_vel
    lo = arr[_sl(dim, axis, slice(None, -1))]
    hi = arr[_sl(dim, axis, slice(1, None))]
    return np.where(face_vel > 0.0, lo, hi)


def _face_div(flux, axis, dim, dx):
    """Difference of face fluxes, restricted to interior cells."""
    d = flux[_sl(dim, axis, slice(1, None))] - flux[_sl(dim, axis, slice(None, -1))]
    other = [slice(1, -1)] * dim
    other[axis] = slice(None)
    return d[tuple(other)] / dx


def _centered_grad(arr, axis, dim, dx):
    d = arr[_sl(dim, axis, slice(2, None))] - arr[_sl(dim, axis, slice(None, -2))]
    other = [slice(1, -1)] * dim
    other[axis] = slice(None)
    return d[tuple(other)] / (2.0 * dx)


def _second_diff(arr, axis, dim, dx):
    d = (
        arr[_sl(dim, axis, slice(2, None))]
        - 2.0 * arr[_sl(dim, axis, slice(1, -1))]
        + arr[_sl(dim, axis, slice(None, -2))]
    )
    other = [slice(1, -1)] * dim
    other[axis] = slice(None)
    return d[tuple(other)] / dx**2


def _cross_diff(arr, dx0, dx1):
    d = arr[2:, 2:] - arr[2:, :-2] - arr[:-2, 2:] + arr[:-2, :-2]
    return d / (4.0 * dx0 * dx1)


def vacuum_floor(barrier):
    return VACUUM_REL_FLOOR * barrier.sup_value


def effective_sound_speed(state, law, params, barrier):
    """Wave speed combining the gas and the congestion stiffness.

    c**2 = gamma * rho**(gamma-1) + d(congestion pressure)/d(ratio),
    evaluated per interior cell.  Blows up as the ratio approaches 1,
    which is exactly what throttles the time step near jams.
    """
    rho = state.rho_interior
    ratio = rho / barrier.interior
    if np.any(ratio >= 1.0):
        raise BarrierViolation("ratio reached 1 while evaluating wave speeds")
    rlaw = ratio_law(law)
    c2 = params.gamma * rho ** (params.gamma - 1.0) + rlaw.pressure_deriv(ratio)
    return np.sqrt(c2)


def stable_dt(state, law, params, barrier, grid=None, cfl=0.4):
    """Largest admissible explicit step for the current state.

    Uses a combined rate bound: per cell, the sum of the advective rate
    (|u| + c) / dx over the axes and the momentum-diffusion rate
    2 * (2*mu + lam) * sum(1/dx**2) / rho, with dt = cfl / max(rate).
    Summing the rates (rather than taking the worse of two separate caps)
    keeps the step inside the mixed advection-diffusion stability region;
    either mechanism alone recovers the familiar individual limits.
    """
    grid = grid or state.grid
    floor = vacuum_floor(barrier)
    c = effective_sound_speed(state, law, params, barrier)
    u = interior_view(state.velocity(floor), grid.dim)
    rate = np.zeros(grid.shape)
    for ax in range(grid.dim):
        rate += (np.abs(u[ax]) + c) / grid.dx[ax]
    visc = 2.0 * (2.0 * params.mu + params.lam) * sum(1.0 / h**2 for h in grid.dx)
    rho = state.rho_interior
    occupied = rho > floor
    rate[occupied] += visc / rho[occupied]
    worst = float(np.max(rate))
    if not np.isfinite(worst):
        raise DegenerateState("non-finite rate while sizing the time step")
    if worst <= 0.0:
        return float("inf")
    return cfl / worst


def step(state, dt, law, params, barrier, cfg, sources=None):
    """Advance one forward-Euler step of size ``dt``.

    Parameters
    ----------
    sources : callable or None
        Optional ``sources(t) -> (mass_rate, momentum_rate)`` evaluated on
        interior cells at the step's start time (used by manufactured
        solutions).

    Raises
    ------
    BarrierViolation
        If the updated density goes negative anywhere or the updated ratio
        exceeds 1 - cfg.barrier_tol (callers may halve dt and retry).
    NonFinite
        If NaN or Inf appears in the updated fields.
    """
    grid = state.grid
    dim = grid.dim
    floor = vacuum_floor(barrier)
    rho = state.rho
    u = state.velocity(floor)
    rlaw = ratio_law(law)
    ratio = rho / barrier.values

    drho = np.zeros(grid.shape)
    dmom = np.zeros((dim,) + grid.shape)

    for ax in range(dim):
        uf = _face_mean(u[ax], ax, dim)
        mass_flux = uf * _upwind(uf, rho, ax, dim)
        drho -= _face_div(mass_flux, ax, dim, grid.dx[ax])
        for comp in range(dim):
            mom_flux = uf * _upwind(uf, state.mom[comp], ax, dim)
            dmom[comp] -= _face_div(mom_flux, ax, dim, grid.dx[ax])

    rho_int = state.rho_interior
    if cfg.force_form == "potential":
        phi = params.enthalpy(rho) + rlaw.enthalpy(ratio)
        for ax in range(dim):
            dmom[ax] -= rho_int * _centered_grad(phi, ax, dim, grid.dx[ax])
    else:
        gas = params.pressure(rho)
        cong = rlaw.pressure(ratio)
        bar_int = barrier.interior
        for ax in range(dim):
            dmom[ax] -= _centered_grad(gas, ax, dim, grid.dx[ax])
            dmom[ax] -= bar_int * _centered_grad(cong, ax, dim, grid.dx[ax])

    mu, lam = params.mu, params.lam
    if dim == 1:
        dmom[0] += (2.0 * mu + lam) * _second_diff(u[0], 0, dim, grid.dx[0])
    else:
        dx0, dx1 = grid.dx
        dmom[0] += (
            (2.0 * mu + lam) * _second_diff(u[0], 0, dim, dx0)
            + mu * _second_diff(u[0], 1, dim, dx1)
            + (mu + lam) * _cross_diff(u[1], dx0, dx1)
        )
        dmom[1] += (
            (2.0 * mu + lam) * _second_diff(u[1], 1, dim, dx1)
            + mu * _second_diff(u[1], 0, dim, dx0)
            + (mu + lam) * _cross_diff(u[0], dx0, dx1)
        )

    new_rho = rho_int + dt * drho
    new_mom = state.mom_interior + dt * dmom
    if sources is not None:
        mass_rate, mom_rate = sources(state.t)
        new_rho = new_rho + dt * mass_rate
        new_mom = new_mom + dt * mom_rate

    if not (np.all(np.isfinite(new_rho)) and np.all(np.isfinite(new_mom))):
        raise NonFinite(f"non-finite fields after step to t={state.t + dt:.6g}")
    if np.any(new_rho < 0.0):
        raise BarrierViolation(
            f"negative density after step to t={state.t + dt:.6g}"
        )
    new_ratio = new_rho / barrier.interior
    worst = float(np.max(new_ratio))
    if worst > 1.0 - cfg.barrier_tol:
        raise BarrierViolation(
            f"ratio {worst:.8f} exceeded {1.0 - cfg.barrier_tol:.8f} "
            f"after step to t={state.t + dt:.6g}"
        )
    new_mom = np.where(new_rho > floor, new_mom, 0.0)

    out = FlowState(t=state.t + dt, rho=np.empty_like(rho), mom=np.empty_like(state.mom), grid=grid)
    out.rho[(slice(1, -1),) * dim] = new_rho
    out.mom[(Ellipsis,) + (slice(1, -1),) * dim] = new_mom
    return apply_velocity_bc(out)


def advance(
    state,
    t_target,
    law,
    params,
    barrier,
    cfg,
    sink=None,
    sources=None,
    step_hook=None,
):
    """March ``state`` to ``t_target`` with adaptive sub-stepping.

    Emits a diagnostics record through ``sink(state, record)`` at the start,
    at every ``cfg.snapshot_every`` crossing, and at the final time.  On a
    barrier violation the step is halved and retried up to
    ``cfg.max_substeps`` times before StepFailure.  ``step_hook(prev, new,
    dt)`` runs after every accepted step (companion-field transport).
    """
    if t_target < state.t:
        raise ParameterError("t_target precedes the state time")
    t0 = state.t
    tick = cfg.snapshot_every
    t_eps = 1e-12 * max(1.0, abs(t_target))

    def emit(s):
        if sink is not None:
            sink(s, diagnostics.collect(s, law, params, barrier))

    emit(state)
    last_emit = state.t
    next_tick = t0 + tick
    while t_target - state.t > t_eps:
        dt = stable_dt(state, law, params, barrier, state.grid, cfg.cfl)
        dt = min(dt, t_target - state.t)
        if dt < 1e-14 * max(t_target, 1e-300):
            raise DegenerateState(
                f"time step {dt:.3e} underflowed at t={state.t:.6g}"
            )
        retries = 0
        while True:
            try:
                new = step(state, dt, law, params, barrier, cfg, sources=sources)
                break
            except BarrierViolation as exc:
                retries += 1
                if retries > cfg.max_substeps:
                    raise StepFailure(
                        f"no admissible step after {cfg.max_substeps} halvings "
                        f"at t={state.t:.6g}"
                    ) from exc
                dt *= 0.5
        if step_hook is not None:
            step_hook(state, new, dt)
        state = new
        if state.t >= next_tick - t_eps:
            emit(state)
            last_emit = state.t
            laps = int(np.floor((state.t - t0) / tick + 1e-9))
            next_tick = t0 + (laps + 1) * tick
    if state.t > last_emit + t_eps:
        emit(state)
    return state


def step_ratio(ratio, velocity, dt, barrier):
    """Transport the congestion ratio with a frozen velocity field.

    Upwind advection plus the relaxation source -ratio * (u . grad(log
    barrier)); with a constant barrier this is plain upwind transport.
    ``ratio`` lives on interior cells, ``velocity`` is a ghosted vector.
    """
    grid = barrier.grid
    dim = grid.dim
    ghosted = np.empty(grid.ghosted_shape)
    ghosted[(slice(1, -1),) * dim] = ratio
    fill_scalar_ghosts(ghosted, dim)
    out = np.asarray(ratio, dtype=float).copy()
    u_int = interior_view(velocity, dim)
    for ax in range(dim):
        uf = _face_mean(velocity[ax], ax, dim)
        flux = uf * _upwind(uf, ghosted, ax, dim)
        out -= dt * _face_div(flux, ax, dim, grid.dx[ax])
        out -= dt * ratio * u_int[ax] * barrier.log_grad[ax]
    if not np.all(np.isfinite(out)):
        raise NonFinite("non-finite companion ratio field")
    return out


def track_ratio_transport(state, t_target, law, params, barrier, cfg, sink=None):
    """Advance the flow while co-advecting the ratio as its own field.

    Returns (final state, transported ratio).  The transported field sees
    exactly the per-step velocities of the main solve, so its gap against
    density/barrier isolates the consistency of the renormalized transport,
    which should shrink linearly with the mesh.
    """
    ratio = (state.rho_interior / barrier.interior).copy()
    floor = vacuum_floor(barrier)
    box = {"ratio": ratio}

    def hook(prev, new, dt):
        box["ratio"] = step_ratio(box["ratio"], prev.velocity(floor), dt, barrier)

    final = advance(state, t_target, law, params, barrier, cfg, sink=sink, step_hook=hook)
    return final, box["ratio"]
