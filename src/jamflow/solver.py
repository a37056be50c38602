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

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import diagnostics
from .domain import (
    FlowState,
    _centered_grad,
    _others,
    _sl,
    fill_scalar_ghosts,
    fill_velocity_ghosts,
    interior_view,
)
from .errors import (
    BarrierViolation,
    DegenerateState,
    NonFinite,
    ParameterError,
    StepFailure,
)
from .pressure import ratio_law, stack_laws

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
    force_form: str = field(default="potential", metadata={"choices": FORCE_FORMS})

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ParameterError(f"cfl must lie in (0, 1], got {self.cfl}", "cfl")
        if not (0.0 < self.barrier_tol < 0.1):
            raise ParameterError(
                f"barrier_tol must lie in (0, 0.1), got {self.barrier_tol}", "barrier_tol"
            )
        if self.max_substeps < 1:
            raise ParameterError("max_substeps must be at least 1", "max_substeps")
        for name in ("t_end", "snapshot_every"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}", name)
        if self.t_end < 0.0:
            raise ParameterError(f"t_end must be nonnegative, got {self.t_end}", "t_end")
        if self.snapshot_every <= 0.0:
            raise ParameterError("snapshot_every must be positive", "snapshot_every")
        if self.force_form not in FORCE_FORMS:
            raise ParameterError(
                f"force_form must be one of {FORCE_FORMS}, got {self.force_form!r}", "force_form"
            )


# The kernels below take ghosted fields with an optional leading member
# axis: rho (*cells) or (members, *cells), mom (dim, *cells) or (members,
# dim, *cells).  Spatial axes are always the trailing ones, so one code path
# serves a single state and a stack of sweep members; member m of a stack
# goes through exactly the elementwise operations of its solo run.

@lru_cache(maxsize=None)
def _interior(dim):
    return (Ellipsis,) + (slice(1, -1),) * dim


def _face_mean(arr, axis, dim):
    return 0.5 * (arr[_sl(dim, axis, None, -1)] + arr[_sl(dim, axis, 1, None)])


def _upwind(forward, arr, axis, dim):
    # ``forward`` is face velocity > 0; faces with zero velocity take hi,
    # and callers multiply by the face velocity
    return np.where(forward, arr[_sl(dim, axis, None, -1)], arr[_sl(dim, axis, 1, None)])


# The differences below divide before they drop the ghost rows of the other
# axes, as ``domain._centered_grad`` does.

def _face_div(flux, axis, dim, dx):
    """Difference of face fluxes, restricted to interior cells."""
    d = flux[_sl(dim, axis, 1, None)] - flux[_sl(dim, axis, None, -1)]
    return (d / dx)[_others(dim, axis)]


def _second_diff(arr, axis, dim, dx):
    d = (
        arr[_sl(dim, axis, 2, None)]
        - 2.0 * arr[_sl(dim, axis, 1, -1)]
        + arr[_sl(dim, axis, None, -2)]
    )
    return (d / dx**2)[_others(dim, axis)]


def _cross_diff(arr, dx0, dx1):
    d = arr[..., 2:, 2:] - arr[..., 2:, :-2] - arr[..., :-2, 2:] + arr[..., :-2, :-2]
    return d / (4.0 * dx0 * dx1)


def _components_first(mom, dim):
    # (member, dim, *cells) -> (dim, member, *cells); a solo state is unchanged
    return mom.swapaxes(0, -1 - dim)


def vacuum_floor(barrier):
    return VACUUM_REL_FLOOR * barrier.sup_value


def effective_sound_speed(state, law, params, barrier):
    """Wave speed combining the gas and the congestion stiffness.

    c**2 = gamma * rho**(gamma-1) + d(congestion pressure)/d(ratio),
    evaluated per interior cell.  Blows up as the ratio approaches 1,
    which is exactly what throttles the time step near jams.
    """
    ev = _Pass(state.rho, state.mom, law, params, barrier, state.grid.dx)
    err = _sizing_error(ev.rlaw, *ev.ratio_range())
    if err is not None:
        raise err
    return ev.sound_speed()[ev.inner]


class _Pass:
    """One evaluation of a ghosted (possibly stacked) state.

    Everything the step size and the Euler increments share is derived
    here once: the vacuum mask and the density with vacuum cells set to 1
    (shared by the velocity and the viscous rate), the velocity (components
    first), the ratio with 1 - ratio, and rho**(gamma - 1) (shared by the
    sound speed and the gas enthalpy).  The ghost layers mirror the
    interior, so the ratio's extremes over the ghosted array are those of
    the interior.
    """

    def __init__(self, rho, mom, law, params, barrier, dx):
        self.dim = dim = len(dx)
        self.space = tuple(range(-dim, 0))
        self.inner = _interior(dim)
        self.dx, self.params, self.barrier = dx, params, barrier
        self.rlaw = ratio_law(law)
        self.rho, self.mom = rho, _components_first(mom, dim)
        self.occupied = rho > vacuum_floor(barrier)
        self.safe = np.where(self.occupied, rho, 1.0)
        self.u = np.where(self.occupied, self.mom / self.safe, 0.0)
        self.ratio = rho / barrier.values
        self.om = 1.0 - self.ratio
        self._gas = None

    def ratio_range(self):
        """Smallest and largest ratio per member; NaN cells are skipped,
        as the elementwise ``np.any`` checks of the laws skip them."""
        space = self.space
        return np.fmin.reduce(self.ratio, axis=space), np.fmax.reduce(self.ratio, axis=space)

    def gas_power(self):
        if self._gas is None:
            self._gas = self.rho ** (self.params.gamma - 1.0)
        return self._gas

    def sound_speed(self):
        """Per-cell wave speed, ghost layers included."""
        dpi = self.rlaw._dpi(self.ratio, self.om)
        return np.sqrt(self.params.gamma * self.gas_power() + dpi)

    def rate(self):
        """Largest combined rate of each member (a scalar for one state).

        Per cell: the sum over the axes of (|u| + c) / dx, plus the
        momentum-diffusion rate 2 * (2*mu + lam) * sum(1/dx**2) / rho on
        cells above the vacuum floor.  Evaluated on the ghosted arrays,
        whose contiguous layout is cheaper to sweep than the interior
        view, and reduced over the interior.
        """
        params, dx = self.params, self.dx
        c = self.sound_speed()
        rate = (np.abs(self.u[0]) + c) / dx[0]
        for ax in range(1, self.dim):
            rate += (np.abs(self.u[ax]) + c) / dx[ax]
        visc = 2.0 * (2.0 * params.mu + params.lam) * sum(1.0 / h**2 for h in dx)
        rate += np.where(self.occupied, visc / self.safe, 0.0)
        return rate[self.inner].max(axis=self.space)

    def increments(self, force_form):
        """Forward-Euler increments ``(drho, dmom)`` on interior cells,
        momentum components first: upwind transport, the pressure force in
        ``force_form`` and the viscous stress."""
        dim, inner, dx, params, u = self.dim, self.inner, self.dx, self.params, self.u
        rho, mom = self.rho, self.mom
        rho_int = rho[inner]
        drho = np.zeros(rho_int.shape)
        dmom = np.zeros((dim,) + rho_int.shape)

        for ax in range(dim):
            uf = _face_mean(u[ax], ax, dim)
            forward = uf > 0.0
            mass_flux = uf * _upwind(forward, rho, ax, dim)
            drho -= _face_div(mass_flux, ax, dim, dx[ax])
            for comp in range(dim):
                mom_flux = uf * _upwind(forward, mom[comp], ax, dim)
                dmom[comp] -= _face_div(mom_flux, ax, dim, dx[ax])

        g = params.gamma
        if force_form == "potential":
            phi = g / (g - 1.0) * self.gas_power() + self.rlaw._enthalpy(self.ratio, self.om)
            for ax in range(dim):
                dmom[ax] -= rho_int * _centered_grad(phi, ax, dim, dx[ax])
        else:
            gas = params.pressure(rho)
            cong = self.rlaw._pi(self.ratio, self.om)
            bar_int = self.barrier.interior
            for ax in range(dim):
                dmom[ax] -= _centered_grad(gas, ax, dim, dx[ax])
                dmom[ax] -= bar_int * _centered_grad(cong, ax, dim, dx[ax])

        mu, lam = params.mu, params.lam
        if dim == 1:
            dmom[0] += (2.0 * mu + lam) * _second_diff(u[0], 0, dim, dx[0])
        else:
            dx0, dx1 = dx
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
        return drho, dmom


def _sizing_error(rlaw, lo, hi):
    """The BarrierViolation sizing a state whose ratio spans [lo, hi]
    meets, or None; a negative ratio is a caller error and raises."""
    if hi >= 1.0:
        return BarrierViolation("ratio reached 1 while evaluating wave speeds")
    rlaw._check_range(lo, hi)
    return None


def _tendency(rho, mom, law, params, barrier, dx, force_form):
    """Each member's largest rate and Euler increments, from one pass.

    Returns ``(errors, rate, drho, dmom)``: per member the error its
    sizing meets, or None.  When any member has one, nothing else is
    evaluated and the other three are None.
    """
    ev = _Pass(rho, mom, law, params, barrier, dx)
    lo, hi = ev.ratio_range()
    errors = [_sizing_error(ev.rlaw, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    if any(err is not None for err in errors):
        return errors, None, None, None
    return (errors, ev.rate(), *ev.increments(force_form))


def _dt_from_rate(worst, cfl):
    if not math.isfinite(worst):
        raise DegenerateState("non-finite rate while sizing the time step")
    if worst <= 0.0:
        return float("inf")
    return cfl / worst


def stable_dt(state, law, params, barrier, cfl=0.4):
    """Largest admissible explicit step for the current state.

    Uses a combined rate bound: per cell, the sum of the advective rate
    (|u| + c) / dx over the axes and the momentum-diffusion rate
    2 * (2*mu + lam) * sum(1/dx**2) / rho, with dt = cfl / max(rate).
    Summing the rates (rather than taking the worse of two separate caps)
    keeps the step inside the mixed advection-diffusion stability region;
    either mechanism alone recovers the familiar individual limits.
    """
    ev = _Pass(state.rho, state.mom, law, params, barrier, state.grid.dx)
    err = _sizing_error(ev.rlaw, *ev.ratio_range())
    if err is not None:
        raise err
    return _dt_from_rate(float(ev.rate()), cfl)


def _apply(rho, mom, drho, dmom, dt, barrier, source=None):
    """Forward-Euler update of ghosted fields from their increments.

    ``dt`` is a float, or an array broadcasting against the leading member
    axes; ``source`` is ``(mass_rate, momentum_rate)`` on interior cells,
    momentum components first.  Returns the new ghosted ``(rho, mom)`` and
    ``(finite, negative, worst ratio)`` per member; the caller decides what
    a failed check means.
    """
    dim = len(dmom)
    space = tuple(range(-dim, 0))
    inner = _interior(dim)
    new_rho = rho[inner] + dt * drho
    new_mom = _components_first(mom, dim)[inner] + dt * dmom
    if source is not None:
        mass_rate, mom_rate = source
        new_rho = new_rho + dt * mass_rate
        new_mom = new_mom + dt * mom_rate

    # min and max carry any NaN and both infinities, so they decide the
    # density's finiteness and sign in two reductions
    low, high = new_rho.min(axis=space), new_rho.max(axis=space)
    finite = np.isfinite(low) & np.isfinite(high) & np.isfinite(new_mom).all(axis=(0,) + space)
    negative = low < 0.0
    worst = (new_rho / barrier.interior).max(axis=space)
    new_mom = np.where(new_rho > vacuum_floor(barrier), new_mom, 0.0)

    out_rho = np.empty_like(rho)
    out_mom = np.empty_like(mom)
    out_rho[inner] = new_rho
    _components_first(out_mom, dim)[inner] = new_mom
    fill_scalar_ghosts(out_rho, dim)
    fill_velocity_ghosts(out_mom, dim)
    return out_rho, out_mom, (finite, negative, worst)


def _step_error(finite, negative, worst, t_new, cfg):
    """The exception a failed step check raises, or None."""
    if not finite:
        return NonFinite(f"non-finite fields after step to t={t_new:.6g}")
    if negative:
        return BarrierViolation(f"negative density after step to t={t_new:.6g}")
    if worst > 1.0 - cfg.barrier_tol:
        return BarrierViolation(
            f"ratio {worst:.8f} exceeded {1.0 - cfg.barrier_tol:.8f} "
            f"after step to t={t_new:.6g}"
        )
    return None


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
    source = sources(state.t) if sources is not None else None
    ev = _Pass(state.rho, state.mom, law, params, barrier, state.grid.dx)
    ev.rlaw._check_range(*ev.ratio_range())
    drho, dmom = ev.increments(cfg.force_form)
    rho, mom, checks = _apply(state.rho, state.mom, drho, dmom, dt, barrier, source)
    finite, negative, worst = checks
    err = _step_error(bool(finite), bool(negative), float(worst), state.t + dt, cfg)
    if err is not None:
        raise err
    return FlowState(t=state.t + dt, rho=rho, mom=mom, grid=state.grid)


class _Solo:
    """One member, sized and stepped through the public ``stable_dt`` and
    ``step`` (looked up on every call, so wrappers and patches apply)."""

    def __init__(self, states, laws, params, barrier, cfg, sources):
        self.args = (laws[0], params, barrier)
        self.cfg = cfg
        self.sources = sources[0]
        self.rho, self.mom = states[0].rho[None], states[0].mom[None]
        self.grid = states[0].grid

    def current(self, pos, t):
        return FlowState(t, self.rho[pos], self.mom[pos], self.grid)

    def size(self, ts):
        try:
            return [stable_dt(self.current(0, ts[0]), *self.args, self.cfg.cfl)]
        except (DegenerateState, BarrierViolation) as exc:
            return [exc]

    def attempt(self, pos, ts, dts):
        try:
            new = step(
                self.current(0, ts[0]), dts[0], *self.args, self.cfg, sources=self.sources
            )
        except (NonFinite, BarrierViolation) as exc:
            return None, None, [exc]
        return new.rho[None], new.mom[None], [None]


class _Stacked:
    """Several members on one grid, fields stacked on a leading member axis.

    Only the kernels see the stacked arrays; ``rho[pos]`` and ``mom[pos]``
    keep the memory layout of a solo state.  Member states handed out are
    copies, so a stored record does not keep every member's fields alive.
    ``size`` evaluates the state once, for the rates and the increments
    (and the sources, which depend on the start time only), so a halved
    retry only redoes the update.
    """

    def __init__(self, states, laws, params, barrier, cfg, sources):
        self.grid = states[0].grid
        self.laws, self.params, self.barrier, self.cfg = laws, params, barrier, cfg
        self.sources = sources
        self.members = list(range(len(states)))
        self.rho = np.stack([s.rho for s in states])
        self.mom = np.stack([s.mom for s in states])
        self.law = stack_laws(laws, self.grid.dim)
        self.drho = self.dmom = self.source = None

    def current(self, pos, t):
        return FlowState(t, self.rho[pos].copy(), self.mom[pos].copy(), self.grid)

    def size(self, ts):
        errors, rate, self.drho, self.dmom = _tendency(
            self.rho, self.mom, self.law, self.params, self.barrier, self.grid.dx,
            self.cfg.force_form,
        )
        if rate is None:
            return errors  # None for the members that were not sized
        out = []
        for w in rate.tolist():
            try:
                out.append(_dt_from_rate(w, self.cfg.cfl))
            except DegenerateState as exc:
                out.append(exc)
        self.source = None
        if any(self.sources[m] is not None for m in self.members):
            rates = [self.sources[m](t) for m, t in zip(self.members, ts)]
            self.source = (
                np.stack([r[0] for r in rates]),
                _components_first(np.stack([r[1] for r in rates]), self.grid.dim),
            )
        return out

    def attempt(self, pos, ts, dts):
        dim = self.grid.dim
        rho, mom, drho, dmom, source = self.rho, self.mom, self.drho, self.dmom, self.source
        if len(pos) < len(self.members):
            rho, mom, drho, dmom = rho[pos], mom[pos], drho[pos], dmom[:, pos]
            if source is not None:
                source = (source[0][pos], source[1][:, pos])
        dt = np.array([dts[p] for p in pos]).reshape((len(pos),) + (1,) * dim)
        rho, mom, (finite, negative, worst) = _apply(
            rho, mom, drho, dmom, dt, self.barrier, source
        )
        errs = [
            _step_error(f, n, w, ts[p] + dts[p], self.cfg)
            for f, n, w, p in zip(finite.tolist(), negative.tolist(), worst.tolist(), pos)
        ]
        return rho, mom, errs

    def keep(self, pos):
        self.members = [self.members[p] for p in pos]
        self.rho, self.mom = self.rho[pos], self.mom[pos]
        self.law = stack_laws([self.laws[m] for m in self.members], self.grid.dim)


def _no_admissible_step(cfg, t, cause):
    exc = StepFailure(f"no admissible step after {cfg.max_substeps} halvings at t={t:.6g}")
    exc.__cause__ = cause
    return exc


def next_tick(t, t0, every):
    """The first tick ``t0 + n * every`` (n whole) past time ``t``.

    Counted from ``t0`` rather than summed up tick by tick, so a tiny
    cadence still moves.  Past 2**53 laps, or when a subnormal cadence
    overflows the lap count, the next tick is not resolved and ``t`` itself
    is returned: every later time is a tick.
    """
    laps = (t - t0) / every + 1e-9
    if not laps < 2.0**53:
        return t
    return t0 + (math.floor(laps) + 1) * every


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
    ``cfg.max_substeps`` times before StepFailure; a step, sized or halved,
    below 1e-14 * ``t_target`` raises DegenerateState.  ``step_hook(prev, new,
    dt)`` runs after every accepted step (companion-field transport).

    Sweep members advance together: pass lists of member states (one grid),
    laws, sinks, sources and hooks instead (``None`` for any of the last
    three means none for every member).  Each member keeps its own time,
    step size, halvings and snapshot ticks, exactly as in its solo run, and
    the call returns per member either the final state or the
    StepFailure / DegenerateState / NonFinite / BarrierViolation that ended
    it, while the other members go on.  Two or more members are stacked on
    a leading array axis and step through one kernel call.
    """
    if isinstance(state, FlowState):
        [out] = advance(
            [state], t_target, [law], params, barrier, cfg,
            sink=[sink], sources=[sources], step_hook=[step_hook],
        )
        if isinstance(out, Exception):
            raise out
        return out

    n = len(state)
    sinks = sink or [None] * n
    hooks = step_hook or [None] * n
    sources = sources or [None] * n
    if any(t_target < s.t for s in state):
        raise ParameterError("t_target precedes the state time")
    t = [s.t for s in state]
    t0 = list(t)
    tick = cfg.snapshot_every
    t_eps = 1e-12 * max(1.0, abs(t_target))
    dt_floor = 1e-14 * max(t_target, 1e-300)
    outcome = [None] * n
    group = (_Solo if n == 1 else _Stacked)(state, law, params, barrier, cfg, sources)

    def emit(m, s):
        if sinks[m] is not None:
            sinks[m](s, diagnostics.collect(s, law[m], params, barrier))

    for m in range(n):
        emit(m, state[m])
    last_emit = list(t)
    ticks = [t0_m + tick for t0_m in t0]
    live = list(range(n))  # member ids, by position in the group
    while True:
        done = [
            p for p, m in enumerate(live)
            if outcome[m] is not None or not t_target - t[m] > t_eps
        ]
        if done:
            for p in done:
                m = live[p]
                if outcome[m] is None:
                    final = group.current(p, t[m])
                    if t[m] > last_emit[m] + t_eps:
                        emit(m, final)
                    outcome[m] = final
            keep = [p for p in range(len(live)) if p not in done]
            live = [live[p] for p in keep]
            if not live:
                return outcome
            group.keep(keep)

        ts = [t[m] for m in live]
        dts = group.size(ts)
        for p, m in enumerate(live):
            if dts[p] is not None and not isinstance(dts[p], Exception):
                dts[p] = min(dts[p], t_target - ts[p])
                if dts[p] < dt_floor:
                    dts[p] = DegenerateState(
                        f"time step {dts[p]:.3e} underflowed at t={ts[p]:.6g}"
                    )
            if isinstance(dts[p], Exception):
                outcome[m] = dts[p]
        if any(outcome[m] is not None for m in live):
            continue  # retire the failed members, then size the rest again

        retries = [0] * len(live)
        pending = list(range(len(live)))
        while pending:
            rho, mom, errs = group.attempt(pending, ts, dts)
            if len(pending) == len(live):
                new_rho, new_mom = rho, mom
            else:
                new_rho[pending], new_mom[pending] = rho, mom
            halved = []
            for p, err in zip(pending, errs):
                if isinstance(err, BarrierViolation) and retries[p] < cfg.max_substeps:
                    retries[p] += 1
                    dts[p] *= 0.5
                    if dts[p] < dt_floor:
                        outcome[live[p]] = DegenerateState(
                            f"time step {dts[p]:.3e} underflowed after {retries[p]}"
                            f" halvings at t={ts[p]:.6g}"
                        )
                    else:
                        halved.append(p)
                elif isinstance(err, BarrierViolation):
                    outcome[live[p]] = _no_admissible_step(cfg, ts[p], err)
                elif err is not None:
                    outcome[live[p]] = err
            pending = halved

        prev_rho, prev_mom = group.rho, group.mom
        group.rho, group.mom = new_rho, new_mom
        for p, m in enumerate(live):
            if outcome[m] is not None:
                continue
            t[m] = ts[p] + dts[p]
            if hooks[m] is not None:
                prev = FlowState(ts[p], prev_rho[p], prev_mom[p], group.grid)
                hooks[m](prev, group.current(p, t[m]), dts[p])
            if t[m] >= ticks[m] - t_eps:
                emit(m, group.current(p, t[m]))
                last_emit[m] = t[m]
                ticks[m] = next_tick(t[m], t0[m], tick)


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
        flux = uf * _upwind(uf > 0.0, ghosted, ax, dim)
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
