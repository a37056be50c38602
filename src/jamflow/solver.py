"""Finite-volume scheme for barrier-limited compressible flow.

First-order upwind fluxes for mass and momentum, centered differences for
the pressure force and the viscous stress, forward Euler in time with an
adaptive step.  The pressure force is applied in potential form:

    density * grad( gas enthalpy + congestion enthalpy(ratio) )

which agrees with grad(gas pressure) + barrier * grad(congestion pressure)
in the continuum, including for a spatially varying barrier, and is the
form under which the semi-discrete energy stays under control.

In 1D the step is implicit-explicit, so that the viscous rate no longer
sizes it:

- the viscous stress is backward Euler: after the explicit update one
  tridiagonal solve per member gives the new velocity;
- each face's mass flux gains -theta * dt * rho_face * d(enthalpy)/dx with
  theta = 1/2, the explicit half of the velocity shift of Degond, Hua &
  Navoret (J. Comput. Phys. 230, 2011), which keeps the energy budget of
  the longer steps;
- a step is at most 1.2 times the member's previous accepted step.  The
  first is the fully explicit step, viscous rate included, of the initial
  state.

In 2D the viscous stress stays explicit and sizes the step with the rest.

A step that drives the ratio density/barrier past 1 - barrier_tol raises
and is retried with half the step; accepted states always satisfy the
constraint strictly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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

# share of the explicit velocity shift in the 1D mass flux
SHIFT_THETA = 0.5
# a 1D step is at most this multiple of the member's previous accepted step
GROWTH_CAP = 1.2


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl: float = 0.4
    barrier_tol: float = 1e-6
    max_substeps: int = 40
    snapshot_every: float = 0.01

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
    ev = _sized_pass(state, law, params, barrier)
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
        self.dx, self.params = dx, params
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

    def rate(self, explicit=False):
        """Largest combined rate of each member (a scalar for one state).

        Per cell: the sum over the axes of (|u| + c) / dx, plus the
        momentum-diffusion rate 2 * (2*mu + lam) * sum(1/dx**2) / rho on
        cells above the vacuum floor where the viscous stress is explicit:
        in 2D, and in 1D only when ``explicit`` asks for the rate of the
        fully explicit step.  Evaluated on the ghosted arrays, whose
        contiguous layout is cheaper to sweep than the interior view, and
        reduced over the interior.
        """
        params, dx = self.params, self.dx
        c = self.sound_speed()
        rate = (np.abs(self.u[0]) + c) / dx[0]
        for ax in range(1, self.dim):
            rate += (np.abs(self.u[ax]) + c) / dx[ax]
        if explicit or self.dim > 1:
            visc = 2.0 * (2.0 * params.mu + params.lam) * sum(1.0 / h**2 for h in dx)
            rate += np.where(self.occupied, visc / self.safe, 0.0)
        return rate[self.inner].max(axis=self.space)

    def increments(self):
        """Forward-Euler ``_Increments``: upwind transport, the potential
        pressure force and, in 2D, the viscous stress; in 1D the shifted
        mass flux and the implicit viscous coefficient."""
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
        phi = g / (g - 1.0) * self.gas_power() + self.rlaw._enthalpy(self.ratio, self.om)
        for ax in range(dim):
            dmom[ax] -= rho_int * _centered_grad(phi, ax, dim, dx[ax])

        mu, lam = params.mu, params.lam
        if dim == 1:
            # the shift adds -theta * dt * rho_f * dphi/dx to each face's mass
            # flux, so the density gains dt**2 * theta * d(rho_f dphi/dx)/dx;
            # the mirrored ghosts zero it on the walls
            h = dx[0]
            shift_flux = _face_mean(rho, 0, 1) * (phi[..., 1:] - phi[..., :-1]) / h
            shift = SHIFT_THETA * _face_div(shift_flux, 0, 1, h)
            return _Increments(drho, dmom, shift, (2.0 * mu + lam) / h**2)
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
        return _Increments(drho, dmom)


class _Increments(NamedTuple):
    """Forward-Euler rates of one pass on interior cells, momentum
    components first.

    In 1D, ``shift`` is the density increment of the shifted mass flux per
    dt**2 and ``viscosity`` the coefficient (2*mu + lam) / dx**2 of the
    implicit viscous stress; in 2D both are None and the stress is in
    ``dmom``.
    """

    drho: np.ndarray
    dmom: np.ndarray
    shift: np.ndarray | None = None
    viscosity: float | None = None

    def members(self, pos):
        shift = None if self.shift is None else self.shift[pos]
        return self._replace(drho=self.drho[pos], dmom=self.dmom[:, pos], shift=shift)


def _sizing_error(rlaw, lo, hi):
    """The BarrierViolation sizing a state whose ratio spans [lo, hi]
    meets, or None; a negative ratio is a caller error and raises."""
    if hi >= 1.0:
        return BarrierViolation("ratio reached 1 while evaluating wave speeds")
    rlaw._check_range(lo, hi)
    return None


def _tendency(rho, mom, law, params, barrier, dx):
    """Each member's largest rate and Euler increments, from one pass.

    Returns ``(errors, rate, increments)``: per member the error its
    sizing meets, or None.  When any member has one, nothing else is
    evaluated and the other two are None.
    """
    ev = _Pass(rho, mom, law, params, barrier, dx)
    lo, hi = ev.ratio_range()
    errors = [_sizing_error(ev.rlaw, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    if any(err is not None for err in errors):
        return errors, None, None
    return errors, ev.rate(), ev.increments()


def _dt_from_rate(worst, cfl):
    if not math.isfinite(worst):
        raise DegenerateState("non-finite rate while sizing the time step")
    if worst <= 0.0:
        return float("inf")
    return cfl / worst


def _sized_pass(state, law, params, barrier):
    ev = _Pass(state.rho, state.mom, law, params, barrier, state.grid.dx)
    err = _sizing_error(ev.rlaw, *ev.ratio_range())
    if err is not None:
        raise err
    return ev


def stable_dt(state, law, params, barrier, cfl=0.4):
    """Largest admissible step for the current state.

    Uses a combined rate bound: per cell, the sum of the advective rate
    (|u| + c) / dx over the axes and, in 2D, the momentum-diffusion rate
    2 * (2*mu + lam) * sum(1/dx**2) / rho, with dt = cfl / max(rate).
    Summing the rates (rather than taking the worse of two separate caps)
    keeps the step inside the mixed advection-diffusion stability region;
    either mechanism alone recovers the familiar individual limits.  The
    1D viscous stress is implicit and leaves the bound; ``advance`` also
    caps each 1D step's growth (see ``first_dt``).
    """
    ev = _sized_pass(state, law, params, barrier)
    return _dt_from_rate(float(ev.rate()), cfl)


def first_dt(state, law, params, barrier, cfl=0.4):
    """The step ``advance`` first takes from ``state`` (before clipping to
    the target time): the fully explicit step, viscous rate included.

    In 2D that is ``stable_dt``.  In 1D it seeds the growth cap: later
    steps grow by at most GROWTH_CAP each up to ``stable_dt``.
    """
    ev = _sized_pass(state, law, params, barrier)
    return _dt_from_rate(float(ev.rate(explicit=True)), cfl)


def step_floor(t_target):
    """Smallest step, sized or halved, that a march to ``t_target`` takes."""
    return 1e-14 * max(t_target, 1e-300)


def projected_steps(t_end, first, ceiling):
    """Steps to ``t_end`` when dt starts at ``first`` and grows by
    GROWTH_CAP per step up to ``ceiling``, where it stays."""
    steps, t, dt = 0, 0.0, first
    while dt < ceiling and t + dt < t_end:
        t += dt
        steps += 1
        dt *= GROWTH_CAP
    return steps + math.ceil((t_end - t) / min(dt, ceiling))


def _thomas(diag, rhs):
    """Solve tridiag(-1, diag, -1) x = rhs, lists of floats in and out.

    The forward sweep keeps x[i] = g[i] + e[i] * x[i+1]; the backward
    sweep overwrites g with x.  A plain Python loop beats NumPy's per-call
    overhead on a few hundred cells.
    """
    e, g = [], []
    ei = gi = 0.0
    for d, r in zip(diag, rhs):
        ei = 1.0 / (d - ei)
        gi = (r + gi) * ei
        e.append(ei)
        g.append(gi)
    x = gi
    for i in range(len(g) - 2, -1, -1):
        x = g[i] = g[i] + e[i] * x
    return g


def _viscous_velocity(rho, mom, s):
    """Backward-Euler viscosity in 1D: u of (diag(rho) + s*T) u = mom for
    each member, with T = tridiag(-1, 2, -1) and 3 on the two wall rows
    (the odd ghost mirror).  ``s`` is dt * (2*mu + lam) / dx**2, a float
    or an array broadcasting against the member axis.

    The system is solved divided by ``s``.  Negative densities, which fail
    the step anyway, count as vacuum, so the matrix is always positive
    definite and the solve finite.
    """
    diag = np.maximum(rho, 0.0) / s + 2.0
    diag[..., 0] += 1.0
    diag[..., -1] += 1.0
    rhs = mom / s
    n = rho.shape[-1]
    u = [_thomas(d, r) for d, r in zip(diag.reshape(-1, n).tolist(), rhs.reshape(-1, n).tolist())]
    return np.array(u).reshape(rho.shape)


def _apply(rho, mom, inc, dt, barrier, source=None):
    """Update ghosted fields by the increments ``inc`` of a pass.

    Forward Euler, then in 1D the shifted mass flux and the implicit
    viscous solve.  ``dt`` is a float, or an array broadcasting against the
    leading member axes; ``source`` is ``(mass_rate, momentum_rate)`` on
    interior cells, momentum components first, and enters before the
    solve.  Returns the new ghosted ``(rho, mom)`` and ``(finite, negative,
    worst ratio)`` per member; the caller decides what a failed check means.
    """
    dim = len(inc.dmom)
    space = tuple(range(-dim, 0))
    inner = _interior(dim)
    new_rho = rho[inner] + dt * inc.drho
    if inc.shift is not None:
        new_rho = new_rho + (dt * dt) * inc.shift
    new_mom = _components_first(mom, dim)[inner] + dt * inc.dmom
    if source is not None:
        mass_rate, mom_rate = source
        new_rho = new_rho + dt * mass_rate
        new_mom = new_mom + dt * mom_rate

    # min and max carry any NaN and both infinities, so they decide the
    # density's finiteness and sign in two reductions; the viscous solve
    # of finite fields is finite
    low, high = new_rho.min(axis=space), new_rho.max(axis=space)
    finite = np.isfinite(low) & np.isfinite(high) & np.isfinite(new_mom).all(axis=(0,) + space)
    negative = low < 0.0
    worst = (new_rho / barrier.interior).max(axis=space)
    occupied = new_rho > vacuum_floor(barrier)
    new_mom = np.where(occupied, new_mom, 0.0)
    if inc.viscosity is not None:
        u = _viscous_velocity(new_rho, new_mom[0], dt * inc.viscosity)
        new_mom = np.where(occupied, new_rho * u, 0.0)[None]

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
    """Advance one step of size ``dt``: forward Euler, and in 1D the
    shifted mass flux and the backward-Euler viscous solve.

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
    inc = ev.increments()
    rho, mom, checks = _apply(state.rho, state.mom, inc, dt, barrier, source)
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
        self.inc = self.source = None

    def current(self, pos, t):
        return FlowState(t, self.rho[pos].copy(), self.mom[pos].copy(), self.grid)

    def size(self, ts):
        errors, rate, self.inc = _tendency(
            self.rho, self.mom, self.law, self.params, self.barrier, self.grid.dx
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
        rho, mom, inc, source = self.rho, self.mom, self.inc, self.source
        if len(pos) < len(self.members):
            rho, mom, inc = rho[pos], mom[pos], inc.members(pos)
            if source is not None:
                source = (source[0][pos], source[1][:, pos])
        dt = np.array([dts[p] for p in pos]).reshape((len(pos),) + (1,) * dim)
        rho, mom, (finite, negative, worst) = _apply(rho, mom, inc, dt, self.barrier, source)
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


@dataclass
class StepStats:
    """Counters of one member's march: its accepted step sizes, in order,
    and its halvings."""

    dts: list = field(default_factory=list)
    halvings: int = 0

    def summary(self):
        """Accepted steps, halvings and the dt range, for ``meta.json``."""
        # np.median would import numpy.ma, about 1 MB of resident memory
        dts = sorted(self.dts)
        n = len(dts)
        median = None
        if n:
            median = dts[n // 2] if n % 2 else 0.5 * (dts[n // 2 - 1] + dts[n // 2])
        return {
            "accepted": n,
            "halvings": self.halvings,
            "dt_min": dts[0] if n else None,
            "dt_median": median,
            "dt_max": dts[-1] if n else None,
        }


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
    stats=None,
):
    """March ``state`` to ``t_target`` with adaptive sub-stepping.

    Emits a diagnostics record through ``sink(state, record)`` at the start,
    after the first accepted step that reaches each ``cfg.snapshot_every``
    tick, and at the final time: at most one record per step, so a step
    that spans several ticks records once.  On a barrier violation the step
    is halved and retried up to ``cfg.max_substeps`` times before
    StepFailure; a step, sized or halved, below 1e-14 * ``t_target`` raises
    DegenerateState.  A 1D step is at most GROWTH_CAP times the previous
    accepted one, the first at most ``first_dt``.  ``step_hook(prev, new,
    dt)`` runs after every accepted step (companion-field transport).
    ``stats``, a ``StepStats``, counts the accepted steps and halvings.

    Sweep members advance together: pass lists of member states (one grid),
    laws, sinks, sources, hooks and stats instead (``None`` for any of the
    last four means none for every member).  Each member keeps its own
    time, step size, halvings and snapshot ticks, exactly as in its solo
    run, and the call returns per member either the final state or the
    StepFailure / DegenerateState / NonFinite / BarrierViolation that ended
    it, while the other members go on.  Two or more members are stacked on
    a leading array axis and step through one kernel call.
    """
    if isinstance(state, FlowState):
        [out] = advance(
            [state], t_target, [law], params, barrier, cfg,
            sink=[sink], sources=[sources], step_hook=[step_hook], stats=[stats],
        )
        if isinstance(out, Exception):
            raise out
        return out

    n = len(state)
    sinks = sink or [None] * n
    hooks = step_hook or [None] * n
    sources = sources or [None] * n
    stats = [s if s is not None else StepStats() for s in stats or [None] * n]
    if any(t_target < s.t for s in state):
        raise ParameterError("t_target precedes the state time")
    t = [s.t for s in state]
    t0 = list(t)
    tick = cfg.snapshot_every
    t_eps = 1e-12 * max(1.0, abs(t_target))
    dt_floor = step_floor(t_target)
    outcome = [None] * n
    capped = barrier.grid.dim == 1
    # the largest next step of each member
    cap = [math.inf] * n
    if capped:
        for m in range(n):
            try:
                cap[m] = first_dt(state[m], law[m], params, barrier, cfg.cfl)
            except (DegenerateState, BarrierViolation):
                pass  # the first sizing meets it too
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
                dts[p] = min(dts[p], cap[m], t_target - ts[p])
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
            stats[m].halvings += retries[p]
            if outcome[m] is not None:
                continue
            t[m] = ts[p] + dts[p]
            stats[m].dts.append(dts[p])
            if capped:
                cap[m] = GROWTH_CAP * dts[p]
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
