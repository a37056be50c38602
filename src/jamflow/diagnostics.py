"""Energy accounting and congestion metrics for solver states.

The discrete energy mirrors the continuous one: kinetic part
0.5 * |momentum|**2 / density, internal gas part density**gamma /
(gamma - 1), and the stored congestion energy density * energy_potential
(ratio).  Along exact solutions the total decays with rate equal to the
viscous dissipation, so the per-interval residual

    E(t2) - E(t1) + trapezoid(dissipation)

should never be meaningfully positive; its positive excess is what the
acceptance suite bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .domain import _centered_grad
from .errors import ParameterError
from .pressure import ratio_law

DEFAULT_CONGESTED_DELTA = 0.05
DIVERGENCE_FLOOR = 1e-14
MATCHED_PRESSURE_FRACTION = 0.5
MATCHED_DELTA_CAP = 0.25
THRESHOLD_RTOL = 1e-12


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    kinetic: float
    internal: float
    singular_potential: float
    dissipation_rate: float
    mass: float
    max_ratio: float
    congested_measure: float
    pi_l1: float
    complementarity: float
    divu_congested: float

    @property
    def total_energy(self):
        return self.kinetic + self.internal + self.singular_potential


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def energy(state, law, params, barrier):
    """Return (kinetic, internal, stored congestion) energies."""
    grid = state.grid
    vol = grid.cell_volume
    rho = state.rho_interior
    mom = state.mom_interior
    occupied = rho > 0.0
    safe = np.where(occupied, rho, 1.0)
    kinetic = 0.5 * np.sum(np.where(occupied, np.sum(mom**2, axis=0) / safe, 0.0)) * vol
    internal = np.sum(rho**params.gamma) / (params.gamma - 1.0) * vol
    rlaw = ratio_law(law)
    stored = np.sum(rho * rlaw.energy_potential(rho / barrier.interior)) * vol
    return float(kinetic), float(internal), float(stored)


def dissipation_rate(state, params):
    """Instantaneous viscous dissipation 2*mu*|D(u)|**2 + lam*(div u)**2.

    Velocity gradients by centered differences on the ghosted velocity, so
    the no-slip walls are felt through the ghost layer.
    """
    grid = state.grid
    dim = grid.dim
    u = state.velocity()
    grads = np.empty((dim, dim) + grid.shape)
    for comp in range(dim):
        for ax in range(dim):
            grads[comp, ax] = _centered_grad(u[comp], ax, dim, grid.dx[ax])
    sym = 0.5 * (grads + np.swapaxes(grads, 0, 1))
    div = np.trace(grads, axis1=0, axis2=1)
    density = 2.0 * params.mu * np.sum(sym**2, axis=(0, 1)) + params.lam * div**2
    return float(np.sum(density) * grid.cell_volume)


def mass(state):
    return float(np.sum(state.rho_interior) * state.grid.cell_volume)


@dataclass(frozen=True)
class CongestionMetrics:
    max_ratio: float
    congested_measure: float
    pi_l1: float
    complementarity: float
    divu_congested: float


def div_barrier_velocity(state, barrier):
    """Centered divergence of (barrier * velocity) on interior cells."""
    grid = state.grid
    dim = grid.dim
    q = barrier.values * state.velocity()
    out = np.zeros(grid.shape)
    for ax in range(dim):
        out += _centered_grad(q[ax], ax, dim, grid.dx[ax])
    return out


def congestion_metrics(state, law, barrier, delta_c=DEFAULT_CONGESTED_DELTA):
    """Jam indicators for one state.

    Cells with ratio >= 1 - delta_c count as congested.  ``complementarity``
    is the integral of (barrier - density) * congestion pressure, which the
    stiff limit drives to zero; ``divu_congested`` is the L2 norm of
    div(barrier * velocity) restricted to the congested cells, the discrete
    shadow of incompressibility inside jams.
    """
    grid = state.grid
    vol = grid.cell_volume
    rho = state.rho_interior
    bar = barrier.interior
    ratio = rho / bar
    rlaw = ratio_law(law)
    pi_vals = rlaw.pressure(ratio)
    congested = ratio >= 1.0 - delta_c
    div_bu = div_barrier_velocity(state, barrier)
    divu_congested = float(np.sqrt(np.sum(div_bu[congested] ** 2) * vol))
    return CongestionMetrics(
        max_ratio=float(np.max(ratio)),
        congested_measure=float(np.count_nonzero(congested) * vol),
        pi_l1=float(np.sum(np.abs(pi_vals)) * vol),
        complementarity=float(np.sum((bar - rho) * pi_vals) * vol),
        divu_congested=divu_congested,
    )


def collect(state, law, params, barrier):
    kin, internal, stored = energy(state, law, params, barrier)
    cm = congestion_metrics(state, law, barrier)
    return DiagnosticsRecord(
        t=float(state.t),
        kinetic=kin,
        internal=internal,
        singular_potential=stored,
        dissipation_rate=dissipation_rate(state, params),
        mass=mass(state),
        max_ratio=cm.max_ratio,
        congested_measure=cm.congested_measure,
        pi_l1=cm.pi_l1,
        complementarity=cm.complementarity,
        divu_congested=cm.divu_congested,
    )


@dataclass(frozen=True)
class BudgetReport:
    """Interval residuals of the discrete energy balance."""

    times: np.ndarray
    residuals: np.ndarray
    initial_energy: float

    @property
    def max_positive(self):
        if self.residuals.size == 0:
            return 0.0
        return float(max(np.max(self.residuals), 0.0))

    @property
    def cumulative_positive(self):
        if self.residuals.size == 0:
            return 0.0
        return float(np.sum(np.clip(self.residuals, 0.0, None)))


def energy_budget(records):
    """Residual E(n+1) - E(n) + trapezoid(dissipation) per record interval."""
    records = list(records)
    if len(records) < 2:
        t0 = records[0].t if records else 0.0
        e0 = records[0].total_energy if records else 0.0
        return BudgetReport(times=np.array([t0]), residuals=np.array([]), initial_energy=e0)
    t = np.array([r.t for r in records])
    e = np.array([r.total_energy for r in records])
    d = np.array([r.dissipation_rate for r in records])
    dt = np.diff(t)
    residuals = np.diff(e) + 0.5 * (d[:-1] + d[1:]) * dt
    return BudgetReport(times=t, residuals=residuals, initial_energy=float(e[0]))


@dataclass(frozen=True)
class CongestedDivergenceReport:
    """Normalized congested-divergence ratios across stored snapshots."""

    times: tuple
    ratios: tuple  # divu_congested / (||div(barrier*u)||_L2 + DIVERGENCE_FLOOR)
    congested_counts: tuple

    @property
    def congested_snapshots(self):
        return sum(1 for n in self.congested_counts if n > 0)

    @property
    def mean_congested_ratio(self):
        vals = [r for r, n in zip(self.ratios, self.congested_counts) if n > 0]
        if not vals:
            return 0.0
        return float(np.mean(vals))


def pressure_level_threshold(law, level, r_hint=None):
    """Solve pi(1 - delta) = level for delta, the iso-pressure threshold.

    Fixed congestion thresholds compare mechanically different sets across a
    stiffness sweep: the softer the law, the lower the ratio at which the
    pressure becomes load-bearing.  This inverts the (monotone) pressure so
    each run can be probed at the ratio where its own law carries ``level``.
    Returns None when the law never reaches ``level`` below ``r_hint``.

    The root is bracketed in delta, between 1 - min(r_hint, 1 - 1e-12) and
    1 - 1e-9, and bisected until the bracket is within THRESHOLD_RTOL of
    its midpoint.
    """
    if level <= 0.0:
        raise ParameterError(f"pressure level must be positive, got {level}")
    rlaw = ratio_law(law)
    hi = min(r_hint if r_hint is not None else 1.0 - 1e-9, 1.0 - 1e-12)
    if float(rlaw.pressure(hi)) < level:
        return None
    # pi(1 - delta) falls as delta grows
    below, above = 1.0 - hi, 1.0 - 1e-9
    while True:
        mid = 0.5 * (below + above)
        if above - below <= THRESHOLD_RTOL * mid or not below < mid < above:
            return mid
        if float(rlaw.pressure(1.0 - mid)) < level:
            above = mid
        else:
            below = mid


def matched_congestion_delta(law, peak_ratio):
    """Congestion threshold placed where pressure hits a share of its peak.

    Runs with different laws jam at different ratios: a soft law carries the
    same load at a visibly lower density than a stiff one, so thresholding
    every run at the same ratio compares load-bearing material in one run
    against loose material in another.  Solving pi(1 - delta) =
    MATCHED_PRESSURE_FRACTION * pi(peak_ratio) puts each run's threshold at
    the same point of its own load curve.  Returns None when the run never
    develops a concentrated pressure core (threshold wider than
    MATCHED_DELTA_CAP), which is the signature of an unjammed run.
    """
    if not np.isfinite(peak_ratio) or peak_ratio <= 0.0:
        return None
    p_peak = float(ratio_law(law).pressure(np.asarray(peak_ratio)))
    if p_peak <= 0.0:
        return None
    delta = pressure_level_threshold(law, MATCHED_PRESSURE_FRACTION * p_peak)
    if delta is None or delta > MATCHED_DELTA_CAP:
        return None
    return delta


def congested_interior(mask):
    """Erode a congested mask by one cell along every axis.

    The outermost congested cell sits on the free boundary and carries the
    compression spike of mass still arriving there; the divergence-free
    property claimed for jams concerns the open congested region, so the
    normalized comparison below measures the eroded interior.  Domain walls
    do not erode: a jam pressed against a wall keeps its wall-side cells.
    """
    eroded = mask.copy()
    for ax in range(mask.ndim):
        lo = [slice(None)] * mask.ndim
        hi = [slice(None)] * mask.ndim
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        # each cell needs both neighbours along ax; a wall counts as congested
        eroded[tuple(hi)] &= mask[tuple(lo)]
        eroded[tuple(lo)] &= mask[tuple(hi)]
    return eroded


def congested_divergence_report(states, barrier, delta_c=DEFAULT_CONGESTED_DELTA):
    """Compare div(barrier * velocity) inside jams against its global size.

    As the congestion pressure stiffens, flow inside jams must reorganize
    toward div(barrier * velocity) = 0 even though the free region keeps
    compressing; the normalized ratio returned here is what should decay
    across a stiffness sweep.  The numerator is restricted to the interior
    of the congested set (see ``congested_interior``) so the free-boundary
    cell does not mask the behavior of the jam proper.
    """
    [report] = congested_divergence_reports(states, barrier, (delta_c,))
    return report


def congested_divergence_reports(states, barrier, thresholds):
    """``congested_divergence_report`` for each of several ``delta_c``.

    The ratio field and div(barrier * velocity) are computed once per
    state and shared by the thresholds.
    """
    columns = [([], [], []) for _ in thresholds]
    for state in states:
        vol = state.grid.cell_volume
        ratio_field = state.rho_interior / barrier.interior
        div_sq = div_barrier_velocity(state, barrier) ** 2
        total = float(np.sqrt(np.sum(div_sq) * vol))
        for (times, ratios, counts), delta_c in zip(columns, thresholds):
            congested = ratio_field >= 1.0 - delta_c
            inside = float(np.sqrt(np.sum(div_sq[congested_interior(congested)]) * vol))
            times.append(float(state.t))
            ratios.append(inside / (total + DIVERGENCE_FLOOR))
            counts.append(int(np.count_nonzero(congested)))
    return [
        CongestedDivergenceReport(
            times=tuple(times), ratios=tuple(ratios), congested_counts=tuple(counts)
        )
        for times, ratios, counts in columns
    ]
