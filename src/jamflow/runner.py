"""Run orchestration: single runs, stiffness sweeps, on-disk artifacts."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from . import diagnostics
from .config import config_to_dict, serialize_config
from .diagnostics import CSV_COLUMNS
from .domain import build_barrier, make_state, validate_initial
from .errors import (
    BarrierViolation,
    DegenerateState,
    IoError,
    NonFinite,
    ParameterError,
    SpecError,
    StepFailure,
    ValidationError,
)
from .scenarios import ManufacturedSolution, build_initial
from .solver import StepStats, advance, next_tick

from pathlib import Path

__version__ = "0.1.0"

STATUS_EXIT = {"ok": 0, "invalid": 2, "solver_failure": 3}
SOLVER_ERRORS = (StepFailure, DegenerateState, NonFinite, BarrierViolation)
DELTA_C_SENSITIVITY = (0.02, 0.05, 0.1)


@dataclass
class RunResult:
    status: str
    records: list = field(default_factory=list)
    states: list = field(default_factory=list)
    final_state: object = None
    out_dir: Path | None = None
    wall_time: float = 0.0
    error: str | None = None
    # StepStats.summary() of the march; None when the run never started
    stats: dict | None = None

    @property
    def exit_code(self):
        return STATUS_EXIT[self.status]


def prepare_out_dir(path):
    """Create the output directory and prove it is writable."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise IoError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _fmt_float(x):
    return repr(float(x))


def _fmt_cell(value):
    if isinstance(value, str):
        return value
    return _fmt_float(value) if isinstance(value, float) else str(value)


def _write_table(path, columns, rows):
    """CSV with a header line of ``columns``, then each row's attributes."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt_cell(getattr(row, col)) for col in columns) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# perfbench's tracing wraps these two entry points by name
def _write_diagnostics(path, records):
    _write_table(path, CSV_COLUMNS, records)


def _write_sweep_csv(path, rows):
    _write_table(path, SWEEP_COLUMNS, rows)


def _write_snapshot(out_dir, state, barrier, tag=None):
    grid = state.grid
    stamp = tag if tag is not None else f"t{state.t:.6f}"
    meta = {
        "t": state.t,
        "cells": list(grid.cells),
        "extent": list(grid.extents),
    }
    snap_dir = out_dir / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    u = state.velocity(0.0)
    if grid.dim == 1:
        x = grid.centers(0)
        rows = ["x,rho,mom_x,u_x,barrier"]
        rho = state.rho_interior
        mom = state.mom_interior[0]
        ui = u[0][1:-1]
        bar = barrier.interior
        for i in range(grid.cells[0]):
            rows.append(
                ",".join(_fmt_float(v) for v in (x[i], rho[i], mom[i], ui[i], bar[i]))
            )
        (snap_dir / f"state_{stamp}.csv").write_text("\n".join(rows) + "\n")
    else:
        arrays = {
            "rho": state.rho_interior,
            "mom_x": state.mom_interior[0],
            "mom_y": state.mom_interior[1],
            "barrier": barrier.interior,
        }
        for name, arr in arrays.items():
            np.savetxt(snap_dir / f"state_{stamp}_{name}.csv", arr, delimiter=",")
    (snap_dir / f"state_{stamp}.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def _write_meta(out_dir, cfg, result):
    meta = {
        "package": f"jamflow {__version__}",
        "status": result.status,
        "error": result.error,
        "wall_time_s": result.wall_time,
        "n_records": len(result.records),
        "final_time": result.records[-1].t if result.records else None,
        "stats": result.stats,
        "config": config_to_dict(cfg),
        "config_text": serialize_config(cfg),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def build_problem(cfg):
    """Materialize barrier, initial data, and optional sources of a config.

    Returns ``(barrier, initial data, sources, manufactured solution)``;
    the last two are None except for ``manufactured_1d``.
    """
    barrier = build_barrier(cfg.barrier, cfg.grid)
    if cfg.scenario_name == "manufactured_1d":
        sol = ManufacturedSolution(cfg.law, cfg.fluid, cfg.barrier)
        sol.check_margin(cfg.solver.t_end, extent=cfg.grid.extents[0])
        data = sol.initial_data(cfg.grid)
        sources = sol.sources_for(cfg.grid)
        return barrier, data, sources, sol
    data = build_initial(cfg.initial, cfg.grid, barrier)
    return barrier, data, None, None


@dataclass
class _Member:
    """One run on its way through ``_run_members``."""

    cfg: object
    out: Path | None
    result: RunResult
    barrier: object = None
    state: object = None
    sources: object = None
    sink: object = None


def _prepare(cfg, out, started, keep_states, write_artifacts):
    """Build and check one run's problem; an inadmissible one ends here."""
    member = _Member(cfg=cfg, out=out, result=RunResult(status="ok", out_dir=out))
    result = member.result

    def invalid(error):
        result.status = "invalid"
        result.error = error
        result.wall_time = time.perf_counter() - started
        if write_artifacts:
            _write_meta(out, cfg, result)
        return member

    try:
        barrier, data, sources, _ = build_problem(cfg)
    except (SpecError, ParameterError, BarrierViolation) as exc:
        return invalid(str(exc))
    report = validate_initial(data, barrier)
    if not report.ok:
        return invalid(report.summary())

    state = make_state(cfg.grid, data.rho0, data.mom0)
    every = cfg.fields_every
    next_field_tick = every

    def sink(s, record):
        nonlocal next_field_tick
        result.records.append(record)
        if keep_states:
            result.states.append(s)
        if write_artifacts and every > 0 and s.t >= next_field_tick - 1e-12:
            _write_snapshot(out, s, barrier)
            next_field_tick = next_tick(s.t, 0.0, every)

    if write_artifacts:
        _write_snapshot(out, state, barrier, tag="initial")
    member.barrier, member.state, member.sources, member.sink = barrier, state, sources, sink
    return member


# glibc's malloc hands the free top of its heap back to the system once
# it exceeds M_TRIM_THRESHOLD, which starts at 128 KiB and grows only as
# large mmapped blocks are freed.  A 2D step frees its temporaries there,
# so each step returned pages and faulted them in again: 303k minor faults
# in a 96x96 crowd run to t=0.2 (829 with the fixed thresholds below),
# about 5 % of its wall time.  Fixed thresholds keep blocks under 32 MiB on
# the heap and its top until 64 MiB is free.  The trim threshold alone
# would send every block over 128 KiB to mmap, which is slower still.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_THRESHOLDS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


@lru_cache(maxsize=None)
def _keep_step_memory():
    """Keep freed step temporaries on the heap for the next step (glibc)."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        for param, value in _HEAP_THRESHOLDS:
            mallopt(param, value)


def _run_members(runs, started, keep_states=True, write_artifacts=True):
    """Prepare every ``(cfg, out)`` run, advance the admissible ones together.

    The runs differ at most in their pressure law (sweep members), so they
    share one grid, barrier, fluid and solver setting and advance in one
    pass; each keeps its own records, snapshots and status, and all share
    the pass's wall time.  Returns the prepared members, invalid ones
    included.
    """
    members = [_prepare(cfg, out, started, keep_states, write_artifacts) for cfg, out in runs]
    live = [m for m in members if m.state is not None]
    if not live:
        return members
    cfg = live[0].cfg
    _keep_step_memory()
    stats = [StepStats() for _ in live]
    outcomes = advance(
        [m.state for m in live], cfg.solver.t_end, [m.cfg.law for m in live], cfg.fluid,
        live[0].barrier, cfg.solver,
        sink=[m.sink for m in live], sources=[m.sources for m in live], stats=stats,
    )
    wall = time.perf_counter() - started
    for m, outcome, counts in zip(live, outcomes, stats):
        result = m.result
        result.stats = counts.summary()
        if isinstance(outcome, SOLVER_ERRORS):
            result.status = "solver_failure"
            result.error = f"{type(outcome).__name__}: {outcome}"
        else:
            result.final_state = outcome
        result.wall_time = wall
        if write_artifacts:
            _write_diagnostics(m.out / "diagnostics.csv", result.records)
            if result.final_state is not None:
                _write_snapshot(m.out, result.final_state, m.barrier, tag="final")
            _write_meta(m.out, m.cfg, result)
    return members


def run_once(cfg, out_dir=None, keep_states=True, write_artifacts=True):
    """Execute one configured run; always leaves meta.json behind."""
    started = time.perf_counter()
    out = None
    if write_artifacts:
        out = prepare_out_dir(out_dir or cfg.out_dir)
    [member] = _run_members([(cfg, out)], started, keep_states, write_artifacts)
    return member.result


# ---------------------------------------------------------------------------
# sweeps

@dataclass
class SweepRow:
    label: str
    value: float
    status: str
    final_max_ratio: float = float("nan")
    peak_max_ratio: float = float("nan")
    int_complementarity: float = float("nan")
    int_pi_l1: float = float("nan")
    mean_divu_congested: float = float("nan")
    matched_delta_c: float = float("nan")
    congested_ratio: float = float("nan")
    congested_snapshots: int = 0
    pi_l1_initial: float = float("nan")
    wall_time_s: float = 0.0


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass
class SweepOutcome:
    rows: list
    results: list
    summary: dict
    out_dir: Path | None

    @property
    def exit_code(self):
        """The worst member's exit code."""
        return max(STATUS_EXIT[r.status] for r in self.rows)


def _time_integral(records, attr):
    t = np.array([r.t for r in records])
    y = np.array([getattr(r, attr) for r in records])
    if t.size < 2:
        return 0.0
    return float(np.trapezoid(y, t))


def _row_from_result(label, value, res, barrier, law):
    """A member's sweep row, and its congested ratio per DELTA_C_SENSITIVITY."""
    row = SweepRow(label=label, value=value, status=res.status, wall_time_s=res.wall_time)
    if not res.records:
        return row, None
    recs = res.records
    row.final_max_ratio = recs[-1].max_ratio
    row.peak_max_ratio = max(r.max_ratio for r in recs)
    row.int_complementarity = _time_integral(recs, "complementarity")
    row.int_pi_l1 = _time_integral(recs, "pi_l1")
    row.pi_l1_initial = recs[0].pi_l1
    congested = [r.divu_congested for r in recs if r.congested_measure > 0]
    row.congested_snapshots = len(congested)
    row.mean_divu_congested = float(np.mean(congested)) if congested else 0.0
    if not res.states:
        return row, None
    delta = diagnostics.matched_congestion_delta(law, row.peak_max_ratio)
    thresholds = DELTA_C_SENSITIVITY if delta is None else (delta,) + DELTA_C_SENSITIVITY
    reports = diagnostics.congested_divergence_reports(res.states, barrier, thresholds)
    if delta is None:
        row.congested_ratio = 0.0
        row.congested_snapshots = 0
    else:
        row.matched_delta_c = delta
        row.congested_ratio = reports[0].mean_congested_ratio
        row.congested_snapshots = reports[0].congested_snapshots
    sensitivity = {
        str(dc): rep.mean_congested_ratio
        for dc, rep in zip(DELTA_C_SENSITIVITY, reports[-len(DELTA_C_SENSITIVITY):])
    }
    return row, sensitivity


def run_sweep(cfg, out_dir=None):
    """Run every sweep member, tolerating member failures.

    Every member directory is created before the members advance together
    in one pass (see ``_run_members``).  Rows are ordered by decreasing
    stiffness (or decreasing truncation delta); trend indicators land in
    summary.json.
    """
    if cfg.sweep is None:
        raise ValidationError([("sweep.kind", 0, "config carries no sweep plan")])
    # parse_config has built every member law; a plan made by hand meets
    # the law's own checks here, before anything is written
    plan = [
        (label, value, replace(cfg, law=replace(cfg.law, **law_fields), sweep=None))
        for label, value, law_fields in cfg.sweep.members()
    ]
    out = prepare_out_dir(out_dir or cfg.out_dir)
    started = time.perf_counter()
    runs = [(member, prepare_out_dir(out / label)) for label, _, member in plan]
    members = _run_members(runs, started)
    rows, sensitivity = [], {}
    for (label, value, _), m in zip(plan, members):
        row, sens = _row_from_result(label, value, m.result, m.barrier, m.cfg.law)
        if sens is not None:
            sensitivity[label] = sens
        rows.append(row)
        m.result.states = []  # runs can be large; metrics are already extracted
    summary = _sweep_summary(rows, sensitivity)
    _write_sweep_csv(out / "sweep.csv", rows)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    results = [m.result for m in members]
    return SweepOutcome(rows=rows, results=results, summary=summary, out_dir=out)


def _sweep_summary(rows, sensitivity):
    ok = [r for r in rows if r.status == "ok"]
    comp = [r.int_complementarity for r in ok]
    pis = [r.int_pi_l1 for r in ok if r.int_pi_l1 > 0]
    cong = [r for r in ok if r.congested_snapshots > 0]
    summary = {
        "n_members": len(rows),
        "n_ok": len(ok),
        "labels": [r.label for r in rows],
        "statuses": [r.status for r in rows],
        "complementarity_strictly_decreasing": bool(
            len(comp) >= 2 and all(a > b for a, b in zip(comp, comp[1:]))
        ),
        "complementarity_decrease_factor": (
            comp[0] / comp[-1] if len(comp) >= 2 and comp[-1] > 0 else None
        ),
        "pi_l1_max_over_min": (max(pis) / min(pis)) if pis else None,
        "congested_ratio_trend": [
            {"label": r.label, "ratio": r.congested_ratio, "delta_c": r.matched_delta_c}
            for r in cong
        ],
        "congested_ratio_decreasing": bool(
            len(cong) >= 2
            and all(
                a.congested_ratio > b.congested_ratio for a, b in zip(cong, cong[1:])
            )
        ),
        "delta_c_sensitivity": sensitivity,
        "pi_l1_initial_by_member": [
            {"label": r.label, "pi_l1_initial": r.pi_l1_initial} for r in rows
        ],
    }
    return summary
