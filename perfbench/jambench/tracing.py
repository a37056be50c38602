"""Span store, self-time math and the wrappers of the traced run.

The traced run wraps the public entry points of each jamflow module from
the benchmark's side (module attributes and class methods are replaced at
run time); nothing inside the package changes.  Each wrapped call records
one span: name, start, end, parent span and run id.  Spans stay in memory
in flat arrays and are written out once, at the end.  A span's self time is
its duration less the part of it that its child spans cover.

Besides spans the store keeps exact counts at the same boundaries: steps
accepted and rejected, the dt each accepted step received, which rate
bounded it, and ``scipy.integrate.quad`` calls made by ``jamflow.pressure``.

``SpanStore`` and ``self_times`` use only the standard library, so a worker
can start recording before it imports jamflow.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

DT_BOUNDS = ("advective", "gas_acoustic", "congestion_acoustic", "viscous")
# spans the benchmark adds for its own bookkeeping; they are not program time
OWN_PREFIX = "bench."


class SpanStore:
    """In-memory spans (name, start, end, parent, run) plus exact counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self._open = []
        self.run_id = 0
        self.labels = {0: "setup"}
        self.counts = {}
        self.dts = {}
        # wrappers pass straight through while set (the benchmark's own calls)
        self.suspended = False

    def new_run(self, label):
        self.run_id = len(self.labels)
        self.labels[self.run_id] = label
        self.dts[self.run_id] = array("d")
        return self.run_id

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx):
        self.end[idx] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def count(self, key, n=1):
        k = (self.run_id, key)
        self.counts[k] = self.counts.get(k, 0) + n

    def total(self, key, run=None):
        return sum(v for (r, k), v in self.counts.items() if k == key and run in (None, r))

    def __len__(self):
        return len(self.name_id)

    def dump(self, path):
        """Write every span and count to ``path`` (JSON) and return the path."""
        path = Path(path)
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "labels": {str(k): v for k, v in self.labels.items()},
                    "counts": [[r, k, v] for (r, k), v in sorted(self.counts.items())],
                    "spans": {
                        "name": self.name_id.tolist(),
                        "start": self.start.tolist(),
                        "end": self.end.tolist(),
                        "parent": self.parent.tolist(),
                        "run": self.run.tolist(),
                    },
                }
            )
        )
        return path


def self_times(start, end, parent):
    """Each span's duration less the union of its children's intervals.

    Children are clipped to their parent's interval and merged where they
    overlap, so the result never goes below zero for well-formed spans.
    """
    n = len(start)
    covered = [0.0] * n
    kids = sorted((p, start[i], i) for i, p in enumerate(parent) if p >= 0)
    prev, cursor = -1, 0.0
    for p, s, i in kids:
        if p != prev:
            prev, cursor = p, start[p]
        lo = max(s, cursor)
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class SpanTable:
    """Span sums per (name, parent name, run id), from one pass over a store."""

    def __init__(self, store):
        names, nid, parent = store.names, store.name_id, store.parent
        own = self_times(store.start, store.end, parent)
        self.rows = {}
        for i in range(len(nid)):
            p = parent[i]
            key = (names[nid[i]], names[nid[p]] if p >= 0 else None, store.run[i])
            row = self.rows.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += store.end[i] - store.start[i]
            row[2] += own[i]

    def _sum(self, col, match, run, parent=None):
        total = 0
        for (name, pname, r), row in self.rows.items():
            if not match(name) or (run is not None and r != run):
                continue
            if parent is not None:
                if pname != parent:
                    continue
            elif pname is not None and match(pname):
                # a wrapped call made from inside another call of the same
                # group is already inside that call's time
                continue
            total += row[col]
        return total

    def calls(self, name, run=None):
        return self._sum(0, name.__eq__, run)

    def seconds(self, name, run=None):
        return self._sum(1, name.__eq__, run)

    def self_seconds(self, name, run=None):
        return self._sum(2, name.__eq__, run)

    def group_calls(self, prefix, run=None):
        return self._sum(0, lambda n: n.startswith(prefix), run)

    def group_seconds(self, prefix, run=None):
        return self._sum(1, lambda n: n.startswith(prefix), run)

    def own_seconds_under(self, name, run=None):
        """Time of the benchmark's own spans directly under ``name`` spans."""
        return self._sum(1, lambda n: n.startswith(OWN_PREFIX), run, parent=name)

    def child_coverage(self, name, run=None):
        """Share of the ``name`` spans' time that their child spans cover."""
        total = self.seconds(name, run)
        return (total - self.self_seconds(name, run)) / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# instrumentation of jamflow

# (module, attribute the callers look up, span name)
MODULE_ENTRY_POINTS = (
    ("runner", "build_problem", "runner.build_problem"),
    ("runner", "build_barrier", "domain.build_barrier"),
    ("runner", "make_state", "domain.make_state"),
    ("runner", "validate_initial", "domain.validate_initial"),
    ("runner", "build_initial", "scenarios.build_initial"),
    ("runner", "advance", "solver.advance"),
    ("runner", "prepare_out_dir", "runner.io.prepare_out_dir"),
    ("runner", "_write_diagnostics", "runner.io.write_diagnostics"),
    ("runner", "_write_snapshot", "runner.io.write_snapshot"),
    ("runner", "_write_meta", "runner.io.write_meta"),
    ("runner", "_write_sweep_csv", "runner.io.write_sweep_csv"),
    ("diagnostics", "collect", "diagnostics.collect"),
    ("diagnostics", "congested_divergence_report", "diagnostics.congested_divergence_report"),
    ("diagnostics", "matched_congestion_delta", "diagnostics.matched_congestion_delta"),
)
# (class in jamflow.pressure, methods, span prefix)
CLASS_ENTRY_POINTS = (
    ("PressureLawBase", ("pressure", "pressure_deriv", "enthalpy", "energy_potential"), "pressure.law."),
    ("FluidParams", ("pressure", "enthalpy"), "pressure.fluid."),
)
QUAD_CACHES = ("_quad_energy_steep", "_quad_energy_sediment")


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside ``jamflow.pressure``."""

    def __init__(self, module, store):
        self._module = module
        self._store = store

    def quad(self, *args, **kwargs):
        if not self._store.suspended:
            self._store.count("pressure.quad.calls")
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def dt_bound(state, law, params, barrier, solver):
    """Name of the largest term of the combined rate at its argmax cell.

    Recomputes ``stable_dt``'s per-cell rate, sum over axes of
    (|u| + c) / dx plus the viscous 2(2mu + lam) sum(1/dx**2) / rho, from
    the public ``effective_sound_speed``, ``vacuum_floor`` and
    ``FlowState.velocity``, and splits the sound speed c**2 into its gas
    part gamma * rho**(gamma - 1) and the congestion rest.
    """
    import numpy as np

    grid = state.grid
    dim = grid.dim
    inv = [1.0 / h for h in grid.dx]
    floor = solver.vacuum_floor(barrier)
    c = solver.effective_sound_speed(state, law, params, barrier)
    u = state.velocity(floor)[(slice(None),) + (slice(1, -1),) * dim]
    rho = state.rho_interior
    adv = sum(np.abs(u[ax]) * inv[ax] for ax in range(dim))
    c_gas = np.sqrt(params.gamma * rho ** (params.gamma - 1.0))
    c_cong = np.sqrt(np.maximum(c * c - c_gas * c_gas, 0.0))
    visc_coef = 2.0 * (2.0 * params.mu + params.lam) * sum(h * h for h in inv)
    safe = np.where(rho > floor, rho, 1.0)
    visc = np.where(rho > floor, visc_coef / safe, 0.0)
    rate = adv + c * sum(inv) + visc
    cell = int(np.argmax(rate))
    terms = (
        adv.flat[cell],
        c_gas.flat[cell] * sum(inv),
        c_cong.flat[cell] * sum(inv),
        visc.flat[cell],
    )
    return DT_BOUNDS[max(range(4), key=terms.__getitem__)]


def instrument(store, jamflow, sweep):
    """Install the traced wrappers into ``jamflow``'s modules.

    Returns the names of entry points that were missing, so a renamed one
    shows up in the report instead of silently reading zero.
    """
    from jamflow import diagnostics, pressure, runner, solver

    modules = {"runner": runner, "diagnostics": diagnostics}
    missing = []
    for mod_name, attr, span_name in MODULE_ENTRY_POINTS:
        mod = modules[mod_name]
        if not hasattr(mod, attr):
            missing.append(f"{mod_name}.{attr}")
            continue
        setattr(mod, attr, store.wrap(getattr(mod, attr), span_name))
    for cls_name, methods, prefix in CLASS_ENTRY_POINTS:
        cls = getattr(pressure, cls_name, None)
        for meth in methods:
            if cls is None or not hasattr(cls, meth):
                missing.append(f"pressure.{cls_name}.{meth}")
                continue
            setattr(cls, meth, store.wrap(getattr(cls, meth), prefix + meth))
    if hasattr(pressure, "integrate"):
        pressure.integrate = _CountingIntegrate(pressure.integrate, store)
    else:
        missing.append("pressure.integrate")

    run_once = store.wrap(runner.run_once, "runner.run_once")

    @functools.wraps(runner.run_once)
    def traced_run_once(cfg, out_dir=None, *args, **kwargs):
        label = Path(out_dir).name if sweep and out_dir is not None else "run"
        run = store.new_run(label)
        store.counts[(run, "cells")] = math.prod(cfg.grid.cells)
        return run_once(cfg, out_dir, *args, **kwargs)

    runner.run_once = traced_run_once
    runner.run_sweep = store.wrap(runner.run_sweep, "runner.run_sweep")

    stable_dt = solver.stable_dt
    step = solver.step
    barrier_violation = jamflow.BarrierViolation

    @functools.wraps(stable_dt)
    def traced_stable_dt(state, law, params, barrier, *args, **kwargs):
        idx = store.begin("solver.stable_dt")
        try:
            dt = stable_dt(state, law, params, barrier, *args, **kwargs)
        finally:
            store.finish(idx)
        store.count("solver.steps_accepted")
        with store.span(OWN_PREFIX + "dt_bound"):
            store.suspended = True
            try:
                store.count("solver.dt_bound." + dt_bound(state, law, params, barrier, solver))
            finally:
                store.suspended = False
        return dt

    @functools.wraps(step)
    def traced_step(state, dt, *args, **kwargs):
        store.count("solver.step_calls")
        idx = store.begin("solver.step")
        try:
            new = step(state, dt, *args, **kwargs)
        except barrier_violation:
            store.count("solver.steps_rejected")
            raise
        finally:
            store.finish(idx)
        store.dts[store.run_id].append(dt)
        return new

    solver.stable_dt = traced_stable_dt
    solver.step = traced_step
    return missing


def quad_cache_info(pressure):
    hits = misses = 0
    for name in QUAD_CACHES:
        fn = getattr(pressure, name, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


# ---------------------------------------------------------------------------
# per-layer metrics

def step_counts(store, run=None):
    """Exact, deterministic counts of one run id, or of all runs."""
    out = {
        "solver.steps_accepted": store.total("solver.steps_accepted", run),
        "solver.steps_rejected": store.total("solver.steps_rejected", run),
    }
    for bound in DT_BOUNDS:
        out[f"solver.dt_bound.{bound}"] = store.total(f"solver.dt_bound.{bound}", run)
    out["pressure.quad.calls"] = store.total("pressure.quad.calls", run)
    return out


def layer_metrics(store, table, quad_hits, quad_misses):
    """Every per-layer metric, aggregated over the runs of one process."""
    m = step_counts(store)
    accepted = m["solver.steps_accepted"]
    step_calls = store.total("solver.step_calls")
    m["solver.step_accept_ratio"] = accepted / step_calls if step_calls else 0.0
    dts = [dt for run_dts in store.dts.values() for dt in run_dts] or [0.0]
    m["solver.dt_min"] = min(dts)
    m["solver.dt_median"] = statistics.median(dts)
    m["solver.dt_max"] = max(dts)
    for name in ("solver.stable_dt", "solver.step"):
        m[f"{name}.s"] = table.seconds(name)
        m[f"{name}.self_s"] = table.self_seconds(name)
    m["solver.advance.s"] = table.seconds("solver.advance") - table.own_seconds_under(
        "solver.advance"
    )
    cell_steps = sum(
        store.total("solver.steps_accepted", run) * store.counts.get((run, "cells"), 0)
        for run in store.labels
    )
    m["solver.us_per_cell_step"] = (
        1e6 * (m["solver.stable_dt.s"] + m["solver.step.s"]) / cell_steps if cell_steps else 0.0
    )
    m["pressure.law.s"] = table.group_seconds("pressure.law.")
    m["pressure.law.calls"] = table.group_calls("pressure.law.")
    m["pressure.fluid.s"] = table.group_seconds("pressure.fluid.")
    lookups = quad_hits + quad_misses
    m["pressure.quad_cache.hit_ratio"] = quad_hits / lookups if lookups else 0.0
    m["diagnostics.collect.s"] = table.seconds("diagnostics.collect")
    m["diagnostics.collect.calls"] = table.calls("diagnostics.collect")
    m["diagnostics.congested_divergence_report.s"] = table.seconds(
        "diagnostics.congested_divergence_report"
    )
    m["runner.io.s"] = table.group_seconds("runner.io.")
    sweep_s = table.seconds("runner.run_sweep")
    m["runner.sweep_post.s"] = sweep_s - table.seconds("runner.run_once") if sweep_s else 0.0
    m["runner.build_problem.s"] = table.seconds("runner.build_problem")
    m["domain.validate_initial.s"] = table.seconds("domain.validate_initial")
    m["scenarios.build_initial.s"] = table.seconds("scenarios.build_initial")
    m["config.parse_config.s"] = table.seconds("config.parse_config")
    m["package.import_s"] = table.seconds("package.import")
    return m
