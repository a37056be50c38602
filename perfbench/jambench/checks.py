"""Output checks behind ``failed_fraction``.

Every check returns a list of problems, one message each; an empty list
means the run passed.  The checks read the artifacts a run leaves on
disk, not the program's in-memory objects, and recompute the invariants
themselves, so a change to jamflow's own diagnostics cannot hide a defect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

MASS_DRIFT_MAX = 1e-12
# positive energy-budget residual allowed, as a share of the initial energy
ENERGY_RESIDUAL_SHARE = 1e-3
SWEEP_TRENDS = ("complementarity_strictly_decreasing", "congested_ratio_decreasing")


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_records(path):
    """``diagnostics.csv`` as a list of {column: float} rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def final_density(run_dir):
    """Interior density of the final snapshot a run wrote."""
    snaps = Path(run_dir) / "snapshots"
    one_d = snaps / "state_final.csv"
    if one_d.exists():
        return np.loadtxt(one_d, delimiter=",", skiprows=1, usecols=1)
    return np.loadtxt(snaps / "state_final_rho.csv", delimiter=",")


def status_problems(status, error):
    if status == "ok":
        return []
    return [f"status {status!r}: {error}"]


def record_problems(records, barrier_tol, t_end):
    """Barrier, mass, energy and horizon checks on one run's records."""
    if not records:
        return ["no diagnostics records"]
    problems = []
    if not all(math.isfinite(v) for rec in records for v in rec.values()):
        problems.append("non-finite value in diagnostics records")
    cap = 1.0 - barrier_tol
    worst = max(rec["max_ratio"] for rec in records)
    if worst > cap:
        problems.append(f"max_ratio {worst!r} exceeds 1 - barrier_tol = {cap!r}")
    m0 = records[0]["mass"]
    drift = max(abs(rec["mass"] - m0) for rec in records) / m0
    if not drift <= MASS_DRIFT_MAX:
        problems.append(f"relative mass drift {drift:.3e} above {MASS_DRIFT_MAX:g}")
    t = np.array([rec["t"] for rec in records])
    e = np.array([rec["kinetic"] + rec["internal"] + rec["singular_potential"] for rec in records])
    d = np.array([rec["dissipation_rate"] for rec in records])
    resid = np.diff(e) + 0.5 * (d[1:] + d[:-1]) * np.diff(t)
    positive = float(np.sum(np.clip(resid, 0.0, None)))
    if not positive <= ENERGY_RESIDUAL_SHARE * e[0]:
        problems.append(
            f"positive energy-budget residual {positive:.3e} above "
            f"{ENERGY_RESIDUAL_SHARE:g} * E0 = {ENERGY_RESIDUAL_SHARE * e[0]:.3e}"
        )
    if abs(t[-1] - t_end) > 1e-9 * max(1.0, t_end):
        problems.append(f"last record at t={t[-1]!r}, not at t_end={t_end!r}")
    return problems


def density_problems(rho):
    low = float(np.min(rho))
    return [f"final density {low!r} is negative"] if low < 0.0 else []


def jam_problems(records, required):
    """The run must reach the congested state its workload is chosen for."""
    if required is None:
        return []
    peak = max(rec["max_ratio"] for rec in records)
    if peak < required:
        return [f"peak max_ratio {peak:.4f} never reached {required} (no jam formed)"]
    return []


def digest_problems(digests):
    """``digests``: the diagnostics sha256 of every repeat of one run."""
    if len(set(digests)) > 1:
        return [f"diagnostics.csv sha256 differs between repeats: {sorted(set(digests))}"]
    return []


def sweep_problems(summary):
    return [
        f"summary.json lost {key}" for key in SWEEP_TRENDS if summary.get(key) is not True
    ]


def run_problems(run_dir, status, error, barrier_tol, t_end, jam_ratio=None):
    """All single-run checks on the artifacts in ``run_dir``."""
    problems = status_problems(status, error)
    diag = Path(run_dir) / "diagnostics.csv"
    if not diag.exists():
        return problems + ["diagnostics.csv missing"]
    records = read_records(diag)
    problems += record_problems(records, barrier_tol, t_end)
    if records:
        problems += jam_problems(records, jam_ratio)
    try:
        problems += density_problems(final_density(run_dir))
    except OSError as exc:
        problems.append(f"final snapshot unreadable: {exc}")
    return problems


def load_summary(sweep_dir):
    return json.loads((Path(sweep_dir) / "summary.json").read_text())
