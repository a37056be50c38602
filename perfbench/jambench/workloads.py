"""Benchmark workloads as jamflow config texts, generated from a seed.

Seed 0 gives the exact bundled presets, with each workload's fixed
settings.  Any other seed perturbs only the initial bump (center,
amplitude) and the initial velocity, inside ranges checked to keep the jam
forming and the sweep trends (acceptance criteria 04 and 05) passing.  The
ranges are also narrow in work: the base density, which sets the viscous
time-step bound, is never perturbed, and the 1D velocity moves by at most
0.004 because the sweep's step count grows about 2.8% per 0.01 of it.

The horizons are cut to fit the benchmark's run-time budget, but each run
still reaches the congested state it is chosen for (see ``jam``): the
sweep's eps=1e-3 member first reaches ratio 0.95 at t~0.80, the crowd run
at t~0.163.  Why each workload was chosen is recorded in BENCHMARK.json.

This module imports only the standard library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SWEEP_EPS = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" (run_sweep) or "run" (run_once)
    scenario: str
    # fixed config lines, section -> {key: value}
    fixed: dict
    # seed perturbation: key -> (preset value, half-width of the uniform range)
    perturb: dict
    # member label -> ratio its peak max_ratio must reach (the jam formed)
    jam: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_traffic_1d",
            kind="sweep",
            scenario="traffic_1d",
            fixed={
                "solver": {"t_end": "0.9"},
                "sweep": {"kind": "eps", "values": ", ".join(repr(v) for v in SWEEP_EPS)},
            },
            perturb={
                "initial_center": ((0.3,), 0.02),
                "initial_amp": (0.4, 0.02),
                "velocity": ((0.5,), 0.004),
            },
            jam={"eps_0.001": 0.95, "eps_0.0001": 0.95},
        ),
        Workload(
            name="crowd_2d_fields",
            kind="run",
            scenario="crowd_blob_2d",
            fixed={"solver": {"t_end": "0.2"}, "output": {"fields_every": "0.01"}},
            perturb={
                "initial_center": ((0.32, 0.5), 0.015),
                "initial_amp": (0.5, 0.02),
                "velocity": ((1.0, 0.0), 0.01),
            },
            jam={"run": 0.95},
        ),
        Workload(
            name="fractional_law_1d",
            kind="run",
            scenario="traffic_1d",
            fixed={"pressure": {"alpha": "2.5"}, "solver": {"t_end": "0.05"}},
            perturb={
                "initial_center": ((0.3,), 0.02),
                "initial_amp": (0.4, 0.02),
                "velocity": ((0.5,), 0.004),
            },
            jam={},
        ),
    )
}


def _fmt(value):
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value)


def perturbation(workload, seed):
    """Scenario-section overrides for ``seed``; empty for seed 0."""
    if seed == 0:
        return {}
    rng = random.Random(f"{workload.name}:{seed}")
    out = {}
    for key, (preset, half) in sorted(workload.perturb.items()):
        if isinstance(preset, tuple):
            value = tuple(round(p + rng.uniform(-half, half), 6) for p in preset)
        else:
            value = round(preset + rng.uniform(-half, half), 6)
        out[key] = _fmt(value)
    return out


def config_text(workload, seed):
    """INI text handed to ``jamflow.parse_config`` for one workload and seed."""
    sections = {"scenario": {"name": workload.scenario, **perturbation(workload, seed)}}
    for section, entries in workload.fixed.items():
        sections.setdefault(section, {}).update(entries)
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"
