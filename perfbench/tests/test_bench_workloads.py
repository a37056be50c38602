"""Seeded workload configs, and BENCHMARK.json against the metric tables."""

import json
import shutil
import subprocess
import sys
import warnings

import pytest

from conftest import BENCH, ROOT
from jambench import metrics, workloads
from jamflow import SteepnessWarning, parse_config

ALL = sorted(workloads.WORKLOADS)


def _parse(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SteepnessWarning)
        return parse_config(text)


@pytest.mark.parametrize("name", ALL)
def test_seed_zero_runs_the_exact_preset(name):
    wl = workloads.WORKLOADS[name]
    assert workloads.perturbation(wl, 0) == {}
    cfg = _parse(workloads.config_text(wl, 0))
    preset = _parse(f"[scenario]\nname = {wl.scenario}\n")
    assert cfg.initial == preset.initial
    assert cfg.barrier == preset.barrier
    assert cfg.grid == preset.grid


@pytest.mark.parametrize("name", ALL)
def test_seeds_perturb_only_the_initial_bump_and_velocity(name):
    wl = workloads.WORKLOADS[name]
    base = _parse(workloads.config_text(wl, 0))
    texts = {seed: workloads.config_text(wl, seed) for seed in range(1, 21)}
    assert texts[3] == workloads.config_text(wl, 3)
    assert len(set(texts.values())) == len(texts)
    for text in texts.values():
        cfg = _parse(text)
        assert (cfg.law, cfg.fluid, cfg.solver, cfg.grid, cfg.barrier, cfg.sweep) == (
            base.law, base.fluid, base.solver, base.grid, base.barrier, base.sweep,
        )
        prof, ref = cfg.initial.profile, base.initial.profile
        assert (prof.base, prof.width) == (ref.base, ref.width)
        _, half = wl.perturb["initial_amp"]
        assert abs(prof.amp - ref.amp) <= half
        _, half = wl.perturb["initial_center"]
        assert all(abs(a - b) <= half for a, b in zip(prof.center, ref.center))
        _, half = wl.perturb["velocity"]
        assert all(
            abs(a - b) <= half for a, b in zip(cfg.initial.velocity, base.initial.velocity)
        )


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == ALL
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", ALL[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
