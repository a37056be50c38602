"""Sweep members advanced together on a stacked member axis.

Every member of a sweep must leave the same artifacts, take the same
accepted steps and end with the same status and error text as a solo run
of its own config.
"""

import dataclasses
import time

import numpy as np
import pytest

from jamflow import SedimentationLaw, TruncatedLaw, runner
from jamflow.config import parse_config
from jamflow.pressure import stack_laws
from jamflow.runner import run_once, run_sweep

from test_runner import CRASH


class StepCounter:
    """Wraps the runner's ``advance`` to count accepted steps per member law."""

    def __init__(self, real):
        self.real = real
        self.steps = {}
        self.calls = []

    def __call__(self, states, t_target, laws, *args, **kwargs):
        self.calls.append(len(states))
        kwargs["step_hook"] = [self._hook(law) for law in laws]
        return self.real(states, t_target, laws, *args, **kwargs)

    def _hook(self, law):
        self.steps[law] = 0

        def count(prev, new, dt):
            self.steps[law] += 1

        return count


@pytest.fixture
def counter(monkeypatch):
    counting = StepCounter(runner.advance)
    monkeypatch.setattr(runner, "advance", counting)
    return counting


def _files(run_dir):
    """Every artifact of a run but meta.json, which carries the wall time."""
    return {
        p.relative_to(run_dir).as_posix(): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "meta.json"
    }


def assert_members_match_solo(tmp_path, text, counter):
    cfg = parse_config(text)
    outcome = run_sweep(cfg, out_dir=tmp_path / "sweep")
    members = [(label, value, dataclasses.replace(cfg, law=dataclasses.replace(cfg.law, **f), sweep=None), None) for label, value, f in cfg.sweep.members()]
    assert counter.calls == [len(members)]  # one pass for the whole sweep
    batched_steps = dict(counter.steps)
    for (label, _, member, _), row, res in zip(members, outcome.rows, outcome.results):
        counter.steps.clear()
        solo = run_once(member, out_dir=tmp_path / "solo" / label)
        assert (res.status, res.error) == (solo.status, solo.error), label
        assert row.status == solo.status
        assert batched_steps[member.law] == counter.steps[member.law] > 0, label
        batched_files = _files(tmp_path / "sweep" / label)
        assert "diagnostics.csv" in batched_files
        assert batched_files == _files(tmp_path / "solo" / label), label
        assert res.records == solo.records
    return outcome, batched_steps


def test_traffic_eps_sweep_matches_solo_runs(tmp_path, counter):
    outcome, steps = assert_members_match_solo(
        tmp_path,
        "[scenario]\nname = traffic_1d\n[solver]\nt_end = 0.05\n"
        "[sweep]\nkind = eps\nvalues = 1e-2, 1e-3, 1e-4\n",
        counter,
    )
    assert all(r.status == "ok" for r in outcome.rows)
    # each member sizes its own steps, so they reach t_end on different passes
    assert len(set(steps.values())) > 1


KAPPA_DELTA = (
    "[scenario]\nname = traffic_1d\n"
    "[grid]\ncells = 40\n"
    "[pressure]\nkind = truncated\neps = 0.001\nalpha = 3.0\nbeta = 3.0\n"
    "kappa = 1.0\ncap_k = 6.0\ndelta = 0.1\n"
)


@pytest.mark.parametrize(
    "tail",
    [
        # the sweep of test_runner
        "[solver]\nt_end = 0.02\nsnapshot_every = 0.01\n"
        "[sweep]\nkind = kappa_delta\npairs = 1.0:0.05, 1.0:0.1\n",
        # delta = 0.3 caps the law below the peak ratio ~0.8 of this run
        "[solver]\nt_end = 0.3\nsnapshot_every = 0.01\n"
        "[sweep]\nkind = kappa_delta\npairs = 1.0:0.3, 2.0:0.25, 1.0:0.05\n",
    ],
)
def test_kappa_delta_sweep_matches_solo_runs(tmp_path, counter, tail):
    outcome, _ = assert_members_match_solo(tmp_path, KAPPA_DELTA + tail, counter)
    assert all(r.status == "ok" for r in outcome.rows)


def test_manufactured_sweep_uses_each_members_sources(tmp_path, counter):
    outcome, _ = assert_members_match_solo(
        tmp_path,
        "[scenario]\nname = manufactured_1d\n[grid]\ncells = 50\n[solver]\nt_end = 0.05\n"
        "[sweep]\nkind = eps\nvalues = 1e-2, 1e-3\n",
        counter,
    )
    assert all(r.status == "ok" for r in outcome.rows)


def test_crowd_2d_sweep_matches_solo_runs(tmp_path, counter):
    outcome, _ = assert_members_match_solo(
        tmp_path,
        "[scenario]\nname = crowd_blob_2d\n[grid]\ncells = 24, 20\n"
        "[solver]\nt_end = 0.05\n[output]\nfields_every = 0.02\n"
        "[sweep]\nkind = eps\nvalues = 1e-2, 1e-4\n",
        counter,
    )
    assert all(r.status == "ok" for r in outcome.rows)


def test_failed_member_leaves_the_others_running(tmp_path, counter):
    # at eps = 1e-3 the crash drives the ratio past 1 - barrier_tol = 0.95
    # near t = 0.0036 at any step size; at eps = 1e-2 it peaks near 0.93
    text = CRASH.replace("barrier_tol = 0.09", "barrier_tol = 0.05").replace(
        "max_substeps = 3\n", "max_substeps = 3\nsnapshot_every = 0.001\n"
    )
    outcome, _ = assert_members_match_solo(
        tmp_path, text + "[sweep]\nkind = eps\nvalues = 1e-2, 1e-3\n", counter
    )
    ok, failed = outcome.results
    assert [r.status for r in outcome.rows] == ["ok", "solver_failure"]
    assert failed.error.startswith("StepFailure: no admissible step")
    # the failure came mid-run: its records up to then are kept
    assert 1 < len(failed.records) < len(ok.records)
    assert ok.records[-1].t == pytest.approx(0.1)


def test_stacked_law_evaluates_each_member_exactly():
    laws = [
        TruncatedLaw(eps=1e-3, alpha=3.0, beta=3.0, kappa=k, cap_k=6.0, delta=d)
        for k, d in ((1.0, 0.3), (2.0, 0.25), (1.0, 0.05))
    ]
    stacked = stack_laws(laws, 1)
    assert stacked.eps == 1e-3 and stacked.kappa.shape == (3, 1)
    r = np.linspace(0.0, 0.99, 397)
    rs = np.stack([r] * 3)
    for name in ("pressure", "pressure_deriv", "enthalpy", "energy_potential"):
        out = getattr(stacked, name)(rs)
        for m, law in enumerate(laws):
            assert out[m].tobytes() == getattr(law, name)(r).tobytes(), name


def test_sedimentation_laws_with_different_packing_fractions_advance_together(counter):
    # the ratio view of each member carries its own c0 * phi_star**(s_exp - 1)
    cfg = parse_config(
        "[scenario]\nname = traffic_1d\n[grid]\ncells = 40\n"
        "[pressure]\nkind = sedimentation\nc0 = 0.01\ns_exp = 3.0\n"
        "[solver]\nt_end = 0.05\n"
    )
    configs = [cfg, dataclasses.replace(cfg, law=SedimentationLaw(0.02, 3.0, phi_star=0.6))]
    members = runner._run_members(
        [(c, None) for c in configs], time.perf_counter(), write_artifacts=False
    )
    assert counter.calls == [2]
    for c, m in zip(configs, members):
        solo = run_once(c, write_artifacts=False)
        assert m.result.status == solo.status == "ok"
        assert len(m.result.records) > 1
        assert m.result.records == solo.records
