"""The output checks behind failed_fraction flag each defect on its own."""

import math

import numpy as np
import pytest

from jambench import checks

BARRIER_TOL = 1e-6
T_END = 0.02


def _records(n=5):
    out = []
    for i in range(n):
        t = T_END * i / (n - 1)
        out.append(
            {
                "t": t,
                "kinetic": 1.0 - 0.1 * t,
                "internal": 2.0,
                "singular_potential": 0.5,
                "dissipation_rate": 0.1,
                "mass": 0.3,
                "max_ratio": 0.9,
                "congested_measure": 0.0,
                "pi_l1": 0.01,
                "complementarity": 0.001,
                "divu_congested": 0.0,
            }
        )
    return out


def test_clean_records_pass():
    assert checks.record_problems(_records(), BARRIER_TOL, T_END) == []


@pytest.mark.parametrize(
    "field, value, phrase",
    [
        ("max_ratio", 1.0 - 0.5 * BARRIER_TOL, "exceeds 1 - barrier_tol"),
        ("mass", 0.3 * (1.0 + 1e-9), "mass drift"),
        ("kinetic", 5.0, "energy-budget residual"),
        ("divu_congested", math.nan, "non-finite"),
    ],
)
def test_corrupted_record_is_flagged(field, value, phrase):
    recs = _records()
    recs[3][field] = value
    problems = checks.record_problems(recs, BARRIER_TOL, T_END)
    assert any(phrase in p for p in problems), problems


def test_run_that_stops_early_is_flagged():
    problems = checks.record_problems(_records()[:-1], BARRIER_TOL, T_END)
    assert any("not at t_end" in p for p in problems), problems


def test_mismatched_digest_is_flagged():
    assert checks.digest_problems(["a" * 64, "a" * 64]) == []
    problems = checks.digest_problems(["a" * 64, "b" * 64])
    assert len(problems) == 1 and "differs between repeats" in problems[0]


def test_negative_density_and_failed_status_are_flagged():
    assert checks.density_problems(np.array([0.1, 0.2])) == []
    assert checks.density_problems(np.array([0.1, -1e-18]))
    assert checks.status_problems("ok", None) == []
    assert checks.status_problems("solver_failure", "StepFailure: boom")


def test_sweep_losing_a_trend_is_flagged():
    good = {key: True for key in checks.SWEEP_TRENDS}
    assert checks.sweep_problems(good) == []
    for key in checks.SWEEP_TRENDS:
        problems = checks.sweep_problems({**good, key: False})
        assert problems == [f"summary.json lost {key}"]


def test_missing_jam_is_flagged():
    assert checks.jam_problems(_records(), None) == []
    assert checks.jam_problems(_records(), 0.95)
