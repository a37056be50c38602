"""Span store and self-time math; a traced run's spans and counts."""

import json
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from jambench.tracing import SpanStore, SpanTable, self_times


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    clock = FakeClock([0, 1, 2, 3, 4, 5, 9, 10])
    store = SpanStore(clock)
    with store.span("root"):
        with store.span("a"):
            with store.span("c"):
                pass
        with store.span("b"):
            pass
    assert list(store.parent) == [-1, 0, 1, 0]
    assert self_times(store.start, store.end, store.parent) == [3, 2, 1, 4]
    table = SpanTable(store)
    assert table.seconds("root") == 10
    assert table.self_seconds("root") == 3
    assert table.child_coverage("root") == pytest.approx(0.7)


def test_overlapping_children_count_once_and_are_clipped():
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 5.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 6] and [8, 10] of the root: 7 of its 10
    assert self_times(start, end, parent)[0] == pytest.approx(3.0)


def test_nested_calls_of_one_group_are_not_counted_twice():
    clock = FakeClock([0, 1, 2, 3, 4, 6])
    store = SpanStore(clock)
    with store.span("pressure.law.enthalpy"):
        with store.span("pressure.law.pressure"):
            pass
        with store.span("other"):
            pass
    table = SpanTable(store)
    assert table.group_seconds("pressure.law.") == 6
    assert table.group_calls("pressure.law.") == 1


def test_counts_and_runs():
    store = SpanStore()
    store.new_run("eps_0.01")
    store.count("solver.steps_accepted", 3)
    store.new_run("eps_0.001")
    store.count("solver.steps_accepted")
    assert store.total("solver.steps_accepted") == 4
    assert store.total("solver.steps_accepted", run=2) == 1


TRACED_RUN = r"""
import json, sys, warnings
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import jamflow
from jamflow import runner
from jambench import tracing
warnings.simplefilter("ignore", jamflow.SteepnessWarning)
text = "[scenario]\nname = traffic_1d\n[solver]\nt_end = 0.02\n"
plain = runner.run_once(jamflow.parse_config(text), write_artifacts=False, keep_states=False)
store = tracing.SpanStore()
tracing.instrument(store, jamflow, sweep=False)
traced = runner.run_once(jamflow.parse_config(text), write_artifacts=False, keep_states=False)
table = tracing.SpanTable(store)
print(json.dumps({
    "same_records": plain.records == traced.records,
    "metrics": tracing.layer_metrics(store, table, 0, 0),
    "stable_dt_calls": table.calls("solver.stable_dt"),
    "step_calls": table.calls("solver.step"),
    "coverage": table.child_coverage("solver.advance"),
}))
"""


@pytest.fixture(scope="module")
def traced_run():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(BENCH), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracing_leaves_the_numerics_alone(traced_run):
    assert traced_run["same_records"]


def test_steps_accepted_are_the_stable_dt_calls(traced_run):
    m = traced_run["metrics"]
    assert m["solver.steps_accepted"] == traced_run["stable_dt_calls"] > 0
    assert m["solver.steps_rejected"] == 0
    assert traced_run["step_calls"] == m["solver.steps_accepted"]


def test_dt_bound_counts_sum_to_steps_accepted(traced_run):
    m = traced_run["metrics"]
    bounds = [m[f"solver.dt_bound.{b}"] for b in
              ("advective", "gas_acoustic", "congestion_acoustic", "viscous")]
    assert sum(bounds) == m["solver.steps_accepted"]


def test_spans_under_advance_cover_it_less_glue(traced_run):
    # the loop bookkeeping in advance itself is the only untraced glue
    assert 0.9 <= traced_run["coverage"] <= 1.0
