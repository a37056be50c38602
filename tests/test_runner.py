"""Run orchestration: artifacts on disk, failure routing, sweeps, CLI."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from jamflow.cli import main
from jamflow.config import SweepPlan, parse_config
from jamflow.domain import make_state
from jamflow.errors import IoError, ParameterError, ValidationError
from jamflow.runner import (
    RunResult,
    SWEEP_COLUMNS,
    build_problem,
    prepare_out_dir,
    run_once,
    run_sweep,
)
from jamflow.solver import advance, first_dt, projected_steps, stable_dt

TINY = (
    "[scenario]\nname = traffic_1d\n"
    "[grid]\ncells = 40\n"
    "[solver]\nt_end = 0.04\nsnapshot_every = 0.01\n"
    "[output]\nfields_every = 0.02\n"
)

# environment of a fresh interpreter that imports jamflow from this tree
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

CRASH = (
    "[scenario]\n"
    "name = custom\n"
    "initial_kind = constant\n"
    "initial_value = 0.55\n"
    "velocity = 0.3\n"
    "[grid]\ncells = 40\n"
    "[barrier]\nkind = tanh_step\nleft = 1.0\nright = 0.6\ncenter = 0.5\nwidth = 0.05\n"
    "[pressure]\nkind = singular\neps = 0.001\nalpha = 3.0\nbeta = 3.0\n"
    "[fluid]\nmu = 0.005\ngamma = 8.0\n"
    "[solver]\nt_end = 0.1\nbarrier_tol = 0.09\nmax_substeps = 3\n"
)


# two of the three kappa:delta pairs cannot build a truncated law
KAPPA_DELTA_BAD = (
    "[scenario]\nname = traffic_1d\n"
    "[grid]\ncells = 40\n"
    "[pressure]\nkind = truncated\nkappa = 1.0\ncap_k = 5.0\ndelta = 0.1\n"
    "[solver]\nt_end = 0.01\n"
    "[sweep]\nkind = kappa_delta\npairs = 1.0:0.1, -1.0:0.05, 1.0:1.5\n"
)


class TestPrepareOutDir:
    def test_creates_nested_directories(self, tmp_path):
        out = prepare_out_dir(tmp_path / "a" / "b")
        assert out.is_dir()

    def test_path_through_a_file_raises_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(IoError):
            prepare_out_dir(blocker / "sub")


class TestRunOnce:
    def test_tiny_run_completes_and_writes_artifacts(self, tmp_path):
        cfg = parse_config(TINY)
        res = run_once(cfg, out_dir=tmp_path / "run")
        assert res.status == "ok"
        assert res.exit_code == 0
        assert res.final_state is not None
        assert res.records[0].t == 0.0
        assert res.records[-1].t == pytest.approx(0.04, abs=1e-12)
        ts = [r.t for r in res.records]
        assert ts == sorted(ts)
        assert len(res.states) == len(res.records)

        out = res.out_dir
        assert (out / "diagnostics.csv").is_file()
        assert (out / "meta.json").is_file()
        snaps = sorted(p.name for p in (out / "snapshots").glob("*.csv"))
        assert "state_initial.csv" in snaps
        assert "state_final.csv" in snaps
        assert len(snaps) >= 3  # at least one mid-run field dump
        for p in (out / "snapshots").glob("*.csv"):
            assert p.with_suffix(".json").is_file()

    def test_meta_carries_the_step_counts(self, tmp_path):
        # dt starts at the fully explicit step, 3.4e-4, and grows by at most
        # 1.2 per step up to the inviscid bound, 2.8e-3; step counts are
        # deterministic
        cfg = parse_config("[scenario]\nname = traffic_1d\n[solver]\nt_end = 0.1\n")
        res = run_once(cfg, out_dir=tmp_path / "run", keep_states=False)
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta["stats"] == res.stats
        assert (res.stats["accepted"], res.stats["halvings"]) == (70, 0)
        assert res.stats["dt_min"] == pytest.approx(3.404163987790918e-4, rel=1e-9)
        assert res.stats["dt_median"] == pytest.approx(1.0830021561027772e-3, rel=1e-9)
        assert res.stats["dt_max"] == pytest.approx(2.7792465880842224e-3, rel=1e-9)

    def test_diagnostics_csv_reproduces_records_exactly(self, tmp_path):
        cfg = parse_config(TINY)
        res = run_once(cfg, out_dir=tmp_path / "run")
        lines = (res.out_dir / "diagnostics.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert len(lines) == 1 + len(res.records)
        for line, rec in zip(lines[1:], res.records):
            for col, cell in zip(header, line.split(",")):
                assert cell == repr(float(getattr(rec, col)))

    def test_meta_json_round_trips_the_config(self, tmp_path):
        cfg = parse_config(TINY)
        res = run_once(cfg, out_dir=tmp_path / "run")
        meta = json.loads((res.out_dir / "meta.json").read_text())
        assert meta["status"] == "ok"
        assert meta["error"] is None
        assert meta["n_records"] == len(res.records)
        assert meta["final_time"] == pytest.approx(0.04, abs=1e-12)
        assert parse_config(meta["config_text"]) == cfg

    def test_snapshot_csv_has_expected_columns(self, tmp_path):
        cfg = parse_config(TINY)
        res = run_once(cfg, out_dir=tmp_path / "run")
        lines = (res.out_dir / "snapshots" / "state_final.csv").read_text().split("\n")
        assert lines[0] == "x,rho,mom_x,u_x,barrier"
        assert len([ln for ln in lines if ln]) == 1 + cfg.grid.cells[0]
        sidecar = json.loads(
            (res.out_dir / "snapshots" / "state_final.json").read_text()
        )
        assert sidecar["cells"] == [40]
        assert sidecar["t"] == pytest.approx(0.04, abs=1e-12)

    def test_2d_run_writes_per_field_snapshots(self, tmp_path):
        cfg = parse_config(
            "[scenario]\nname = crowd_blob_2d\n"
            "[grid]\ncells = 24, 24\n"
            "[solver]\nt_end = 0.005\nsnapshot_every = 0.005\n"
        )
        res = run_once(cfg, out_dir=tmp_path / "run", keep_states=False)
        assert res.status == "ok"
        names = {p.name for p in (res.out_dir / "snapshots").glob("*")}
        for fieldname in ("rho", "mom_x", "mom_y", "barrier"):
            assert f"state_final_{fieldname}.csv" in names
        assert "state_final.json" in names

    def test_zero_horizon_yields_single_record(self, tmp_path):
        cfg = parse_config(TINY, overrides=("solver.t_end=0.0",))
        res = run_once(cfg, out_dir=tmp_path / "run")
        assert res.status == "ok"
        assert len(res.records) == 1
        assert res.records[0].t == 0.0

    def test_keep_states_false_still_records(self, tmp_path):
        cfg = parse_config(TINY)
        res = run_once(cfg, out_dir=tmp_path / "run", keep_states=False)
        assert res.states == []
        assert len(res.records) >= 2

    def test_no_artifacts_mode_touches_nothing(self, tmp_path):
        cfg = parse_config(TINY)
        res = run_once(cfg, write_artifacts=False)
        assert res.status == "ok"
        assert res.out_dir is None
        assert list(tmp_path.iterdir()) == []

    def test_inadmissible_initial_state_is_invalid(self, tmp_path):
        text = CRASH.replace("initial_value = 0.55", "initial_value = 1.2")
        res = run_once(parse_config(text), out_dir=tmp_path / "run")
        assert res.status == "invalid"
        assert res.exit_code == 2
        assert res.error
        meta = json.loads((res.out_dir / "meta.json").read_text())
        assert meta["status"] == "invalid"
        assert not (res.out_dir / "diagnostics.csv").exists()

    def test_nonpositive_barrier_is_invalid(self, tmp_path):
        text = CRASH.replace("right = 0.6", "right = -0.2")
        res = run_once(parse_config(text), out_dir=tmp_path / "run")
        assert res.status == "invalid"
        assert "positive" in res.error

    def test_manufactured_margin_breach_is_invalid(self, tmp_path):
        cfg = parse_config(
            "[scenario]\nname = manufactured_1d\n[barrier]\nkind = constant\nvalue = 0.7\n"
        )
        res = run_once(cfg, out_dir=tmp_path / "run")
        assert res.status == "invalid"
        assert "ratio" in res.error

    def test_congestion_crash_reports_solver_failure(self, tmp_path):
        res = run_once(parse_config(CRASH), out_dir=tmp_path / "run")
        assert res.status == "solver_failure"
        assert res.exit_code == 3
        assert "StepFailure" in res.error
        assert res.final_state is None
        # the record stream up to the failure is still persisted
        assert (res.out_dir / "diagnostics.csv").is_file()
        meta = json.loads((res.out_dir / "meta.json").read_text())
        assert meta["status"] == "solver_failure"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap thresholds")
    def test_2d_steps_reuse_their_heap_memory(self):
        # freed step temporaries stay on the heap: a 96x96 crowd run to
        # t=0.01 takes ~600 minor page faults, against ~9500 when glibc
        # returns the heap top after every step
        probe = (
            "import resource, warnings, jamflow\n"
            "warnings.simplefilter('ignore')\n"
            "cfg = jamflow.parse_config('[scenario]\\nname = crowd_blob_2d\\n"
            "[solver]\\nt_end = 0.01\\n')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "jamflow.run_once(cfg, write_artifacts=False, keep_states=False)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=SRC_ENV,
            timeout=120, check=True,
        )
        assert int(proc.stdout.split()[-1]) < 2000


class TestRunSweep:
    SWEEP = TINY + "[sweep]\nkind = eps\nvalues = 0.01, 0.001\n"

    def test_eps_sweep_orders_members_stiff_first(self, tmp_path):
        cfg = parse_config(self.SWEEP)
        outcome = run_sweep(cfg, out_dir=tmp_path / "sweep")
        assert [r.label for r in outcome.rows] == ["eps_0.01", "eps_0.001"]
        assert [r.value for r in outcome.rows] == [0.01, 0.001]
        assert all(r.status == "ok" for r in outcome.rows)
        assert outcome.exit_code == 0
        # member artifacts land in per-label directories
        for label in ("eps_0.01", "eps_0.001"):
            assert (tmp_path / "sweep" / label / "diagnostics.csv").is_file()
        # states are dropped once metrics are extracted
        assert all(res.states == [] for res in outcome.results)

    def test_sweep_csv_and_summary_exist(self, tmp_path):
        cfg = parse_config(self.SWEEP)
        outcome = run_sweep(cfg, out_dir=tmp_path / "sweep")
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
        assert summary == outcome.summary
        assert summary["n_members"] == 2
        assert summary["n_ok"] == 2
        assert summary["labels"] == ["eps_0.01", "eps_0.001"]
        assert set(summary["delta_c_sensitivity"]) == {"eps_0.01", "eps_0.001"}
        for member in summary["delta_c_sensitivity"].values():
            assert set(member) == {"0.02", "0.05", "0.1"}

    def test_row_metrics_are_populated(self, tmp_path):
        cfg = parse_config(self.SWEEP)
        outcome = run_sweep(cfg, out_dir=tmp_path / "sweep")
        for row in outcome.rows:
            assert 0.0 < row.final_max_ratio < 1.0
            assert row.peak_max_ratio >= row.final_max_ratio
            assert row.int_complementarity >= 0.0
            assert row.int_pi_l1 > 0.0
            assert row.wall_time_s > 0.0

    def test_initial_pressure_integral_column(self, tmp_path):
        cfg = parse_config(self.SWEEP)
        outcome = run_sweep(cfg, out_dir=tmp_path / "sweep")
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["eps_0.01", "eps_0.001"]
        for row, res in zip(rows, outcome.results):
            assert float(row["pi_l1_initial"]) == res.records[0].pi_l1
        by_member = outcome.summary["pi_l1_initial_by_member"]
        assert [m["pi_l1_initial"] for m in by_member] == [
            res.records[0].pi_l1 for res in outcome.results
        ]

    def test_bad_member_fails_the_config(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(self.SWEEP.replace("0.01, 0.001", "0.01, -5.0"))
        [(key, line, reason)] = exc.value.issues
        assert (key, line) == ("sweep.values", 12)
        assert "member eps_-5" in reason and "positive" in reason

    def test_bad_member_of_a_hand_built_plan_raises_before_any_run(self, tmp_path, monkeypatch):
        cfg = parse_config(self.SWEEP)
        cfg = dataclasses.replace(cfg, sweep=SweepPlan(kind="eps", values=(0.01, -5.0)))
        monkeypatch.setattr("jamflow.runner.advance", None)  # no member may run
        with pytest.raises(ParameterError, match="eps must be positive"):
            run_sweep(cfg, out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_exit_code_is_the_worst_members(self, tmp_path):
        # both members start above the barrier: invalid, not a solver failure
        cfg = parse_config(self.SWEEP, overrides=("scenario.initial_base=0.9",))
        outcome = run_sweep(cfg, out_dir=tmp_path / "sweep")
        assert [r.status for r in outcome.rows] == ["invalid", "invalid"]
        assert outcome.exit_code == 2

    def test_kappa_delta_sweep_orders_by_delta(self, tmp_path):
        cfg = parse_config(
            "[scenario]\nname = traffic_1d\n"
            "[grid]\ncells = 40\n"
            "[pressure]\nkind = truncated\neps = 0.001\nalpha = 3.0\nbeta = 3.0\n"
            "kappa = 1.0\ncap_k = 6.0\ndelta = 0.1\n"
            "[solver]\nt_end = 0.02\nsnapshot_every = 0.01\n"
            "[sweep]\nkind = kappa_delta\npairs = 1.0:0.05, 1.0:0.1\n"
        )
        outcome = run_sweep(cfg, out_dir=tmp_path / "sweep")
        assert [r.label for r in outcome.rows] == ["delta_0.1", "delta_0.05"]
        assert all(r.status == "ok" for r in outcome.rows)

    def test_sweep_without_plan_is_rejected(self, tmp_path):
        cfg = parse_config(TINY)
        with pytest.raises(ValidationError):
            run_sweep(cfg, out_dir=tmp_path / "sweep")


class TestExitCodes:
    def test_status_to_exit_mapping(self):
        assert RunResult(status="ok").exit_code == 0
        assert RunResult(status="invalid").exit_code == 2
        assert RunResult(status="solver_failure").exit_code == 3


class TestCli:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    def test_run_happy_path(self, tmp_path, capsys):
        code = main(
            ["run", self.write(tmp_path, TINY), "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "out" / "diagnostics.csv").is_file()

    def test_run_reports_solver_failure(self, tmp_path):
        code = main(
            ["run", self.write(tmp_path, CRASH), "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 3

    def test_check_accepts_and_rejects(self, tmp_path, capsys):
        assert main(["check", self.write(tmp_path, TINY)]) == 0
        bad = TINY + "[fluid]\nmu = -1.0\n"
        assert main(["check", self.write(tmp_path, bad)]) == 2

    def test_check_rejects_alpha_below_one(self, tmp_path, capsys):
        # the potential of s**(alpha - 2) diverges at 0 for alpha <= 1
        text = "[scenario]\nname = traffic_1d\n[grid]\ncells = 40\n[pressure]\nalpha = 0.5\n"
        assert main(["check", self.write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "pressure.alpha (line 6)" in err and "alpha must exceed 1" in err

    def test_unbuildable_sweep_members_are_an_invalid_config(self, tmp_path, capsys):
        path = self.write(tmp_path, KAPPA_DELTA_BAD)
        out = tmp_path / "sweep"
        assert main(["check", path]) == 2
        assert main(["sweep", path, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "member delta_1.5" in err and "member delta_0.05" in err
        assert not out.exists()

    def test_blocked_member_directory_stops_the_sweep(self, tmp_path, capsys):
        path = self.write(tmp_path, TestRunSweep.SWEEP)
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "eps_0.001").write_text("in the way")
        assert main(["sweep", path, "--out", str(out), "--quiet"]) == 4
        assert "eps_0.001" in capsys.readouterr().err
        assert not list(out.rglob("diagnostics.csv"))
        assert not (out / "sweep.csv").exists()

    def test_check_flags_inadmissible_initial(self, tmp_path, capsys):
        text = CRASH.replace("initial_value = 0.55", "initial_value = 1.2")
        assert main(["check", self.write(tmp_path, text)]) == 2

    def test_missing_config_file_is_io_failure(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini"), "--quiet"]) == 4

    def test_override_flows_through(self, tmp_path, capsys):
        code = main(
            [
                "run",
                self.write(tmp_path, TINY),
                "--override",
                "solver.t_end=0.0",
                "--out",
                str(tmp_path / "out"),
                "--quiet",
            ]
        )
        assert code == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["n_records"] == 1

    def test_run_and_sweep_print_their_step_counts(self, tmp_path, capsys):
        assert main(["run", self.write(tmp_path, TINY), "--out", str(tmp_path / "out")]) == 0
        assert "steps: accepted=5 halvings=0 dt min=" in capsys.readouterr().out
        text = TINY + "[sweep]\nkind = eps\nvalues = 0.01, 0.001\n"
        assert main(["sweep", self.write(tmp_path, text), "--out", str(tmp_path / "sw")]) == 0
        out = capsys.readouterr().out
        assert "eps_0.01: status=ok" in out and "steps=6 halvings=0\neps_0.001:" in out
        assert "eps_0.001: status=ok" in out and "steps=5 halvings=0\nartifacts" in out

    def test_bad_override_is_invalid(self, tmp_path):
        code = main(
            ["run", self.write(tmp_path, TINY), "--override", "nonsense", "--quiet"]
        )
        assert code == 2

    def test_scenarios_lists_all_names(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "traffic_1d",
            "lane_narrowing_1d",
            "pipe_1d",
            "crowd_blob_2d",
            "manufactured_1d",
        ):
            assert name in out

    def test_stiff_lane_does_not_spin(self, tmp_path, capsys):
        # at eps=1e-6 the congestion sound speed sizes the step (about 9200
        # of them since the viscous stress went implicit); whatever the
        # scheme, the run must end within a minute, finished or failed
        text = "[scenario]\nname = lane_narrowing_1d\n[pressure]\neps = 1e-6\n"
        start = time.perf_counter()
        code = main(["run", self.write(tmp_path, text), "--out", str(tmp_path / "out"), "--quiet"])
        assert code in (0, 3)
        assert time.perf_counter() - start < 60.0

    def test_vacuum_tail_fails_fast(self, tmp_path, capsys):
        # the 1/rho viscous rate of the near-empty tail cells puts the first
        # step near 2e-15, below the floor 1e-14 * t_end: the run stops at
        # once instead of creeping on
        text = "[scenario]\nname = traffic_1d\ninitial_base = 0\ninitial_amp = 0.7\n"
        start = time.perf_counter()
        code = main(["run", self.write(tmp_path, text), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 3
        assert time.perf_counter() - start < 60.0
        assert "underflowed at t=0" in capsys.readouterr().err
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["stats"]["accepted"] == 0

    def cli(self, *args, timeout=120, flags=(), env=SRC_ENV):
        """Run the CLI entry point in a fresh interpreter.

        ``flags`` go to the interpreter, ahead of ``-m``.
        """
        return subprocess.run(
            [sys.executable, *flags, "-m", "jamflow.cli", *args],
            capture_output=True, text=True, env=env, timeout=timeout,
        )

    def test_each_warning_is_printed_once(self, tmp_path):
        # the parsed law warns about alpha = beta = 2; the warning shows as
        # one line, without its source location
        proc = self.cli("check", self.write(tmp_path, "[scenario]\nname = traffic_1d\n"))
        assert proc.returncode == 0
        warned = [line for line in proc.stderr.splitlines() if line.startswith("warning:")]
        assert len(warned) == 1
        assert "alpha=2.0, beta=2.0" in warned[0]

    @pytest.mark.parametrize(
        "flags, env",
        [(("-W", "ignore"), SRC_ENV), ((), {**SRC_ENV, "PYTHONWARNINGS": "ignore"})],
        ids=["W-ignore", "PYTHONWARNINGS-ignore"],
    )
    def test_warning_options_silence_the_cli(self, tmp_path, flags, env):
        # the same check as test_each_warning_is_printed_once, which prints one
        proc = self.cli(
            "check", self.write(tmp_path, "[scenario]\nname = traffic_1d\n"),
            flags=flags, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "warning:" not in proc.stderr

    def test_check_warns_only_about_the_law_that_runs(self, tmp_path):
        # the preset's alpha = 2.0 law is overridden, so it is never built
        text = "[scenario]\nname = traffic_1d\n[pressure]\nalpha = 2.5\n"
        proc = self.cli("check", self.write(tmp_path, text))
        assert proc.returncode == 0
        warned = [line for line in proc.stderr.splitlines() if line.startswith("warning:")]
        assert len(warned) == 1
        assert "alpha=2.5" in warned[0]

    def test_scenarios_writes_nothing_to_stderr(self):
        proc = self.cli("scenarios")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 5

    @pytest.mark.parametrize("every", ["1e-20", "1e-320"])
    def test_tiny_fields_cadence_does_not_spin(self, tmp_path, every):
        # a tick advanced by repeated addition of 1e-20 stops moving at
        # t ~ 1e-4, and t / 1e-320 overflows; the run must still end,
        # writing a field dump per record
        text = (
            "[scenario]\nname = traffic_1d\n[grid]\ncells = 20\n"
            f"[solver]\nt_end = 0.004\n[output]\nfields_every = {every}\n"
        )
        out = tmp_path / "out"
        proc = self.cli("run", self.write(tmp_path, text), "--out", str(out), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "status=ok" in proc.stdout
        records = len((out / "diagnostics.csv").read_text().splitlines()) - 1
        snaps = list((out / "snapshots").glob("state_t*.csv"))
        assert len(snaps) == records

    def test_subnormal_snapshot_cadence_runs(self, tmp_path):
        # t / 1e-320 overflows the lap count; every record is then a tick
        text = (
            "[scenario]\nname = traffic_1d\n[grid]\ncells = 20\n"
            "[solver]\nt_end = 0.004\nsnapshot_every = 1e-320\n"
        )
        proc = self.cli("run", self.write(tmp_path, text), "--out", str(tmp_path / "out"),
                        timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "status=ok t=0.004" in proc.stdout

    def test_sweep_cli_round_trip(self, tmp_path):
        text = TINY + "[sweep]\nkind = eps\nvalues = 0.01, 0.001\n"
        code = main(
            ["sweep", self.write(tmp_path, text), "--out", str(tmp_path / "sw"), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "sw" / "summary.json").is_file()


class TestCheckStepSize:
    def check(self, tmp_path, capsys, text):
        path = tmp_path / "check.ini"
        path.write_text(text)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        dt0 = float(re.search(r"first dt (\S+),", out).group(1))
        ceiling = float(re.search(r"initial stable_dt (\S+)", out).group(1))
        return out, dt0, ceiling

    def test_preset_prints_a_finite_projection(self, tmp_path, capsys):
        text = "[scenario]\nname = traffic_1d\n"
        out, dt0, ceiling = self.check(tmp_path, capsys, text)
        steps = int(re.search(r"projected steps (\d+)", out).group(1))
        cfg = parse_config(text)
        barrier, data, _, _ = build_problem(cfg)
        state = make_state(cfg.grid, data.rho0, data.mom0)
        args = (cfg.law, cfg.fluid, barrier)
        # the printed first dt is the one the run takes
        dts = []
        advance(state, 0.01, *args, cfg.solver, step_hook=lambda prev, new, dt: dts.append(dt))
        assert dts[0] == pytest.approx(dt0, rel=1e-5)
        assert dts[0] == first_dt(state, *args) < stable_dt(state, *args)
        assert ceiling == pytest.approx(stable_dt(state, *args), rel=1e-5)
        # the projection grows dt from dt0 by 1.2 per step up to stable_dt
        assert steps == projected_steps(1.0, dts[0], stable_dt(state, *args))
        assert math.ceil(1.0 / ceiling) < steps < math.ceil(1.0 / dt0)
        # and stiffening jams only add steps to it
        res = run_once(cfg, keep_states=False, write_artifacts=False)
        assert steps <= res.stats["accepted"]

    def test_sweep_projects_each_member(self, tmp_path, capsys):
        # neither member runs the preset's eps = 1e-3, so its projection
        # would describe no run of the sweep
        text = "[scenario]\nname = lane_narrowing_1d\n[sweep]\nkind = eps\nvalues = 1e-1, 1e-6\n"
        out, _, _ = self.check(tmp_path, capsys, text)
        cfg = parse_config(text)
        barrier, data, _, _ = build_problem(cfg)
        state = make_state(cfg.grid, data.rho0, data.mom0)
        projections = re.findall(r"^(\S+): projected steps (\d+)", out, re.M)
        assert [label for label, _ in projections] == ["eps_0.1", "eps_1e-06"]
        assert len(re.findall("projected steps", out)) == 2
        for (label, steps), (_, _, law_fields) in zip(projections, cfg.sweep.members()):
            args = (dataclasses.replace(cfg.law, **law_fields), cfg.fluid, barrier)
            dt0 = first_dt(state, *args)
            assert f"{label}: first dt {dt0:.6g}," in out
            assert int(steps) == projected_steps(cfg.solver.t_end, dt0, stable_dt(state, *args))
        # the stiffer member's projection differs from the base law's
        assert [int(s) for _, s in projections] == [1579, 149]

    def test_long_steps_warn_of_skipped_ticks(self, tmp_path, capsys):
        text = "[scenario]\nname = traffic_1d\n"
        out, _, ceiling = self.check(tmp_path, capsys, text)
        assert ceiling > 0.002
        assert "initial stable_dt exceeds snapshot_every: some ticks will be skipped" in out
        out, _, ceiling = self.check(
            tmp_path, capsys, text + "[solver]\nsnapshot_every = 0.01\n"
        )
        assert ceiling < 0.01
        assert "ticks will be skipped" not in out

    def test_vacuum_tail_projects_an_unrunnable_step_count(self, tmp_path, capsys):
        # the 1/rho viscous rate of the near-empty tail cells pins the first
        # dt near 2e-15, below the step floor: no projection is printed
        out, dt0, ceiling = self.check(
            tmp_path,
            capsys,
            "[scenario]\nname = traffic_1d\ninitial_base = 0\ninitial_amp = 0.7\n",
        )
        assert dt0 < 1e-14 < ceiling
        assert "below the step floor 1e-14 * t_end: the run stops at once (exit 3)" in out
        assert "projected steps" not in out

    def test_infinite_horizon_is_an_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "check.ini"
        path.write_text("[scenario]\nname = traffic_1d\n[solver]\nt_end = inf\n")
        assert main(["check", str(path)]) == 2
        assert "t_end must be finite" in capsys.readouterr().err
