"""The jamflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; jamflow is imported from ``src/``.
Every execution of the workload happens in a fresh single-threaded
interpreter (``worker.py``) that receives only a generated config.

With ``--trace 0`` the workload is repeated while the next execution is
expected to end within ``--seconds``, at least twice, and the end-to-end
metrics are reported as medians: ``setup_s`` (``import jamflow`` plus
``parse_config``, sampled at least three times),
``wall_s`` (the ``run_sweep`` / ``run_once`` call until the last artifact is
on disk) and ``peak_rss_mb``.  With ``--trace 1`` one untraced and one traced
execution run back to back; the traced one wraps jamflow's public entry
points and reports the per-layer metrics, plus the tracing overhead.

Every execution's artifacts are checked (see ``jambench/checks.py``); a run
(one sweep member, or the single run) that fails a check counts in
``failed``.  Human-readable lines come first, and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Span dumps of traced runs are kept under
``.perfbench_out/traces/``.  ``--workload all`` runs every workload in turn,
each with its own report and JSON line.

The benchmark's own tests:  PYTHONPATH=src python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from jambench.checks import digest_problems  # noqa: E402
from jambench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from jambench.workloads import WORKLOADS  # noqa: E402

MIN_REPEATS = 2  # the determinism check compares digests across repeats
SETUP_SAMPLES = 3
# the whole run must end within 180 s; optional repeats stop well before
DEADLINE_S = 170.0
SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


class Session:
    """Starts workers for one benchmark run and keeps to its deadline."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(SINGLE_THREADED)
        self.n = 0

    def elapsed(self):
        return time.perf_counter() - self.started

    def remaining(self):
        return DEADLINE_S - self.elapsed()

    def spawn(self, *flags):
        self.n += 1
        tag = f"w{self.n}"
        out = self.work_dir / tag
        result = self.work_dir / f"{tag}.json"
        cmd = [
            sys.executable, str(WORKER),
            "--workload", self.workload, "--seed", str(self.seed),
            "--out", str(out), "--result", str(result), *flags,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker {' '.join(flags)} passed the deadline") from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        data = json.loads(result.read_text())
        shutil.rmtree(out, ignore_errors=True)
        return data


def failures(executions):
    """Failed runs per (execution, label), with one message per problem."""
    digests = {}
    for ex in executions:
        for run in ex["runs"]:
            digests.setdefault(run["label"], []).append(run["sha256"])
    out = []
    for i, ex in enumerate(executions):
        shared = ex["workload_problems"] + ex.get("trace_problems", [])
        for run in ex["runs"]:
            problems = run["problems"] + shared + digest_problems(digests[run["label"]])
            if problems:
                out.append((i, run["label"], problems))
    return out, digests


def summary_line(name, values, unit):
    med = statistics.median(values)
    return (
        f"  {name:<16} median {med:.6g} {unit}  "
        f"(min {min(values):.6g}, max {max(values):.6g}, n={len(values)})"
    )


def measure(session, seconds, trace):
    """Execute the workload; returns (executions, setup samples).

    Untraced, executions repeat while the next one is expected to end
    within ``seconds`` of the start, and at least ``MIN_REPEATS`` times.
    """
    if trace:
        executions = [session.spawn(), session.spawn("--trace")]
    else:
        executions, last = [], 0.0
        while len(executions) < MIN_REPEATS or (
            session.elapsed() + last <= min(seconds, session.remaining())
        ):
            t = time.perf_counter()
            executions.append(session.spawn())
            last = time.perf_counter() - t
    setups = [ex["setup_s"] for ex in executions]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(session.spawn("--setup-only")["setup_s"])
    return executions, setups


def report(workload, seed, trace, executions, setups, failed_runs, digests, kept):
    """Print the human-readable lines; return the metrics for the JSON line."""
    attempted = sum(len(ex["runs"]) for ex in executions)
    walls = [ex["wall_s"] for ex in executions]
    rss = [ex["peak_rss_mb"] for ex in executions]
    print(f"workload {workload} seed {seed} trace {trace}: {len(executions)} executions, {attempted} runs")
    print(summary_line("setup_s", setups, "s"))
    print(summary_line("wall_s", walls, "s"))
    print(summary_line("peak_rss_mb", rss, "MB"))
    print(f"  failed_fraction  {len(failed_runs)}/{attempted} = {len(failed_runs) / attempted:g}")
    members = executions[-1].get("members", {})
    for run in executions[0]["runs"]:
        label, shas = run["label"], digests[run["label"]]
        agree = "agree" if len(set(shas)) == 1 else "DIFFER"
        counts = "".join(f", {k} {v}" for k, v in members.get(label, {}).items())
        print(
            f"  digest {label}: diagnostics.csv sha256 {shas[0]} "
            f"({len(shas)} executions {agree}), records {run['records']}{counts}"
        )
    for i, label, problems in failed_runs:
        for problem in problems:
            print(f"  FAILED execution {i} {label}: {problem}")
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
        }
        return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}

    untraced, traced = executions
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    print(f"  traced: {traced['n_spans']} spans kept in {kept.relative_to(ROOT)}")
    print(f"  traced: child spans cover {traced['advance_coverage']:.1%} of solver.advance")
    if traced["untraced_entry_points"]:
        print(f"  traced: entry points not found: {', '.join(traced['untraced_entry_points'])}")
    for name, (unit, _, _) in PER_LAYER.items():
        print(f"  {name} = {layers[name]:.6g} {unit}")
    if len(members) > 1:
        for label, counts in members.items():
            for name, value in counts.items():
                print(f"  {name}.{label} = {value} count")
    return {name: {"value": layers[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def bench(workload, seed, seconds, trace):
    """One benchmark run; prints its report and JSON line, returns an exit code."""
    work = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(workload, seed, work)
    kept = None
    try:
        executions, setups = measure(session, seconds, trace)
        if trace:
            kept = OUT / "traces" / f"{workload}-seed{seed}.spans.json"
            kept.parent.mkdir(exist_ok=True)
            shutil.move(executions[1]["spans_file"], kept)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_runs, digests = failures(executions)
    metrics = report(workload, seed, trace, executions, setups, failed_runs, digests, kept)
    result = {
        "correct": not failed_runs,
        "attempted": sum(len(ex["runs"]) for ex in executions),
        "failed": len(failed_runs),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="jamflow benchmark")
    ap.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or 'all' to run every workload in turn",
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jamflow" / "__init__.py").is_file():
        print(f"error: no jamflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # installed packages ship bytecode; give the sources theirs before timing
    compileall.compile_dir(str(ROOT / "src" / "jamflow"), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        code = bench(name, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
