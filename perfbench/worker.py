"""One workload execution in a fresh interpreter; ``run.py`` starts these.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --result FILE
                                [--setup-only | --trace]

Times ``import jamflow`` plus ``parse_config`` (the set-up a CLI user waits
for), then the ``run_sweep`` / ``run_once`` call until the last artifact is
on disk, then checks the artifacts and writes one JSON result to FILE.  With
``--trace`` the public entry points of jamflow's modules are wrapped first and
the per-layer metrics are derived from the recorded spans.

Only the standard library is imported before the timed import, so numpy,
scipy and sympy are paid for inside ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from jambench import workloads  # noqa: E402  (standard library only)
from jambench.tracing import SpanStore  # noqa: E402  (standard library only)


def _dir_usage(path):
    files = [p for p in Path(path).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    text = workloads.config_text(wl, args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    store = SpanStore()

    t0 = time.perf_counter()
    with store.span("package.import"):
        import jamflow
    warnings.simplefilter("ignore", jamflow.SteepnessWarning)
    with store.span("config.parse_config"):
        cfg = jamflow.parse_config(text)
    t2 = time.perf_counter()

    src = (ROOT / "src" / "jamflow").resolve()
    if Path(jamflow.__file__).resolve().parent != src:
        raise SystemExit(f"imported jamflow from {jamflow.__file__}, not from {src}")
    result = {"setup_s": t2 - t0}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    from jamflow import runner

    missing = []
    if args.trace:
        from jambench import tracing

        missing = tracing.instrument(store, jamflow, sweep=wl.kind == "sweep")

    out = Path(args.out)
    t3 = time.perf_counter()
    if wl.kind == "sweep":
        outcome = runner.run_sweep(cfg, out_dir=out)
    else:
        outcome = runner.run_once(cfg, out_dir=out, keep_states=False)
    wall = time.perf_counter() - t3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from jambench import checks

    if wl.kind == "sweep":
        members = [
            (row.label, out / row.label, row.status, res.error)
            for row, res in zip(outcome.rows, outcome.results)
        ]
        try:
            workload_problems = checks.sweep_problems(checks.load_summary(out))
        except (OSError, ValueError) as exc:
            workload_problems = [f"summary.json unreadable: {exc}"]
    else:
        members = [("run", out, outcome.status, outcome.error)]
        workload_problems = []
    runs = []
    for label, run_dir, status, error in members:
        diag = run_dir / "diagnostics.csv"
        runs.append(
            {
                "label": label,
                "sha256": checks.sha256_file(diag) if diag.exists() else None,
                "records": len(checks.read_records(diag)) if diag.exists() else 0,
                "problems": checks.run_problems(
                    run_dir, status, error, cfg.solver.barrier_tol, cfg.solver.t_end,
                    wl.jam.get(label),
                ),
            }
        )
    n_files, n_bytes = _dir_usage(out)
    result.update(
        wall_s=wall,
        peak_rss_mb=rss_mb,
        runs=runs,
        workload_problems=workload_problems,
        io_files=n_files,
        io_bytes=n_bytes,
    )

    if args.trace:
        table = tracing.SpanTable(store)
        hits, misses = tracing.quad_cache_info(jamflow.pressure)
        layers = tracing.layer_metrics(store, table, hits, misses)
        layers["runner.io.bytes"] = n_bytes
        layers["runner.io.files"] = n_files
        member_counts = {
            store.labels[run]: tracing.step_counts(store, run) for run in store.labels if run
        }
        accepted = layers["solver.steps_accepted"]
        bounds = sum(layers[f"solver.dt_bound.{b}"] for b in tracing.DT_BOUNDS)
        trace_problems = []
        if bounds != accepted:
            trace_problems.append(f"dt_bound counts sum to {bounds}, not to {accepted} steps")
        spans_file = store.dump(Path(args.result).with_suffix(".spans.json"))
        result.update(
            layers=layers,
            members=member_counts,
            advance_coverage=table.child_coverage("solver.advance"),
            n_spans=len(store),
            spans_file=str(spans_file),
            trace_problems=trace_problems,
            untraced_entry_points=missing,
        )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
