"""The benchmark's metrics: unit, better direction, bound, and what moves them.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds (a test keeps the two in step).  Its format has no
room for the notes below, so they live here: for each per-layer metric,
the end-to-end metric it should move, and on which workload.
"""

# name -> (unit, better, bound): measured with tracing off
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

SWEEP, CROWD, FRAC = "sweep_traffic_1d", "crowd_2d_fields", "fractional_law_1d"

# name -> (unit, better, what it should move): from the traced run
PER_LAYER = {
    "solver.steps_accepted": ("count", "lower", f"wall_s on {SWEEP} and {CROWD} (IMEX, AP step)"),
    "solver.steps_rejected": ("count", "lower", f"wall_s on {SWEEP} and {CROWD} (IMEX, AP step)"),
    "solver.step_accept_ratio": ("ratio", "higher", f"wall_s on {SWEEP} and {CROWD}"),
    "solver.dt_bound.advective": ("count", "lower", "explains step counts; no end-to-end metric directly"),
    "solver.dt_bound.gas_acoustic": ("count", "lower", "explains step counts; no end-to-end metric directly"),
    "solver.dt_bound.congestion_acoustic": ("count", "lower", "explains step counts; no end-to-end metric directly"),
    "solver.dt_bound.viscous": ("count", "lower", "explains step counts; no end-to-end metric directly"),
    "solver.dt_min": ("s", "higher", f"wall_s on {SWEEP} and {CROWD}"),
    "solver.dt_median": ("s", "higher", f"wall_s on {SWEEP} and {CROWD}"),
    "solver.dt_max": ("s", "higher", f"wall_s on {SWEEP} and {CROWD}"),
    "solver.stable_dt.s": ("s", "lower", f"wall_s on {SWEEP} (dispatch-bound) more than on {CROWD}"),
    "solver.stable_dt.self_s": ("s", "lower", f"wall_s on {SWEEP} more than on {CROWD}"),
    "solver.step.s": ("s", "lower", f"wall_s on {SWEEP} (dispatch-bound) more than on {CROWD}"),
    "solver.step.self_s": ("s", "lower", f"wall_s on {SWEEP} more than on {CROWD}"),
    "solver.advance.s": ("s", "lower", f"wall_s on {SWEEP} more than on {CROWD}"),
    "solver.us_per_cell_step": ("us", "lower", "wall_s on every workload: cheaper steps, apart from fewer steps"),
    "pressure.law.s": ("s", "lower", f"wall_s mostly on {FRAC}, and 26% of {SWEEP}"),
    "pressure.law.calls": ("count", "lower", f"wall_s mostly on {FRAC}, and on {SWEEP}"),
    "pressure.fluid.s": ("s", "lower", f"wall_s on {SWEEP} and {FRAC}"),
    "pressure.quad.calls": ("count", "lower", f"wall_s on {FRAC} only; 0 elsewhere, predicting no change"),
    "pressure.quad_cache.hit_ratio": ("ratio", "higher", f"wall_s on {FRAC} only; 0 elsewhere"),
    "diagnostics.collect.s": ("s", "lower", f"wall_s on {SWEEP} (1503 records) and {CROWD}"),
    "diagnostics.collect.calls": ("count", "lower", f"wall_s on {SWEEP} and {CROWD}"),
    "diagnostics.congested_divergence_report.s": ("s", "lower", f"wall_s on {SWEEP} only"),
    "runner.io.s": ("s", "lower", f"wall_s on {CROWD}; small on {SWEEP}"),
    "runner.io.bytes": ("bytes", "lower", f"wall_s on {CROWD}"),
    "runner.io.files": ("count", "lower", f"wall_s on {CROWD}"),
    "runner.sweep_post.s": ("s", "lower", f"wall_s on {SWEEP} only; 0 elsewhere"),
    "runner.build_problem.s": ("s", "lower", f"wall_s (problem set-up inside run_once) on every workload, largest share on {FRAC}"),
    "scenarios.build_initial.s": ("s", "lower", f"wall_s (problem set-up inside run_once) on every workload, largest share on {FRAC}"),
    "domain.validate_initial.s": ("s", "lower", f"wall_s (problem set-up inside run_once) on every workload, largest share on {FRAC}"),
    "config.parse_config.s": ("s", "lower", f"setup_s on every workload, largest share on {FRAC}"),
    "package.import_s": ("s", "lower", f"setup_s on every workload, largest share on {FRAC}"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced wall_s over untraced wall_s of the same run"),
}
