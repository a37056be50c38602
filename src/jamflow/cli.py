"""Command line interface.

Verbs:
  run        execute one configured simulation
  sweep      execute a stiffness or truncation sweep
  scenarios  list the bundled scenario presets
  check      validate a config and its initial data without running

Exit codes: 0 success, 2 invalid config or initial data, 3 solver
failure, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace

from .config import parse_config_file
from .domain import make_state, validate_initial
from .errors import (
    BarrierViolation,
    DegenerateState,
    IoError,
    JamflowError,
    ParameterError,
    ParseError,
    SpecError,
    ValidationError,
)
from .runner import run_once, run_sweep, build_problem
from .scenarios import scenario_descriptions
from .solver import GROWTH_CAP, first_dt, projected_steps, stable_dt, step_floor

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jamflow",
        description="Finite-volume solver for flow against a maximal-density barrier.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config_args(p):
        p.add_argument("config", help="path to an INI config file")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config entry (repeatable)",
        )
        p.add_argument("--out", default=None, help="output directory (overrides config)")

    p_run = sub.add_parser("run", help="run one simulation")
    add_config_args(p_run)
    p_run.add_argument(
        "--quiet", action="store_true", help="suppress the progress summary"
    )

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_config_args(p_sweep)
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress the per-member summary"
    )

    p_scen = sub.add_parser("scenarios", help="list bundled scenarios")

    p_check = sub.add_parser("check", help="validate config and initial data")
    p_check.add_argument("config", help="path to an INI config file")
    p_check.add_argument(
        "--override", action="append", default=[], metavar="SECTION.KEY=VALUE"
    )
    return parser


def _load(path, overrides):
    return parse_config_file(path, overrides=tuple(overrides))


def cmd_run(args):
    cfg = _load(args.config, args.override)
    result = run_once(cfg, out_dir=args.out, keep_states=False)
    if not args.quiet:
        if result.records:
            last = result.records[-1]
            print(
                f"{cfg.scenario_name}: status={result.status}"
                f" t={last.t:.6g} max_ratio={last.max_ratio:.6g}"
                f" mass={last.mass:.6g} wall={result.wall_time:.2f}s"
            )
        else:
            print(f"{cfg.scenario_name}: status={result.status} ({result.error})")
        if result.stats is not None:
            print(_steps_line(result.stats))
        if result.out_dir is not None:
            print(f"artifacts in {result.out_dir}")
    if result.status != "ok" and result.error:
        print(result.error, file=sys.stderr)
    return result.exit_code


def _steps_line(stats):
    line = f"steps: accepted={stats['accepted']} halvings={stats['halvings']}"
    if stats["accepted"]:
        line += " dt min={dt_min:.3g} median={dt_median:.3g} max={dt_max:.3g}".format(**stats)
    return line


def cmd_sweep(args):
    cfg = _load(args.config, args.override)
    outcome = run_sweep(cfg, out_dir=args.out)
    if not args.quiet:
        for row, result in zip(outcome.rows, outcome.results):
            steps = ""
            if result.stats is not None:
                steps = f" steps={result.stats['accepted']} halvings={result.stats['halvings']}"
            print(
                f"{row.label}: status={row.status}"
                f" peak_ratio={row.peak_max_ratio:.6g}"
                f" int_complementarity={row.int_complementarity:.6g}{steps}"
            )
        print(f"artifacts in {outcome.out_dir}")
    return outcome.exit_code


def cmd_scenarios(_args):
    for name, desc in scenario_descriptions().items():
        print(f"{name}: {desc}")
    return EXIT_OK


def cmd_check(args):
    cfg = _load(args.config, args.override)
    try:
        barrier, data, _, _ = build_problem(cfg)
    except (SpecError, ParameterError, BarrierViolation) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = validate_initial(data, barrier)
    print(report.summary())
    if not report.ok:
        return EXIT_INVALID
    # the initial data does not depend on the law, so sweep members share it
    state = make_state(cfg.grid, data.rho0, data.mom0)
    if cfg.sweep is None:
        _print_projection("", state, cfg.law, cfg, barrier)
    else:
        for label, _, law_fields in cfg.sweep.members():
            _print_projection(f"{label}: ", state, replace(cfg.law, **law_fields), cfg, barrier)
    return EXIT_OK


def _print_projection(prefix, state, law, cfg, barrier):
    """Print the first dt, initial stable_dt and projected steps of ``law``."""
    solver, args = cfg.solver, (state, law, cfg.fluid, barrier, cfg.solver.cfl)
    try:
        ceiling, dt0 = stable_dt(*args), first_dt(*args)
    except DegenerateState as exc:
        print(f"{prefix}initial step: {exc}")
        return
    print(f"{prefix}first dt {dt0:.6g}, initial stable_dt {ceiling:.6g}")
    if dt0 < step_floor(solver.t_end):
        print(
            f"{prefix}the first dt is below the step floor 1e-14 * t_end:"
            " the run stops at once (exit 3)"
        )
        return
    print(
        f"{prefix}projected steps {projected_steps(solver.t_end, dt0, ceiling)}"
        f" (dt grows by at most {GROWTH_CAP:g} per step up to the initial stable_dt;"
        " more where jams stiffen)"
    )
    if ceiling > solver.snapshot_every:
        print(f"{prefix}initial stable_dt exceeds snapshot_every: some ticks will be skipped")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "scenarios": cmd_scenarios,
        "check": cmd_check,
    }
    try:
        return handlers[args.verb](args)
    except (ValidationError, ParseError, SpecError, ParameterError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except IoError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except JamflowError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry():
    # each distinct warning once, one line, no source-location noise; the
    # "once" filter would not do, as CPython keeps its registry per module
    shown = set()

    def print_warning(message, category, filename, lineno, file=None, line=None):
        key = (category, str(message))
        if key not in shown:
            shown.add(key)
            print(f"warning: {message}", file=sys.stderr)

    # a -W option or PYTHONWARNINGS has the last word
    if not sys.warnoptions:
        warnings.simplefilter("always")
    warnings.showwarning = print_warning
    sys.exit(main())


if __name__ == "__main__":
    entry()
