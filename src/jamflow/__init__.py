"""Finite-volume solver for viscous flow with a maximal-density barrier.

The package simulates compressible flow whose pressure carries a steep
congestion component that blows up as the local density approaches a
space-dependent maximal density.  As the stiffness parameter of that
component tends to zero the dynamics approach a two-phase system: free
transport below the barrier and incompressible motion on the congested
set.  Solvers, diagnostics, bundled scenarios, and a config-driven
runner live in the submodules re-exported here.
"""

from .errors import (
    BarrierViolation,
    DegenerateState,
    IoError,
    JamflowError,
    NonFinite,
    ParameterError,
    ParseError,
    SpecError,
    StepFailure,
    ValidationError,
)
from .pressure import (
    BarotropicLaw,
    FluidParams,
    SedimentationLaw,
    SingularLaw,
    SteepnessWarning,
    TruncatedLaw,
    energy_potential_floor,
    ratio_law,
)
from .domain import (
    BarrierField,
    ConstantBarrier,
    FlowState,
    GaussianBumpBarrier,
    Grid,
    InitialData,
    PipeBarrier,
    TanhStepBarrier,
    build_barrier,
    make_state,
    validate_initial,
)
from .solver import SolverConfig, advance, stable_dt, step, track_ratio_transport
from .diagnostics import (
    DiagnosticsRecord,
    congested_divergence_report,
    energy_budget,
)
from .scenarios import (
    SCENARIO_NAMES,
    ManufacturedSolution,
    scenario_descriptions,
)
from .config import RunConfig, parse_config, parse_config_file, serialize_config
from .runner import RunResult, __version__, build_problem, run_once, run_sweep

__all__ = [
    "BarrierField",
    "BarrierViolation",
    "BarotropicLaw",
    "ConstantBarrier",
    "DegenerateState",
    "DiagnosticsRecord",
    "FlowState",
    "FluidParams",
    "GaussianBumpBarrier",
    "Grid",
    "InitialData",
    "IoError",
    "JamflowError",
    "ManufacturedSolution",
    "NonFinite",
    "ParameterError",
    "ParseError",
    "PipeBarrier",
    "RunConfig",
    "RunResult",
    "SCENARIO_NAMES",
    "SedimentationLaw",
    "SingularLaw",
    "SolverConfig",
    "SpecError",
    "SteepnessWarning",
    "StepFailure",
    "TanhStepBarrier",
    "TruncatedLaw",
    "ValidationError",
    "advance",
    "build_barrier",
    "build_problem",
    "congested_divergence_report",
    "energy_budget",
    "energy_potential_floor",
    "make_state",
    "parse_config",
    "parse_config_file",
    "ratio_law",
    "run_once",
    "run_sweep",
    "scenario_descriptions",
    "serialize_config",
    "stable_dt",
    "step",
    "track_ratio_transport",
    "validate_initial",
]
