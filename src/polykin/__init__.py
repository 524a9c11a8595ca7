"""Semi-Lagrangian solver for the polyatomic ellipsoidal-BGK kinetic equation."""

from .diagnostics import (
    ConvergenceTable,
    StabilityEnvelope,
    check_envelopes,
    conserved_quantities,
    entropy,
    equilibrium_distance,
    observed_order,
)
from .errors import PolykinError
from .field import DistField, error_sup_norm, read_snapshot, sample, weighted_sup_norm, write_snapshot
from .gaussian import eval_gaussian, factor_spd, gaussian_field
from .grid import FootWeight, GridConfig, PhaseGrid, build_grid, energy_weights
from .moments import MacroCell, MacroFields, compute_moments, table_moments, tensor_sandwich_check
from .params import (
    DerivedConstants,
    SchemeParams,
    blend_factors,
    collision_frequency,
    derived_constants,
    normalizer_discrete,
)
from .scenario import Scenario, certified_envelope, make_initial, parse_scenario
from .stepper import RunResult, StepReport, relax, run, step
from .transport import Advector, advect

__version__ = "0.1.0"

__all__ = [
    "Advector",
    "ConvergenceTable",
    "DerivedConstants",
    "DistField",
    "FootWeight",
    "GridConfig",
    "MacroCell",
    "MacroFields",
    "PhaseGrid",
    "PolykinError",
    "RunResult",
    "Scenario",
    "SchemeParams",
    "StabilityEnvelope",
    "StepReport",
    "advect",
    "blend_factors",
    "build_grid",
    "certified_envelope",
    "check_envelopes",
    "collision_frequency",
    "compute_moments",
    "conserved_quantities",
    "derived_constants",
    "energy_weights",
    "entropy",
    "equilibrium_distance",
    "error_sup_norm",
    "eval_gaussian",
    "factor_spd",
    "gaussian_field",
    "make_initial",
    "normalizer_discrete",
    "observed_order",
    "parse_scenario",
    "read_snapshot",
    "relax",
    "run",
    "sample",
    "step",
    "table_moments",
    "tensor_sandwich_check",
    "weighted_sup_norm",
    "write_snapshot",
]
