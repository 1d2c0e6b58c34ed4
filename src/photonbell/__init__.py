"""Bell tests for a single photon split over N modes.

Tools for studying nonlocality of a single photon distributed over N
spatial modes and measured with local displacements plus click detection:
exact correlators on the vacuum/one-photon subspace, the N-party
full-correlation Bell functional, wrapped-Gaussian reference-frame noise,
loss thresholds, and the multi-pair measurement scheme that makes the
violation certain under unknown frames.
"""

from .experiments import (
    MeasurementStrategy,
    bell_value_averaged,
    best_pair_bell_value,
    best_pair_values_over_centers,
    frame_averaged_table,
    pair_symbolic_tables,
    paired_strategy,
    two_setting_strategy,
    violation_distribution,
)
from .fock_core import (
    ConsistencyError,
    SubspaceState,
    lossy_w_state,
    w_state,
)
from .optimize import (
    OptimizationSpec,
    OptimumReport,
    ThresholdResult,
    averaged_correlator_table,
    certainty_frontier,
    maximize_bell,
    threshold_efficiency,
)
from .phase_noise import (
    PhaseModel,
    child_seed,
)
from .wwzb import (
    BellResult,
    CorrelatorTable,
    chsh_horodecki,
    wwzb_value,
    wwzb_value_naive,
)

__version__ = "0.1.0"

__all__ = [
    "BellResult",
    "ConsistencyError",
    "CorrelatorTable",
    "MeasurementStrategy",
    "OptimizationSpec",
    "OptimumReport",
    "PhaseModel",
    "SubspaceState",
    "ThresholdResult",
    "averaged_correlator_table",
    "bell_value_averaged",
    "best_pair_bell_value",
    "best_pair_values_over_centers",
    "certainty_frontier",
    "child_seed",
    "chsh_horodecki",
    "frame_averaged_table",
    "lossy_w_state",
    "maximize_bell",
    "pair_symbolic_tables",
    "paired_strategy",
    "threshold_efficiency",
    "two_setting_strategy",
    "violation_distribution",
    "w_state",
    "wwzb_value",
    "wwzb_value_naive",
]
