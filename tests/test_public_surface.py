"""The public names: each one is called by a command, the README example,
another module of the package or the benchmark."""

import importlib

import pytest

import photonbell

MODULES = [
    importlib.import_module(f"photonbell.{name}")
    for name in ("cli", "experiments", "fock_core", "optimize", "phase_noise", "wwzb")
]

KEPT = [
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

# The per-object observable and setting layers and the symbolic table
# wrapper, whose work plain arrays do, the setting-index selection, which
# each strategy's own setting pairs replace, and the slow oracles, which
# live in tests/helpers.py.
REMOVED = [
    "DisplacementSetting",
    "ModeObservable",
    "SymbolicCorrelatorTable",
    "correlator",
    "correlator_bruteforce",
    "pair_setting_indices",
    "displacement_observable",
    "projective_observable",
    "sample_offsets",
    "symbolic_correlators",
    "wrapped_gaussian_pdf",
    "BRUTEFORCE_MODE_LIMIT",
    "SERIES_TRUNCATION",
]


def test_root_namespace_holds_the_kept_names():
    assert len(KEPT) == 27
    assert sorted(photonbell.__all__) == KEPT


@pytest.mark.parametrize("module", [photonbell, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", [photonbell, *MODULES], ids=lambda m: m.__name__)
def test_removed_names_stay_gone(module):
    present = [name for name in REMOVED if hasattr(module, name)]
    assert present == []
