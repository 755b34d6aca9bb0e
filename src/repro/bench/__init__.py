"""Evaluation harness (S7 in DESIGN.md): calibration, trials, sizing.

Scenarios live in one place, :data:`repro.world.scenarios.SCENARIO_SPECS`;
run one with :func:`repro.world.run_world` or measure it with
:func:`measure`.
"""

from .calibration import (
    CostModel,
    PAPER_RESULTS_MS,
    PAPER_SCENARIOS,
    PAPER_TABLE2,
    PAPER_TESTBED,
)
from .harness import DEFAULT_TRIALS, Measurement, measure, run_trials
from .reporting import format_measurements, format_table2
from .sizing import (
    InteropSizing,
    SizeReport,
    count_classes,
    count_ncss,
    indiss_size_reports,
    interop_sizing,
    measure_path,
)

__all__ = [
    "CostModel",
    "DEFAULT_TRIALS",
    "InteropSizing",
    "Measurement",
    "PAPER_RESULTS_MS",
    "PAPER_SCENARIOS",
    "PAPER_TABLE2",
    "PAPER_TESTBED",
    "SizeReport",
    "count_classes",
    "count_ncss",
    "format_measurements",
    "format_table2",
    "indiss_size_reports",
    "interop_sizing",
    "measure",
    "measure_path",
    "run_trials",
]
