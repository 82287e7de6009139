"""Experiment runners and reporting.

One runner per paper artifact (figure or table), each returning a
structured result that ``repro run <id>`` regenerates and
EXPERIMENTS.md records. See DESIGN.md's experiment index for the
mapping.
"""

from . import engine, experiments, faults, telemetry
from .engine import (
    FixedBitTask,
    GridResult,
    GridSpec,
    ResultCache,
    run_grid,
    simulation_results_equal,
)
from .faults import FaultPlan, FaultSpec
from .reporting import format_table, format_series
from .sweeps import QoSFrontier, SweepPoint, qos_frontier
from .telemetry import RunReport

__all__ = [
    "engine",
    "experiments",
    "faults",
    "telemetry",
    "FaultPlan",
    "FaultSpec",
    "RunReport",
    "FixedBitTask",
    "GridSpec",
    "GridResult",
    "ResultCache",
    "run_grid",
    "simulation_results_equal",
    "format_table",
    "format_series",
    "QoSFrontier",
    "SweepPoint",
    "qos_frontier",
]
