"""Experiment harness: one entry point per table/figure of section 6.

Each experiment is a pure function from a config dataclass to a result
dataclass with a ``render()`` text table, so the same code serves the
benchmarks (small scale), the CLI (``trajpattern run fig3`` etc.) and
EXPERIMENTS.md (paper-scale runs).

* :func:`~repro.experiments.table1.run_table1` -- section 6.1's pattern
  length comparison (match ~3.18 vs NM ~4.2).
* :func:`~repro.experiments.fig3.run_fig3` -- mis-prediction reduction by
  pattern-augmented prediction, per base model and pattern measure.
* :mod:`~repro.experiments.fig4` -- the scalability/sensitivity sweeps:
  runtime vs k / S / L / G and pattern groups vs delta.
* :mod:`~repro.experiments.ablations` -- pruning, bound and probability-
  geometry ablations called out in DESIGN.md.
"""

from repro.experiments.ablations import run_prob_model_ablation, run_pruning_ablation
from repro.experiments.interval_sensitivity import (
    IntervalSensitivityConfig,
    IntervalSensitivityResult,
    run_interval_sensitivity,
)
from repro.experiments.loss_sensitivity import (
    LossSensitivityConfig,
    LossSensitivityResult,
    run_loss_sensitivity,
)
from repro.experiments.datasets import (
    bus_fleet_paths,
    bus_velocity_dataset,
    make_engine,
    zebranet_dataset,
)
from repro.experiments.fig3 import Fig3Config, Fig3Result, run_fig3
from repro.experiments.fig4 import (
    Fig4Config,
    SweepResult,
    run_fig4a_k,
    run_fig4b_trajectories,
    run_fig4c_length,
    run_fig4d_grids,
    run_fig4e_delta,
)
from repro.experiments.table1 import Table1Config, Table1Result, run_table1

__all__ = [
    "bus_fleet_paths",
    "bus_velocity_dataset",
    "zebranet_dataset",
    "make_engine",
    "Table1Config",
    "Table1Result",
    "run_table1",
    "Fig3Config",
    "Fig3Result",
    "run_fig3",
    "Fig4Config",
    "SweepResult",
    "run_fig4a_k",
    "run_fig4b_trajectories",
    "run_fig4c_length",
    "run_fig4d_grids",
    "run_fig4e_delta",
    "run_pruning_ablation",
    "run_prob_model_ablation",
    "LossSensitivityConfig",
    "LossSensitivityResult",
    "run_loss_sensitivity",
    "IntervalSensitivityConfig",
    "IntervalSensitivityResult",
    "run_interval_sensitivity",
]
