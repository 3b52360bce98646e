"""``repro.harness`` — experiment configs, runners, tables and figures.

Maps every artifact in the paper's evaluation to a regenerating function.
Each one is a base config, a list of axes and a measure handed to
:func:`~repro.harness.sweep.grid`, the one loop that runs experiments
(``grid(paper_cell(...), [axis("method", ...), axis("seed", range(5))])``
adds seeds to any of them).  The benches under ``benchmarks/`` are thin
wrappers over this package.
"""

from repro.harness.ablations import ablation_sigma_beta, ablation_two_stage
from repro.harness.config import SCALES, ExperimentConfig, ScalePreset
from repro.harness.convergence import convergence_table
from repro.harness.figures import (
    accuracy_timeline,
    inference_loss_profile,
    noniid_sweep,
    participation_sweep,
    partition_figure,
    server_overhead_figure,
)
from repro.harness.reporting import history_to_dict
from repro.harness.runner import (
    ExperimentResult,
    build_dataset,
    build_model_factory,
    build_partition,
    run_experiment,
)
from repro.harness.sweep import axis, grid, paper_cell
from repro.harness.tables import format_accuracy_table, table3, table4

__all__ = [
    "ExperimentConfig",
    "ScalePreset",
    "SCALES",
    "ExperimentResult",
    "run_experiment",
    "build_dataset",
    "build_model_factory",
    "build_partition",
    "grid",
    "axis",
    "paper_cell",
    "table3",
    "table4",
    "format_accuracy_table",
    "accuracy_timeline",
    "inference_loss_profile",
    "participation_sweep",
    "noniid_sweep",
    "partition_figure",
    "server_overhead_figure",
    "convergence_table",
    "ablation_two_stage",
    "ablation_sigma_beta",
    "history_to_dict",
]
