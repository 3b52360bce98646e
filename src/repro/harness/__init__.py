"""``repro.harness`` — experiment configs, runners, tables and figures.

Maps every artifact in the paper's evaluation to a regenerating function.
The benches under ``benchmarks/`` are thin wrappers over this package.
"""

from repro.harness.ablations import (
    ablation_fairness_weight,
    ablation_replay_strategy,
    ablation_sigma_beta,
    ablation_two_stage,
)
from repro.harness.config import SCALES, ExperimentConfig, ScalePreset
from repro.harness.convergence import convergence_table, rounds_to_target
from repro.harness.figures import (
    accuracy_timeline,
    inference_loss_profile,
    noniid_sweep,
    participation_sweep,
    partition_figure,
    server_overhead_figure,
)
from repro.harness.reporting import (
    compare_methods,
    history_to_dict,
    load_results_json,
    result_to_dict,
    results_to_markdown,
    save_results_json,
)
from repro.harness.runner import (
    ExperimentResult,
    build_dataset,
    build_model_factory,
    build_partition,
    run_experiment,
)
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
    "table3",
    "table4",
    "format_accuracy_table",
    "accuracy_timeline",
    "inference_loss_profile",
    "participation_sweep",
    "noniid_sweep",
    "partition_figure",
    "server_overhead_figure",
    "rounds_to_target",
    "convergence_table",
    "ablation_replay_strategy",
    "ablation_two_stage",
    "ablation_fairness_weight",
    "ablation_sigma_beta",
    "history_to_dict",
    "result_to_dict",
    "save_results_json",
    "load_results_json",
    "results_to_markdown",
    "compare_methods",
]
