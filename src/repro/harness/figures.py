"""Figure generators: the data series behind Figs. 4–9 of the paper.

Each function returns plain Python/NumPy data (series and tables) and a
text rendering where the paper shows a plot; the repo has no plotting
dependency, so "regenerating a figure" means producing its exact series.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter

import numpy as np

from repro.data.partition import get_partitioner, partition_matrix
from repro.fl.fairness import normalized_fairness
from repro.fl.strategies import FedAvg, FedDRL
from repro.fl.timing import measure_server_overhead, synthetic_updates
from repro.harness.sweep import axis, grid, paper_cell
from repro.runtime.seeding import STREAM_DATASET, STREAM_PARTITION, run_rng


# -- Figure 4: partition illustrations ---------------------------------------

def partition_figure(
    partition: str,
    n_clients: int = 10,
    num_classes: int = 10,
    n_samples: int = 2000,
    seed: int = 0,
    **partition_kwargs,
) -> dict:
    """Label×client sample-count matrix plus an ASCII bubble rendering."""
    labels = run_rng(seed, STREAM_DATASET).integers(0, num_classes, size=n_samples)
    parts = get_partitioner(partition)(
        labels, n_clients, run_rng(seed, STREAM_PARTITION), **partition_kwargs
    )
    mat = partition_matrix(labels, parts, num_classes)
    # ASCII rendering: circle size buckets like the paper's bubble plot.
    glyphs = " .oO@"
    peak = mat.max() if mat.max() > 0 else 1
    rows = []
    for lab in range(num_classes):
        row = f"L{lab:<3}"
        for c in range(n_clients):
            level = int(np.ceil(mat[lab, c] / peak * (len(glyphs) - 1)))
            row += f" {glyphs[level]}"
        rows.append(row)
    return {"matrix": mat, "ascii": "\n".join(rows), "partition": partition}


# -- Figure 5: accuracy vs round ---------------------------------------------

def accuracy_timeline(
    dataset: str = "mnist",
    partition: str = "CE",
    methods: Sequence[str] = ("fedavg", "fedprox", "feddrl"),
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[str, list[tuple[int, float]]]:
    """(round, accuracy) series per method — one panel of Fig. 5."""
    return grid(
        paper_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [axis("method", methods)],
        measure=lambda result: result.history.accuracy_series(),
    )


def smooth_series(series: list[tuple[int, float]], window: int = 10) -> list[tuple[int, float]]:
    """Moving-average smoothing (the paper smooths Fashion-MNIST over 10
    rounds); near either end, the mean of the samples under the window."""
    if window <= 0:
        raise ValueError("window must be positive")
    if not series:
        return []
    rounds = [r for r, _ in series]
    values = np.array([v for _, v in series])
    kernel = np.ones(min(window, len(values)))
    sums = np.convolve(values, kernel, mode="same")
    counts = np.convolve(np.ones(len(values)), kernel, mode="same")
    return list(zip(rounds, (sums / counts).tolist()))


# -- Figure 6: per-client inference-loss profile --------------------------------

def inference_loss_profile(
    dataset: str = "cifar100",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict:
    """Mean/variance of client losses, normalised to FedDRL (Fig. 6)."""
    histories = grid(
        paper_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [axis("method", ("fedavg", "fedprox", "feddrl"))],
        measure=attrgetter("history"),
    )
    return {
        "normalized": normalized_fairness(histories, reference="feddrl"),
        "histories": histories,
    }


# -- Figure 7: participation-level sweep ----------------------------------------

def participation_sweep(
    k_values: Sequence[int] = (5, 10, 20),
    dataset: str = "cifar100",
    partition: str = "CE",
    n_clients: int = 40,
    methods: Sequence[str] = ("fedavg", "fedprox", "feddrl"),
    scale: str = "bench",
    seed: int = 0,
    **overrides,
) -> dict[int, dict[str, float]]:
    """Best accuracy per method at each participation level K (Fig. 7).

    The paper uses N=100 with K in 10..50; the bench preset scales this to
    N=40, K in {5, 10, 20} for CPU runtime.  A K above N raises before
    any cell runs.
    """
    return grid(
        paper_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [axis("clients_per_round", k_values), axis("method", methods)],
    )


# -- Figure 8: non-IID level sweep ----------------------------------------------

def noniid_sweep(
    deltas: Sequence[float] = (0.2, 0.4, 0.6),
    dataset: str = "fashion",
    partition: str = "CE",
    n_clients: int = 20,
    methods: Sequence[str] = ("fedavg", "fedprox", "feddrl"),
    scale: str = "bench",
    seed: int = 0,
    **overrides,
) -> dict[float, dict[str, float]]:
    """Best accuracy per method at each cluster-skew level delta (Fig. 8)."""
    return grid(
        paper_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [axis("delta", deltas), axis("method", methods)],
    )


# -- Figure 9: server computation time --------------------------------------------

def server_overhead_figure(
    model_dims: Sequence[int] = (10_000, 100_000, 1_000_000),
    n_clients: int = 10,
    repeats: int = 20,
    seed: int = 0,
) -> dict[int, dict[str, float]]:
    """DRL-inference vs aggregation time (ms) per model size (Fig. 9).

    Uses fabricated updates so the measurement isolates the server; the DRL
    column is FedDRL's impact-factor computation (policy inference +
    sampling), the aggregation column is the eq.-(4) matrix product, and
    the FedAvg column is the trivial ``n_k / n`` weighting for reference.
    """
    rng = run_rng(seed, STREAM_DATASET)
    out: dict[int, dict[str, float]] = {}
    for dim in model_dims:
        updates = synthetic_updates(n_clients, dim, rng)
        feddrl = FedDRL(
            clients_per_round=n_clients, seed=seed, explore=False, online_training=False
        )
        drl_report = measure_server_overhead(feddrl, updates, repeats=repeats)
        fedavg_report = measure_server_overhead(FedAvg(), updates, repeats=repeats)
        out[dim] = {
            "drl_ms": drl_report.impact_ms,
            "aggregation_ms": drl_report.aggregation_ms,
            "fedavg_impact_ms": fedavg_report.impact_ms,
        }
    return out
