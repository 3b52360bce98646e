"""Table generators: the paper's Table 3 and Table 4.

Each function returns a nested dict of best top-1 accuracies plus the
relative-improvement rows the paper reports, and a ``format_accuracy_table``
renderer prints the same layout as the paper (methods × partitioning
methods, with impr.(a)/impr.(b) rows).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.harness.sweep import axis, grid, paper_cell

FEDERATED_METHODS = ("fedavg", "fedprox", "feddrl")
ALL_METHODS = ("singleset",) + FEDERATED_METHODS


def improvements(cell: dict[str, float]) -> tuple[float, float]:
    """The paper's impr.(a)/(b): FedDRL vs best and worst baseline (%).

    Relative improvement ``(acc_drl - acc_base) / acc_base * 100``.
    """
    baselines = [cell[m] for m in FEDERATED_METHODS if m != "feddrl" and m in cell]
    if "feddrl" not in cell or not baselines:
        raise ValueError("cell must contain feddrl and at least one baseline")
    drl = cell["feddrl"]
    best, worst = max(baselines), min(baselines)
    impr_a = (drl - best) / best * 100.0 if best > 0 else 0.0
    impr_b = (drl - worst) / worst * 100.0 if worst > 0 else 0.0
    return impr_a, impr_b


def table3(
    scale: str = "bench",
    datasets: Sequence[str] = ("cifar100", "fashion", "mnist"),
    partitions: Sequence[str] = ("PA", "CE", "CN"),
    client_counts: Sequence[int] = (10,),
    methods: Sequence[str] = ALL_METHODS,
    delta: float = 0.6,
    seed: int = 0,
    **overrides,
) -> dict:
    """Table 3: top-1 accuracy across datasets × partitions × client counts,
    as ``results[n_clients][dataset][partition][method]``.

    The paper fixes the non-IID level at ``delta = 0.6`` for CE/CN.
    Extra keyword arguments (e.g. ``rounds=60``) are forwarded to every
    :class:`~repro.harness.config.ExperimentConfig` in the grid.
    """
    axes = [axis("dataset", datasets), axis("partition", partitions), axis("method", methods)]
    return {
        n: grid(paper_cell(datasets[0], partitions[0], n, scale, seed, delta=delta, **overrides),
                axes)
        for n in client_counts
    }


def table4(
    scale: str = "bench",
    client_counts: Sequence[int] = (10,),
    methods: Sequence[str] = ALL_METHODS,
    seed: int = 0,
    **overrides,
) -> dict:
    """Table 4: FedAvg's label-size-imbalance splits (Equal / Non-equal),
    CIFAR-100 stand-in.  Extra keyword arguments are forwarded to every
    experiment config in the grid."""
    return table3(scale, ("cifar100",), ("EQUAL", "NONEQUAL"), client_counts, methods,
                  seed=seed, **overrides)


def format_accuracy_table(results: dict, title: str) -> str:
    """Render a results grid in the paper's layout (accuracies in %)."""
    lines = [title, "=" * len(title)]
    for n_clients, by_dataset in results.items():
        lines.append(f"\n{n_clients} clients")
        for dataset, by_partition in by_dataset.items():
            partitions = list(by_partition)
            header = f"  {dataset:<10}" + "".join(f"{p:>12}" for p in partitions)
            lines.append(header)
            methods = list(next(iter(by_partition.values())))
            for method in methods:
                row = f"  {method:<10}"
                for p in partitions:
                    row += f"{by_partition[p][method] * 100:>11.2f}%"
                lines.append(row)
            if all("feddrl" in by_partition[p] for p in partitions):
                row_a, row_b = "  impr.(a)  ", "  impr.(b)  "
                for p in partitions:
                    try:
                        a, b = improvements(by_partition[p])
                    except ValueError:
                        a = b = float("nan")
                    row_a += f"{a:>11.2f}%"
                    row_b += f"{b:>11.2f}%"
                lines += [row_a, row_b]
    return "\n".join(lines)
