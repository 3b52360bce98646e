"""Convergence-rate analysis (Figure 10).

The paper compares, per dataset × partition, the number of communication
rounds each method needs to reach a common target accuracy (chosen as the
*minimum* of the methods' best accuracies so every method can reach it).
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter

from repro.harness.sweep import axis, grid, paper_cell


def convergence_table(
    dataset: str = "mnist",
    partition: str = "CE",
    methods: Sequence[str] = ("fedavg", "fedprox", "feddrl"),
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict:
    """Rounds-to-target per method, plus slowdown ratios relative to FedDRL.

    Mirrors the paper's reporting: e.g. "FedAvg and FedProx spend 1.16x and
    1.2x longer than FedDRL".  Returns ``{"target": t, "rounds": {...},
    "relative": {...}, "best": {...}}``: ``rounds`` is the 0-based index of
    the first round reaching the target, and ``relative`` is each method's
    round *count* (index + 1) divided by FedDRL's (None when either never
    reaches the target).
    """
    histories = grid(
        paper_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [axis("method", methods)],
        measure=attrgetter("history"),
    )
    best = {m: h.best_accuracy() for m, h in histories.items()}
    target = min(best.values())
    rounds = {m: h.rounds_to_accuracy(target) for m, h in histories.items()}
    ref = rounds.get("feddrl")
    relative = {m: None if r is None or ref is None else (r + 1) / (ref + 1)
                for m, r in rounds.items()}
    return {"target": target, "rounds": rounds, "relative": relative, "best": best}
