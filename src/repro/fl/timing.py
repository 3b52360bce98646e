"""Server-side computation-time measurement (Figure 9).

The paper argues FedDRL is practical because the extra server work — one
policy-network inference — costs milliseconds, dwarfed by the weighted
aggregation itself for large models.  These helpers measure both pieces
for any strategy, outside of a full simulation, so the Fig. 9 bench can
sweep model sizes cheaply.

Timing primitives live in :mod:`repro.obs.metrics` (one stopwatch
implementation for the whole codebase).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.client import ClientUpdate
from repro.fl.strategies.base import Strategy, combine_updates
from repro.obs.metrics import Histogram, Timer

__all__ = ["OverheadReport", "synthetic_updates", "measure_server_overhead"]


@dataclass
class OverheadReport:
    """Mean per-round server times, in milliseconds."""

    impact_ms: float
    aggregation_ms: float
    model_dim: int
    clients: int


def synthetic_updates(
    n_clients: int, model_dim: int, rng: np.random.Generator
) -> list[ClientUpdate]:
    """Fabricated updates with realistic shapes for timing-only runs."""
    return [
        ClientUpdate(
            client_id=k,
            weights=rng.normal(size=model_dim),
            loss_before=float(rng.uniform(0.5, 3.0)),
            loss_after=float(rng.uniform(0.1, 2.0)),
            n_samples=int(rng.integers(10, 200)),
        )
        for k in range(n_clients)
    ]


def measure_server_overhead(
    strategy: Strategy,
    updates: list[ClientUpdate],
    repeats: int = 10,
) -> OverheadReport:
    """Time impact-factor computation and aggregation separately."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    impact, agg = Histogram(), Histogram()
    for r in range(repeats):
        with Timer() as t_impact:
            alphas = strategy.impact_factors(updates, round_idx=r)
        with Timer() as t_agg:
            combine_updates(updates, alphas)
        impact.observe(t_impact.elapsed)
        agg.observe(t_agg.elapsed)
    return OverheadReport(
        impact_ms=impact.mean * 1e3,
        aggregation_ms=agg.mean * 1e3,
        model_dim=updates[0].weights.shape[0],
        clients=len(updates),
    )
