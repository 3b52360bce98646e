"""A stand-alone federated server facade for manual round driving.

:class:`repro.fl.simulation.FederatedSimulation` owns the whole loop; this
facade exposes the *server half* of Algorithm 2 (broadcast → collect →
aggregate) for users who drive rounds themselves — e.g. to interleave
custom client scheduling, inject faults, or bridge to a real transport.

Example::

    server = FederatedServer(model_factory, strategy, seed=0)
    executor = make_executor("process", clients, model_factory, workers=4)
    for t in range(rounds):
        server.run_round(executor, picked, epochs=5, lr=0.01, batch_size=10)

or fully manually::

    for t in range(rounds):
        w = server.broadcast()
        updates = [c.local_train(model, w, epochs, lr, batch) for c in picked]
        server.aggregate(updates)
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import ClientUpdate
from repro.fl.simulation import aggregate_window
from repro.fl.strategies.base import Strategy
from repro.runtime.executor import Executor, RoundContext


class FederatedServer:
    """Holds the global model weights and applies an aggregation strategy."""

    def __init__(self, model_factory, strategy: Strategy, seed: int = 0) -> None:
        self.strategy = strategy
        self._model = model_factory(np.random.default_rng(seed))
        self.global_weights = self._model.get_flat_weights()
        self.round_idx = 0
        self.impact_times: list[float] = []
        self.aggregation_times: list[float] = []

    @property
    def model_dim(self) -> int:
        return int(self.global_weights.shape[0])

    def broadcast(self) -> np.ndarray:
        """The weights to send to this round's participants (a copy, so a
        client cannot mutate the server's state)."""
        return self.global_weights.copy()

    def aggregate(self, updates: list[ClientUpdate]) -> np.ndarray:
        """One server step — a flat synchronous window through the shared
        :func:`~repro.fl.simulation.aggregate_window`: impact factors,
        eq. (4), side-thread hook."""
        if not updates:
            raise ValueError("aggregate needs at least one client update")
        for u in updates:
            if u.weights.shape != self.global_weights.shape:
                raise ValueError(
                    f"client {u.client_id} uploaded {u.weights.shape[0]} weights, "
                    f"server model has {self.model_dim}"
                )
        result = aggregate_window(
            self.global_weights, self.strategy, updates, self.round_idx
        )
        self.global_weights = result.weights
        self.impact_times.append(result.impact_time_s)
        self.aggregation_times.append(result.aggregation_time_s)
        self.round_idx += 1
        return self.global_weights

    def run_round(
        self,
        executor: Executor,
        participants: list[int],
        *,
        epochs: int,
        lr: float,
        batch_size: int,
        seed: int = 0,
    ) -> list[ClientUpdate]:
        """One full server round through an execution backend.

        Broadcast → concurrent local training → aggregate.  ``seed`` keys
        the per-``(round, client)`` batch RNGs, so resuming from a
        checkpoint at the same ``round_idx`` reproduces the same round.
        """
        ctx = RoundContext(
            round_idx=self.round_idx,
            global_weights=self.broadcast(),
            epochs=epochs,
            lr=lr,
            batch_size=batch_size,
            base_seed=seed,
            client_kwargs=self.strategy.client_kwargs(),
        )
        updates = executor.run_round(ctx, participants)
        self.aggregate(updates)
        return updates

    def state_dict(self) -> dict:
        """Checkpointable server state (weights + round counter)."""
        return {
            "global_weights": self.global_weights.copy(),
            "round_idx": self.round_idx,
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`.

        Checkpoints are dtype-portable: weights saved by a float64 server
        load into a float32 server (and vice versa) by casting into this
        server's compute dtype.
        """
        weights = np.asarray(state["global_weights"])
        if weights.shape != self.global_weights.shape:
            raise ValueError("checkpoint weight dimension mismatch")
        self.global_weights = weights.astype(self.global_weights.dtype, copy=True)
        self.round_idx = int(state["round_idx"])

    # Canonical checkpoint verbs, shared with the async engine.
    checkpoint = state_dict
    load_checkpoint = load_state_dict
