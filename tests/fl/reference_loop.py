"""Plain synchronous FedAvg as one literal loop: the engine-level oracle.

select → ``Client.local_train`` → ``combine_updates`` with FedAvg's
``n_k / Σn``, and nothing else: no executor, clock, fleet, wire,
hierarchy, defense, records or evaluation.  It draws from the same
streams the engine does, through the same helpers — the evaluation
model's init from ``STREAM_MODEL_INIT``, ``UniformSelection`` on
``STREAM_SELECTION``, and the ``(round, client)``-keyed batch
generators — so :class:`FederatedSimulation` with
every feature off must reproduce its ``global_weights`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.selection import UniformSelection
from repro.fl.simulation import FLConfig
from repro.fl.strategies.base import combine_updates
from repro.nn.losses import SoftmaxCrossEntropy
from repro.runtime.seeding import (
    STREAM_MODEL_INIT, STREAM_SELECTION, client_round_rng, run_rng,
)


def reference_fedavg(clients: list[Client], model_factory, config: FLConfig) -> np.ndarray:
    """The global weights after ``config.rounds`` rounds of plain FedAvg."""
    model = model_factory(run_rng(config.seed, STREAM_MODEL_INIT))
    weights = model.get_flat_weights()
    selector = UniformSelection(run_rng(config.seed, STREAM_SELECTION))
    loss = SoftmaxCrossEntropy()
    for t in range(config.rounds):
        participants = selector.select(len(clients), config.clients_per_round, t)
        updates = [
            clients[cid].local_train(
                model, weights,
                epochs=config.local_epochs, lr=config.lr,
                batch_size=config.batch_size, loss=loss,
                rng=client_round_rng(config.seed, t, cid),
            )
            for cid in participants
        ]
        n = np.array([u.n_samples for u in updates], dtype=float)
        weights = combine_updates(updates, n / n.sum())
    return weights
