"""Federated clients: local training and the per-round upload tuple.

Algorithm 2, lines 5–11: each participating client k receives the global
weights, records the inference loss ``l_b`` of the global model on its
local data, trains for E epochs of mini-batch SGD (optionally with the
FedProx proximal term), records its post-training loss ``l_a``, and
uploads ``(l_b, l_a, n_k, w_k)``.

Clients train against a *workspace model* supplied by their execution
backend (see :mod:`repro.runtime.executor`): the serial backend reuses one
set of parameter arrays for every client, keeping memory at one model
regardless of N, while parallel backends hand each worker its own replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fleet.scale import LazyClientPool
from repro.nn.dtypes import get_default_dtype
from repro.nn.losses import Loss, SoftmaxCrossEntropy, evaluate_loss
from repro.nn.model import Sequential
from repro.nn.optim import SGD, ProximalSGD
from repro.runtime.clock import n_local_batches

if TYPE_CHECKING:
    from repro.fl.robust.attacks import AttackModel


@dataclass
class ClientUpdate:
    """What a client uploads to the server at the end of a round.

    ``weights`` is the flat weight vector ``w_k``; ``loss_before`` and
    ``loss_after`` are the paper's ``l_b`` / ``l_a``; ``n_samples`` is
    ``n_k``.
    """

    client_id: int
    weights: np.ndarray
    loss_before: float
    loss_after: float
    n_samples: int

    def __post_init__(self) -> None:
        # Preserve the model's compute dtype: a float32 substrate uploads
        # float32 vectors (half the process-backend IPC payload).  Anything
        # else (lists, int arrays, unsupported float widths) is coerced to
        # the configured dtype.
        self.weights = np.asarray(self.weights)
        if self.weights.dtype not in (np.float32, np.float64):
            self.weights = self.weights.astype(get_default_dtype())
        if self.n_samples <= 0:
            raise ValueError("a client update must cover at least one sample")
        if not (np.isfinite(self.loss_before) and np.isfinite(self.loss_after)):
            raise ValueError("client losses must be finite")


class Client:
    """One edge device holding a private local dataset."""

    def __init__(self, client_id: int, dataset: ArrayDataset) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty dataset")
        self.client_id = client_id
        self.dataset = dataset

    @property
    def n_samples(self) -> int:
        return len(self.dataset)

    def local_train(
        self,
        model: Sequential,
        global_weights: np.ndarray,
        epochs: int,
        lr: float,
        batch_size: int,
        prox_mu: float = 0.0,
        loss: Loss | None = None,
        *,
        rng: np.random.Generator,
        forward_rng: np.random.Generator | None = None,
        max_batches: int | None = None,
    ) -> ClientUpdate:
        """Run E local epochs starting from ``global_weights``; see module doc.

        ``prox_mu > 0`` enables the FedProx proximal term anchored at the
        round's global weights.  ``rng`` drives the batch shuffle and
        ``forward_rng`` any forward-time randomness (Dropout masks); the
        runtime passes ``(round, client)``-keyed generators for both so
        results do not depend on the order clients execute in
        (``forward_rng=None`` leaves the layers' own generators in use).

        ``max_batches`` caps the total number of gradient steps across all
        epochs (the fleet simulator's *completeness* axis: a device may
        only get through part of its budget before the round ends).  A
        truncated run reports a proportionally scaled ``n_samples`` so
        size-weighted aggregation sees the work actually done.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if max_batches is not None and max_batches <= 0:
            raise ValueError("max_batches must be positive when given")
        loss = loss if loss is not None else SoftmaxCrossEntropy()
        model.set_flat_weights(global_weights)
        # Install the per-(round, client) forward-randomness override — or
        # clear a stale one, so forward_rng=None gets the layers' own
        # generators as documented.
        model.seed_forward(forward_rng)
        loss_before = evaluate_loss(model, loss, self.dataset.x, self.dataset.y)

        # Optimisers over the model's arenas: one fused axpy per step
        # instead of a per-array loop (see repro.nn.optim).
        if prox_mu > 0.0:
            optimizer = ProximalSGD(model, lr=lr, mu=prox_mu)
            optimizer.set_anchor(model.flat_parameters())
        else:
            optimizer = SGD(model, lr=lr)

        # The same budget formula the dispatchers time against (one source
        # of truth for "how much work is a full round").
        full_batches = n_local_batches(self.n_samples, epochs, batch_size)
        budget = full_batches if max_batches is None else min(max_batches, full_batches)
        steps = 0
        for _ in range(epochs):
            if steps >= budget:
                break
            for xb, yb in self.dataset.batches(batch_size, rng=rng):
                model.train_batch(loss, xb, yb)
                optimizer.step()
                steps += 1
                if steps >= budget:
                    break

        n_effective = self.n_samples
        if budget < full_batches:
            n_effective = max(1, int(round(self.n_samples * budget / full_batches)))
        loss_after = evaluate_loss(model, loss, self.dataset.x, self.dataset.y)
        return ClientUpdate(
            client_id=self.client_id,
            weights=model.get_flat_weights(),
            loss_before=loss_before,
            loss_after=loss_after,
            n_samples=n_effective,
        )


def make_clients(
    train_set: ArrayDataset, parts, attack: AttackModel | None = None
) -> LazyClientPool:
    """The client population: one client per partition entry, built when
    it is first needed (:class:`repro.fleet.scale.LazyClientPool`).

    Each client's data is a row view of ``train_set`` (no copy), so the
    training set stays the only copy of the samples; ``attack`` poisons a
    malicious client's shard as the client is built.  A client holds no
    generator: the runtime passes each ``(round, client)`` cell its own.
    """
    return LazyClientPool(train_set, parts, attack)
