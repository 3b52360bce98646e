#!/usr/bin/env python
"""Diagnosing cluster bias with per-class accuracy.

The paper's core claim about cluster skew is that naive aggregation makes
the global model "converge to an over-fitted solution" — good on the main
cluster's labels, poor elsewhere.  This script makes that visible: it
trains FedAvg on a CE partition and prints the per-class test accuracy
split into *main-cluster labels* vs *minority-cluster labels*, then shows
the per-client inference losses that feed FedDRL's state vector.

Run:  python examples/cluster_bias_diagnosis.py
"""

from functools import partial

import numpy as np

from repro.data.partition import (
    cluster_assignment,
    clustered_equal_partition,
    partition_matrix,
)
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.nn.metrics import per_class_accuracy
from repro.nn.models import mlp

N_CLIENTS, DELTA, N_CLUSTERS, CLASSES = 10, 0.8, 2, 10


def main() -> None:
    spec = SyntheticImageSpec(num_classes=CLASSES, channels=1, image_size=8, noise=1.1)
    train, test = make_synthetic_dataset(spec, 1500, 600, np.random.default_rng(0))
    parts = clustered_equal_partition(
        train.y, N_CLIENTS, np.random.default_rng(1), delta=DELTA, n_clusters=N_CLUSTERS
    )

    # Which labels belong to the main cluster?
    assignment = cluster_assignment(N_CLIENTS, DELTA, N_CLUSTERS)
    mat = partition_matrix(train.y, parts, CLASSES)
    main_clients = np.flatnonzero(assignment == 0)
    main_labels = np.flatnonzero(mat[:, main_clients].sum(axis=1) > 0)
    minority_labels = np.setdiff1d(np.arange(CLASSES), main_labels)
    print(f"main cluster: {main_clients.size}/{N_CLIENTS} clients, "
          f"labels {main_labels.tolist()}")
    print(f"minority labels: {minority_labels.tolist()}\n")

    features = int(np.prod(train.x.shape[1:]))
    factory = partial(mlp, features, CLASSES, hidden=(32,))
    clients = make_clients(train, parts)
    config = FLConfig(rounds=25, clients_per_round=10, local_epochs=2, lr=0.05,
                      batch_size=16, seed=0)
    sim = FederatedSimulation(clients, test, factory, FedAvg(), config)
    history = sim.run()

    sim.model.set_flat_weights(sim.global_weights)
    acc = per_class_accuracy(sim.model, test.x, test.y, CLASSES)
    with np.errstate(invalid="ignore"):
        main_acc = float(np.nanmean(acc[main_labels]))
        minority_acc = float(np.nanmean(acc[minority_labels]))

    print(f"FedAvg after {config.rounds} rounds "
          f"(best overall acc {history.best_accuracy():.3f}):")
    print(f"  mean accuracy on MAIN-cluster labels:     {main_acc:.3f}")
    print(f"  mean accuracy on MINORITY-cluster labels: {minority_acc:.3f}")
    print(f"  bias gap:                                 {main_acc - minority_acc:+.3f}")

    last = history.records[-1]
    print("\nPer-client inference losses in the final round (FedDRL's l_b state):")
    for cid, loss in zip(last.participants, last.client_losses_before):
        group = "main" if assignment[cid] == 0 else "minority"
        print(f"  client {cid:2d} ({group:>8}): {loss:.3f}")
    print("\nMinority clients' higher losses are exactly the signal FedDRL's")
    print("reward (eq. 7) penalises via the max-min gap term.")


if __name__ == "__main__":
    main()
