#!/usr/bin/env python
"""Cluster-skew study: how the paper's new non-IID type biases FedAvg.

Reproduces the paper's motivating observation (Sections 1–2): when a
*main* group of clients shares the same labels, naive sample-count
weighting over-fits the global model to that group.  The script:

1. builds CE partitions at increasing bias levels delta (Fig. 8's knob),
2. shows the partition structure (Fig. 4-style matrix),
3. trains FedAvg and FedDRL at each level,
4. reports accuracy and the per-client loss variance — the fairness
   metric behind Fig. 6.

Run:  python examples/cluster_skew_study.py
"""

import numpy as np

from repro.data.partition import partition_summary
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.figures import partition_figure


def main() -> None:
    print("=== Part 1: what cluster skew looks like ===")
    fig = partition_figure("CE", n_clients=10, num_classes=10,
                           n_samples=4000, delta=0.6, seed=0)
    print("Label x client matrix (CE, delta=0.6; '@' = many samples):")
    print(fig["ascii"])
    print("\nClients 0-5 form the main cluster: they share one label group,")
    print("so their knowledge is redundant — the bias FedDRL must learn to fix.\n")

    print("=== Part 2: accuracy and fairness vs bias level ===")
    header = f"{'delta':>6} {'method':>8} {'best acc':>9} {'loss var (last 10 rds)':>23}"
    print(header)
    for delta in (0.2, 0.4, 0.6):
        for method in ("fedavg", "feddrl"):
            cfg = ExperimentConfig(
                dataset="fashion", partition="CE", method=method,
                n_clients=20, clients_per_round=10,
                scale="bench", delta=delta, seed=0,
            ).with_(rounds=40)
            result = run_experiment(cfg)
            var_tail = float(np.mean(result.history.loss_var_series()[-10:]))
            print(f"{delta:>6} {method:>8} {result.best_accuracy:>9.3f} {var_tail:>23.4f}")

    print("\nPaper shape (Fig. 8): accuracy degrades as delta grows and FedDRL")
    print("tracks or beats FedAvg.  At this CPU scale FedDRL's exploration")
    print("noise can inflate the loss variance early on — the paper sees the")
    print("same effect in its first 200-300 rounds (Fig. 6 discussion).")


if __name__ == "__main__":
    main()
