#!/usr/bin/env python
"""Two-stage training (Section 3.4.2): worker runs, merged buffer, main agent.

The paper's proposed training strategy, through the harness:

* Stage 1 (online): each of ``drl_pretrain_workers`` workers (2, as in
  the paper) is an ordinary federated run of the same config on its own
  seed (its own dataset and partition draw), whose fresh FedDRL agent
  explores and trains online for ``drl_pretrain_rounds`` rounds.
* Stage 2 (offline): the workers' replay buffers are merged and a fresh
  *main agent* is trained purely from the pooled experience
  (``drl_offline_updates`` updates).
* Deployment: the main agent, with its exploration noise dialled down,
  drives the evaluation run's FedDRL strategy.

``build_strategy(cfg)`` does all three when ``drl_pretrain_rounds > 0``;
``build_simulation`` calls it.  The same evaluation cell runs once with a
fresh agent and once with a pretrained one.

Run:  PYTHONPATH=src python examples/two_stage_training.py
"""

from repro.harness.config import ExperimentConfig
from repro.harness.runner import build_simulation

BASE = ExperimentConfig(
    dataset="mnist", partition="CE", method="feddrl", scale="ci",
    n_clients=12, clients_per_round=6, seed=0,
    drl_offline_updates=150,
).with_(rounds=8)


def main() -> None:
    for label, pretrain_rounds in (("fresh agent", 0), ("pretrained agent", 25)):
        cfg = BASE.with_(drl_pretrain_rounds=pretrain_rounds)
        print(f"=== {label} (drl_pretrain_rounds={pretrain_rounds}) ===")
        with build_simulation(cfg) as sim:
            agent = sim.strategy.agent
            print(f"agent before round 0: {len(agent.buffer)} transitions, "
                  f"{agent.total_updates} updates, noise {agent.noise_scale:.3f}")
            history = sim.run()
        for record in history.records:
            alphas = "  ".join(f"{a:.2f}" for a in record.impact_factors)
            print(f"round {record.round_idx}: acc={record.test_accuracy:.3f}  "
                  f"alphas=[{alphas}]")
        print(f"best accuracy: {history.best_accuracy():.3f}\n")


if __name__ == "__main__":
    main()
