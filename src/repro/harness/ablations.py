"""Ablations of FedDRL's design choices.

The paper motivates four design decisions without isolating them:
TD-prioritised replay (Algorithm 1), the two-stage training strategy
(Section 3.4.2), the fairness term in the reward (eq. 7), and the sigma
constraint coefficient beta (eq. 6).  Each ablation here runs FedDRL with
the choice toggled/swept, holding everything else fixed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment


def ablation_replay_strategy(
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[str, float]:
    """TD-prioritised vs uniform replay sampling."""
    out = {}
    for name, prioritized in (("td_prioritized", True), ("uniform", False)):
        cfg = ExperimentConfig(
            dataset=dataset, partition=partition, method="feddrl",
            n_clients=n_clients, clients_per_round=min(10, n_clients),
            scale=scale, seed=seed, drl_prioritized=prioritized, **overrides,
        )
        out[name] = run_experiment(cfg).best_accuracy
    return out


def ablation_fairness_weight(
    weights: Sequence[float] = (0.0, 0.5, 1.0),
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[float, dict[str, float]]:
    """Reward with/without the max-min fairness gap (eq. 7 second term).

    Reports both accuracy and the final variance of client losses, since
    the gap term exists to reduce exactly that variance.
    """
    out: dict[float, dict[str, float]] = {}
    for w in weights:
        cfg = ExperimentConfig(
            dataset=dataset, partition=partition, method="feddrl",
            n_clients=n_clients, clients_per_round=min(10, n_clients),
            scale=scale, seed=seed, fairness_weight=w, **overrides,
        )
        result = run_experiment(cfg)
        var_series = result.history.loss_var_series()
        tail = var_series[max(0, len(var_series) - 5):]
        out[w] = {
            "best_accuracy": result.best_accuracy,
            "final_loss_variance": float(np.mean(tail)),
        }
    return out


def ablation_sigma_beta(
    betas: Sequence[float] = (0.1, 0.5, 0.9),
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[float, float]:
    """Sweep the eq.-(6) constraint coefficient beta."""
    out = {}
    for beta in betas:
        cfg = ExperimentConfig(
            dataset=dataset, partition=partition, method="feddrl",
            n_clients=n_clients, clients_per_round=min(10, n_clients),
            scale=scale, seed=seed, drl_beta=beta, **overrides,
        )
        out[beta] = run_experiment(cfg).best_accuracy
    return out


def ablation_two_stage(
    pretrain_rounds: int = 30,
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[str, float]:
    """Basic training (Algorithm 1) vs two-stage pretraining (Section 3.4.2).

    Best accuracy of FedDRL from a fresh agent (``drl_pretrain_rounds=0``)
    and from a main agent trained offline on the merged experience of
    ``drl_pretrain_workers`` worker runs of ``pretrain_rounds`` rounds each.
    """
    out = {}
    for name, rounds in (("basic", 0), ("two_stage", pretrain_rounds)):
        cfg = ExperimentConfig(
            dataset=dataset, partition=partition, method="feddrl",
            n_clients=n_clients, clients_per_round=min(10, n_clients),
            scale=scale, seed=seed, drl_pretrain_rounds=rounds, **overrides,
        )
        out[name] = run_experiment(cfg).best_accuracy
    return out
