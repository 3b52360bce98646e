"""Ablations of FedDRL's design choices.

The paper motivates four design decisions without isolating them:
TD-prioritised replay (Algorithm 1), the two-stage training strategy
(Section 3.4.2), the fairness term in the reward (eq. 7), and the sigma
constraint coefficient beta (eq. 6).  Each ablation here runs FedDRL with
the choice toggled/swept, holding everything else fixed.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

import numpy as np

from repro.harness.runner import ExperimentResult
from repro.harness.sweep import axis, grid, paper_cell

_feddrl_cell = partial(paper_cell, method="feddrl")


def ablation_replay_strategy(
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[str, float]:
    """TD-prioritised vs uniform replay sampling."""
    return grid(
        _feddrl_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [{"td_prioritized": {"drl_prioritized": True},
          "uniform": {"drl_prioritized": False}}],
    )


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
    def measure(result: ExperimentResult) -> dict[str, float]:
        tail = result.history.loss_var_series()[-5:]
        return {
            "best_accuracy": result.best_accuracy,
            "final_loss_variance": float(np.mean(tail)),
        }

    return grid(
        _feddrl_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [axis("fairness_weight", weights)],
        measure,
    )


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
    return grid(
        _feddrl_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [axis("drl_beta", betas)],
    )


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
    return grid(
        _feddrl_cell(dataset, partition, n_clients, scale, seed, **overrides),
        [{"basic": {"drl_pretrain_rounds": 0},
          "two_stage": {"drl_pretrain_rounds": pretrain_rounds}}],
    )
