"""The FedDRL reward function (eq. 7 of the paper).

The paper's eq. (7) writes the signal as

    r_t = mean_k(l_b^k)  +  ( max_k(l_b^k) - min_k(l_b^k) )

where ``l_b^k`` is the loss of the (new) global model on client k's data,
measured at the start of the next communication round.  Both terms are
*costs* — the agent should make them small — while an RL agent maximises
return, so we return the negated value; :func:`reward_components`
exposes the raw terms.
"""

from __future__ import annotations

import numpy as np


def reward_components(losses_before: np.ndarray) -> tuple[float, float]:
    """Return ``(mean_loss, fairness_gap)`` for a vector of client losses."""
    losses = np.asarray(losses_before, dtype=float)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("losses_before must be a non-empty 1-D vector")
    if np.any(~np.isfinite(losses)):
        raise ValueError("losses contain non-finite values")
    return float(losses.mean()), float(losses.max() - losses.min())


def feddrl_reward(losses_before: np.ndarray) -> float:
    """Negated eq. (7): higher reward = lower average loss and lower bias."""
    mean_loss, gap = reward_components(losses_before)
    return -(mean_loss + gap)
