"""Stage 2 of the two-stage training strategy (Section 3.4.2, Fig. 3b).

Stage 1 (*online*): ``m`` initially identical worker agents each explore
their own federated run, training as they go and filling per-worker
experience buffers.  A worker is an ordinary engine run with a FedDRL
strategy (``repro.harness.runner.pretrain_feddrl_agent``).

Stage 2 (*offline*, here): the per-worker buffers are merged into one
centralised buffer and a fresh *main agent* is trained purely from it —
no further environment interaction — using the same critic/actor updates
as Algorithm 1.
"""

from __future__ import annotations

from repro.drl.agent import DDPGAgent
from repro.drl.networks import soft_update
from repro.drl.replay import ReplayBuffer


def train_offline(
    agent: DDPGAgent,
    buffer: ReplayBuffer,
    n_updates: int,
) -> list[float]:
    """Stage 2: train ``agent`` from a fixed buffer, no env interaction.

    Returns the per-update critic losses (a decreasing trend is the
    offline-phase health check used by the tests).
    """
    if n_updates <= 0:
        raise ValueError("n_updates must be positive")
    if len(buffer) == 0:
        raise ValueError("offline training needs a non-empty buffer")
    batch_size = min(agent.config.batch_size, len(buffer))
    losses: list[float] = []
    for _ in range(n_updates):
        s, a, r, s2 = buffer.sample_uniform(batch_size, agent.rng)
        losses.append(agent._critic_update(s, a, r, s2))
        agent._actor_update(s)
        soft_update(agent.value_target, agent.value_main, agent.config.rho)
        soft_update(agent.policy_target, agent.policy_main, agent.config.rho)
        agent.total_updates += 1
    return losses
