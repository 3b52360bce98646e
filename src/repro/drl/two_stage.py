"""Two-stage training strategy (Section 3.4.2, Fig. 3b).

Stage 1 (*online*): ``m`` initially identical worker agents each interact
with their own environment instance, training as they go and filling
per-worker experience buffers.  Because the workers' exploration noise and
environments evolve independently, their experience diverges, enriching
the pooled data.

Stage 2 (*offline*): the per-worker buffers are merged into one
centralised buffer and a fresh *main agent* is trained purely from it —
no further environment interaction — using the same critic/actor updates
as Algorithm 1.

The paper sets ``m = 2`` workers "for computational reasons"; the trainer
takes ``n_workers`` as a parameter so the ablation bench can sweep it.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.drl.agent import AGENT_DTYPE, DDPGAgent, DRLConfig
from repro.drl.env import Environment
from repro.drl.replay import ReplayBuffer


@dataclass
class WorkerResult:
    """Outcome of one online worker's rollout."""

    worker_id: int
    rewards: list[float] = field(default_factory=list)
    buffer: ReplayBuffer | None = None


def run_worker(
    env: Environment,
    agent: DDPGAgent,
    n_rounds: int,
    train_online: bool = True,
) -> WorkerResult:
    """Roll one worker agent through ``n_rounds`` environment steps."""
    if n_rounds <= 0:
        raise ValueError("n_rounds must be positive")
    result = WorkerResult(worker_id=0)
    state = env.reset()
    for _ in range(n_rounds):
        action = agent.act(state, explore=True)
        next_state, reward, _info = env.step(action)
        agent.observe(state, action, reward, next_state)
        if train_online:
            agent.train()
        result.rewards.append(reward)
        state = next_state
    result.buffer = agent.buffer
    return result


def collect_worker_experience(
    env_factory: Callable[[int], Environment],
    config: DRLConfig,
    n_workers: int,
    rounds_per_worker: int,
    seed: int = 0,
    threads: int = 1,
) -> tuple[ReplayBuffer, list[WorkerResult]]:
    """Stage 1: run ``n_workers`` online workers and merge their buffers.

    ``env_factory(worker_id)`` must return an independent environment per
    worker; each worker gets its own seeded RNG so the initially identical
    agents diverge through exploration, as the paper describes.

    The workers roll out on a pool of ``threads`` threads (env steps are
    NumPy kernels that release the GIL).  Workers share nothing — each
    builds its own environment and agent from its own seed — and buffers
    merge in worker-id order, so the pooled experience is bit-identical
    for every thread count.
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")

    def run_one(worker_id: int) -> WorkerResult:
        env = env_factory(worker_id)
        agent = DDPGAgent(
            env.state_dim, env.n_clients, config,
            rng=np.random.default_rng(seed + 1000 * worker_id),
        )
        result = run_worker(env, agent, rounds_per_worker)
        result.worker_id = worker_id
        return result

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_one, range(n_workers)))
    merged = ReplayBuffer(config.buffer_capacity, dtype=AGENT_DTYPE)
    for result in results:
        merged.merge(result.buffer)
    return merged, results


def train_offline(
    agent: DDPGAgent,
    buffer: ReplayBuffer,
    n_updates: int,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Stage 2: train ``agent`` from a fixed buffer, no env interaction.

    Returns the per-update critic losses (a decreasing trend is the
    offline-phase health check used by the tests).
    """
    if n_updates <= 0:
        raise ValueError("n_updates must be positive")
    if len(buffer) == 0:
        raise ValueError("offline training needs a non-empty buffer")
    rng = rng if rng is not None else agent.rng
    batch_size = min(agent.config.batch_size, len(buffer))
    losses: list[float] = []
    for _ in range(n_updates):
        s, a, r, s2 = buffer.sample_uniform(batch_size, rng)
        losses.append(agent._critic_update(s, a, r, s2))
        agent._actor_update(s)
        from repro.drl.networks import soft_update

        soft_update(agent.value_target, agent.value_main, agent.config.rho)
        soft_update(agent.policy_target, agent.policy_main, agent.config.rho)
        agent.total_updates += 1
    return losses


class TwoStageTrainer:
    """Convenience wrapper running both stages and returning the main agent."""

    def __init__(
        self,
        env_factory: Callable[[int], Environment],
        config: DRLConfig | None = None,
        n_workers: int = 2,
        seed: int = 0,
        threads: int = 1,
    ) -> None:
        self.env_factory = env_factory
        self.config = config or DRLConfig()
        self.n_workers = n_workers
        self.seed = seed
        self.threads = threads
        self.worker_results: list[WorkerResult] = []
        self.merged_buffer: ReplayBuffer | None = None

    def train(self, rounds_per_worker: int, offline_updates: int) -> DDPGAgent:
        """Run stage 1 then stage 2; return the offline-trained main agent."""
        merged, results = collect_worker_experience(
            self.env_factory, self.config, self.n_workers, rounds_per_worker,
            self.seed, threads=self.threads,
        )
        self.worker_results = results
        self.merged_buffer = merged
        # Probe worker 0's environment for dimensions only (no rollout).
        probe = self.env_factory(0)
        main_agent = DDPGAgent(
            probe.state_dim,
            probe.n_clients,
            self.config,
            rng=np.random.default_rng(self.seed + 999_983),
        )
        main_agent.buffer.merge(merged)
        train_offline(main_agent, merged, offline_updates)
        return main_agent
