"""Tests for stage 2 of two-stage training: the offline-trained main agent.

Worker buffers are filled by bandit rollouts here; the engine-run workers
of the harness are covered by ``tests/harness/test_pretrain_ablations.py``.
"""

import numpy as np
import pytest

from repro.drl.agent import DDPGAgent, DRLConfig
from repro.drl.replay import ReplayBuffer
from repro.drl.two_stage import train_offline
from tests.drl.bandit import QuadraticBanditEnv, mean_greedy_reward, rollout

CFG = DRLConfig(min_buffer=8, batch_size=8, updates_per_round=2)


def make_env() -> QuadraticBanditEnv:
    return QuadraticBanditEnv(3, seed=7)


def make_agent(cfg=CFG, seed=0) -> DDPGAgent:
    env = make_env()
    return DDPGAgent(env.state_dim, env.n_clients, cfg, np.random.default_rng(seed))


def filled_buffer(n=40) -> ReplayBuffer:
    agent = make_agent(seed=3)
    rollout(make_env(), agent, n, train_online=False)
    return agent.buffer


class TestTrainOffline:
    def test_updates_networks_without_env(self):
        buffer = filled_buffer()
        agent = make_agent(seed=4)
        before = agent.policy_main.get_flat_weights().copy()
        losses = train_offline(agent, buffer, 20)
        assert len(losses) == 20
        assert not np.array_equal(agent.policy_main.get_flat_weights(), before)
        assert agent.total_updates == 20

    def test_critic_loss_trends_down(self):
        buffer = filled_buffer(60)
        agent = make_agent(DRLConfig(min_buffer=8, batch_size=32, value_lr=3e-3), seed=5)
        losses = train_offline(agent, buffer, 150)
        assert np.mean(losses[-30:]) < np.mean(losses[:30])

    def test_empty_buffer_raises(self):
        with pytest.raises(ValueError):
            train_offline(make_agent(), ReplayBuffer(10), 5)

    def test_zero_updates_raises(self):
        with pytest.raises(ValueError):
            train_offline(make_agent(), filled_buffer(10), 0)


class TestMainAgent:
    def test_offline_trained_main_agent_beats_fresh(self):
        """Two exploring workers' merged experience, trained offline,
        outperforms an untrained agent on the known-optimum bandit."""
        cfg = DRLConfig(min_buffer=16, batch_size=16, updates_per_round=4)
        main = make_agent(cfg, seed=999_983)
        for w in range(2):
            worker = make_agent(cfg, seed=1000 * w)
            rollout(make_env(), worker, 120)
            main.buffer.merge(worker.buffer)
        assert len(main.buffer) == 240
        train_offline(main, main.buffer, 300)
        fresh = make_agent(seed=42)
        assert mean_greedy_reward(main, make_env(), 30) > mean_greedy_reward(
            fresh, make_env(), 30
        )
