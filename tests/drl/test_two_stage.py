"""Tests for the two-stage (online workers + offline main agent) training."""

import numpy as np
import pytest

from repro.drl.agent import DDPGAgent, DRLConfig
from repro.drl.env import QuadraticBanditEnv
from repro.drl.replay import ReplayBuffer
from repro.drl.two_stage import (
    TwoStageTrainer,
    collect_worker_experience,
    run_worker,
    train_offline,
)


def env_factory(worker_id: int) -> QuadraticBanditEnv:
    return QuadraticBanditEnv(3, seed=7)


CFG = DRLConfig(min_buffer=8, batch_size=8, updates_per_round=2)


class TestRunWorker:
    def test_collects_one_experience_per_round(self):
        env = env_factory(0)
        agent = DDPGAgent(env.state_dim, env.n_clients, CFG, np.random.default_rng(0))
        result = run_worker(env, agent, 15)
        assert len(result.rewards) == 15
        assert len(result.buffer) == 15

    def test_rejects_zero_rounds(self):
        env = env_factory(0)
        agent = DDPGAgent(env.state_dim, env.n_clients, CFG, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_worker(env, agent, 0)

    def test_train_online_false_skips_updates(self):
        env = env_factory(0)
        agent = DDPGAgent(env.state_dim, env.n_clients, CFG, np.random.default_rng(0))
        run_worker(env, agent, 12, train_online=False)
        assert agent.total_updates == 0


class TestCollectWorkerExperience:
    def test_merged_size(self):
        merged, results = collect_worker_experience(env_factory, CFG, 3, 10, seed=1)
        assert len(merged) == 30
        assert len(results) == 3

    def test_workers_diverge(self):
        """Initially identical workers must produce different experience —
        the stated purpose of stage 1."""
        _, results = collect_worker_experience(env_factory, CFG, 2, 10, seed=1)
        a0 = results[0].buffer.items()[5].action
        a1 = results[1].buffer.items()[5].action
        assert not np.array_equal(a0, a1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            collect_worker_experience(env_factory, CFG, 0, 10)

    def test_executor_dispatch_matches_sequential(self):
        """Workers rolled out on three threads produce the same merged
        experience as the sequential default, in the same order."""
        serial_merged, serial_results = collect_worker_experience(
            env_factory, CFG, 3, 10, seed=1
        )
        pooled_merged, pooled_results = collect_worker_experience(
            env_factory, CFG, 3, 10, seed=1, threads=3
        )
        assert [r.worker_id for r in pooled_results] == [0, 1, 2]
        assert len(pooled_merged) == len(serial_merged) == 30
        for a, b in zip(serial_merged.items(), pooled_merged.items()):
            np.testing.assert_array_equal(a.state, b.state)
            np.testing.assert_array_equal(a.action, b.action)
            assert a.reward == b.reward


class TestTrainOffline:
    def make_filled_buffer(self, n=40):
        env = env_factory(0)
        agent = DDPGAgent(env.state_dim, env.n_clients, CFG, np.random.default_rng(3))
        run_worker(env, agent, n, train_online=False)
        return agent.buffer

    def test_updates_networks_without_env(self):
        buffer = self.make_filled_buffer()
        env = env_factory(0)
        agent = DDPGAgent(env.state_dim, env.n_clients, CFG, np.random.default_rng(4))
        before = agent.policy_main.get_flat_weights().copy()
        losses = train_offline(agent, buffer, 20)
        assert len(losses) == 20
        assert not np.array_equal(agent.policy_main.get_flat_weights(), before)
        assert agent.total_updates == 20

    def test_critic_loss_trends_down(self):
        buffer = self.make_filled_buffer(60)
        env = env_factory(0)
        agent = DDPGAgent(
            env.state_dim, env.n_clients,
            DRLConfig(min_buffer=8, batch_size=32, value_lr=3e-3),
            np.random.default_rng(5),
        )
        losses = train_offline(agent, buffer, 150)
        assert np.mean(losses[-30:]) < np.mean(losses[:30])

    def test_empty_buffer_raises(self):
        env = env_factory(0)
        agent = DDPGAgent(env.state_dim, env.n_clients, CFG, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_offline(agent, ReplayBuffer(10), 5)

    def test_zero_updates_raises(self):
        buffer = self.make_filled_buffer(10)
        env = env_factory(0)
        agent = DDPGAgent(env.state_dim, env.n_clients, CFG, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_offline(agent, buffer, 0)


class TestTwoStageTrainer:
    def test_returns_trained_main_agent(self):
        trainer = TwoStageTrainer(env_factory, CFG, n_workers=2, seed=0)
        agent = trainer.train(rounds_per_worker=20, offline_updates=30)
        assert isinstance(agent, DDPGAgent)
        assert agent.total_updates == 30
        assert trainer.merged_buffer is not None
        assert len(trainer.merged_buffer) == 40
        assert len(trainer.worker_results) == 2

    def test_main_agent_buffer_seeded_from_merged(self):
        trainer = TwoStageTrainer(env_factory, CFG, n_workers=2, seed=0)
        agent = trainer.train(rounds_per_worker=10, offline_updates=5)
        assert len(agent.buffer) == 20

    def test_main_agent_beats_random_policy(self):
        """The offline-trained agent should outperform an untrained one."""
        trainer = TwoStageTrainer(
            env_factory, DRLConfig(min_buffer=16, batch_size=16, updates_per_round=4),
            n_workers=2, seed=0,
        )
        main = trainer.train(rounds_per_worker=120, offline_updates=300)
        fresh = DDPGAgent(9, 3, CFG, np.random.default_rng(42))

        def avg_reward(agent):
            env = env_factory(0)
            s = env.reset()
            total = 0.0
            for _ in range(30):
                a = agent.act(s, explore=False)
                s, r, _ = env.step(a)
                total += r
            return total / 30

        assert avg_reward(main) > avg_reward(fresh)
