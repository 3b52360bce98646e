"""Tests for the DDPG agent: shapes, update mechanics, and learning."""

import numpy as np
import pytest

from repro.drl.agent import DDPGAgent, DRLConfig
from repro.nn.dtypes import default_dtype
from repro.nn.layers import Dense
from tests.drl.bandit import QuadraticBanditEnv


def make_agent(k=3, **cfg_kwargs):
    cfg = DRLConfig(min_buffer=8, batch_size=8, updates_per_round=2, **cfg_kwargs)
    return DDPGAgent(3 * k, k, cfg, rng=np.random.default_rng(0))


class TestConfigValidation:
    def test_defaults_match_table1(self):
        cfg = DRLConfig()
        assert cfg.hidden == 256
        assert cfg.policy_lr == pytest.approx(1e-4)
        assert cfg.value_lr == pytest.approx(1e-3)
        assert cfg.buffer_capacity == 100_000
        assert cfg.gamma == pytest.approx(0.99)
        assert cfg.rho == pytest.approx(0.02)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            DRLConfig(gamma=1.0)
        with pytest.raises(ValueError):
            DRLConfig(rho=0.0)
        with pytest.raises(ValueError):
            DRLConfig(batch_size=0)
        with pytest.raises(ValueError):
            DRLConfig(min_buffer=0)


class TestActing:
    def test_action_shape_and_validity(self):
        agent = make_agent(k=4)
        action = agent.act(np.zeros(12), explore=False)
        assert action.shape == (8,)
        mu, sigma = action[:4], action[4:]
        assert np.all(np.abs(mu) <= 1.0)
        assert np.all(sigma >= 0)
        assert np.all(sigma <= agent.config.beta * np.abs(mu) + 1e-12)

    def test_wrong_state_dim_raises(self):
        agent = make_agent(k=3)
        with pytest.raises(ValueError):
            agent.act(np.zeros(5))

    def test_exploration_noise_decays(self):
        agent = make_agent()
        start = agent.noise_scale
        for _ in range(50):
            agent.act(np.zeros(9), explore=True)
        assert agent.noise_scale < start
        assert agent.noise_scale >= agent.config.noise_floor

    def test_no_explore_is_deterministic(self):
        agent = make_agent()
        a1 = agent.act(np.ones(9), explore=False)
        a2 = agent.act(np.ones(9), explore=False)
        np.testing.assert_array_equal(a1, a2)

    def test_explore_perturbs(self):
        agent = make_agent()
        a1 = agent.act(np.ones(9), explore=True)
        a2 = agent.act(np.ones(9), explore=True)
        assert not np.array_equal(a1, a2)


class TestTraining:
    def fill_buffer(self, agent, n=20, k=3):
        rng = np.random.default_rng(5)
        for _ in range(n):
            s = rng.normal(size=3 * k)
            a = agent.act(s)
            agent.observe(s, a, float(rng.normal()), rng.normal(size=3 * k))

    def test_train_noop_below_min_buffer(self):
        agent = make_agent()
        self.fill_buffer(agent, n=4)
        assert agent.train() is None
        assert agent.total_updates == 0

    def test_train_returns_stats(self):
        agent = make_agent()
        self.fill_buffer(agent)
        stats = agent.train()
        assert stats is not None
        assert stats.updates == 2
        assert stats.buffer_size == 20
        assert np.isfinite(stats.critic_loss)

    def test_train_changes_all_four_networks(self):
        agent = make_agent()
        self.fill_buffer(agent)
        before = {k: v.copy() for k, v in agent.network_weights().items()}
        agent.train()
        after = agent.network_weights()
        for name in before:
            assert not np.array_equal(before[name], after[name]), name

    def test_actor_update_reads_dq_da_without_touching_the_critic_grads(self):
        """The old actor step ran the critic's full backward and zeroed its
        grads afterwards; ``param_grads=False`` must give the same policy
        step and leave the critic's gradient arena alone."""
        agents = [make_agent(), make_agent()]
        for agent in agents:
            self.fill_buffer(agent)
        s = agents[0].buffer.snapshot()[0][:8]

        old = agents[0]
        old.policy_main.zero_grad()
        actions = old.policy_main.forward(s, training=True)
        old.value_main.zero_grad()
        q = old.value_main.forward(np.concatenate([s, actions], axis=1), training=True)
        grad_in = old.value_main.backward(np.full_like(q, -1.0 / q.shape[0]))
        old.value_main.zero_grad()
        old.policy_main.backward(grad_in[:, old.state_dim :])
        old.policy_opt.step()

        new = agents[1]
        new.value_main.flat_grads().fill(7.0)
        assert new._actor_update(s) == float(q.mean())
        assert np.all(new.value_main.flat_grads() == 7.0)
        assert np.array_equal(
            new.policy_main.flat_parameters(), old.policy_main.flat_parameters()
        )

    def test_target_moves_less_than_main(self):
        agent = make_agent()
        self.fill_buffer(agent)
        before = {k: v.copy() for k, v in agent.network_weights().items()}
        agent.train()
        after = agent.network_weights()
        main_delta = np.linalg.norm(after["value_main"] - before["value_main"])
        target_delta = np.linalg.norm(after["value_target"] - before["value_target"])
        assert target_delta < main_delta

    def test_td_priorities_shape_and_sign(self):
        agent = make_agent()
        self.fill_buffer(agent, n=12)
        pr = agent.td_priorities()
        assert pr.shape == (12,)
        assert np.all(pr >= 0)

    def test_uniform_mode_trains_too(self):
        agent = make_agent(prioritized=False)
        self.fill_buffer(agent)
        assert agent.train() is not None

    def test_critic_regresses_constant_reward(self):
        """With constant reward and gamma=0 the critic must learn r."""
        cfg = DRLConfig(
            min_buffer=4, batch_size=16, updates_per_round=1, gamma=0.0,
            value_lr=1e-2, prioritized=False,
        )
        agent = DDPGAgent(6, 2, cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(32):
            s = rng.normal(size=6)
            agent.observe(s, agent.act(s), 5.0, rng.normal(size=6))
        for _ in range(300):
            agent.train()
        s, a, _, _ = agent.buffer.snapshot()
        q = agent._q(agent.value_main, s, a)
        assert np.abs(q - 5.0).mean() < 0.5

    def test_weight_roundtrip(self):
        agent = make_agent()
        weights = agent.network_weights()
        clone = make_agent()
        clone.load_network_weights(weights)
        np.testing.assert_array_equal(
            clone.policy_main.get_flat_weights(), agent.policy_main.get_flat_weights()
        )


class TestLearning:
    def test_agent_improves_on_quadratic_bandit(self):
        """End-to-end: the agent must steer its means to the env target."""
        env = QuadraticBanditEnv(3, seed=2)
        agent = DDPGAgent(
            env.state_dim, env.n_clients,
            DRLConfig(min_buffer=16, batch_size=16, updates_per_round=4),
            rng=np.random.default_rng(0),
        )
        state = env.reset()
        rewards = []
        for _ in range(250):
            action = agent.act(state)
            next_state, reward, _ = env.step(action)
            agent.observe(state, action, reward, next_state)
            agent.train()
            rewards.append(reward)
            state = next_state
        early = float(np.mean(rewards[:25]))
        late = float(np.mean(rewards[-25:]))
        assert late > early  # reward increased
        final = agent.act(state, explore=False)
        assert np.linalg.norm(final[:3] - env.target) < 0.5


class TestFloat32Agent:
    """The agent computes in float32 whatever the substrate's dtype."""

    @staticmethod
    def trained_agent(substrate: str, monkeypatch=None, seen=None):
        with default_dtype(substrate):
            agent = make_agent()
            rng = np.random.default_rng(5)
            for _ in range(20):
                s = rng.normal(size=9)
                agent.observe(s, agent.act(s), float(rng.normal()), rng.normal(size=9))
            if monkeypatch is not None:
                forward, backward = Dense.forward, Dense.backward

                def spy_forward(self, x, training=False):
                    seen.add(("forward", x.dtype.name))
                    return forward(self, x, training)

                def spy_backward(self, grad, *args, **kwargs):
                    seen.add(("backward", grad.dtype.name))
                    return backward(self, grad, *args, **kwargs)

                monkeypatch.setattr(Dense, "forward", spy_forward)
                monkeypatch.setattr(Dense, "backward", spy_backward)
            agent.train()
        return agent

    @pytest.mark.parametrize("substrate", ["float64", "float32"])
    def test_networks_replay_and_every_dense_are_float32(self, substrate, monkeypatch):
        seen: set = set()
        agent = self.trained_agent(substrate, monkeypatch, seen)
        f32 = np.dtype(np.float32)
        nets = (agent.policy_main, agent.policy_target, agent.value_main, agent.value_target)
        assert all(net.dtype == f32 for net in nets)
        assert all(opt._m.dtype == opt._v.dtype == f32
                   for opt in (agent.policy_opt, agent.value_opt))
        assert all(column.dtype == f32 for column in agent.buffer._columns)
        rng = np.random.default_rng(0)
        for batch in (agent.buffer.sample_uniform(4, rng),
                      agent.buffer.sample_prioritized(4, agent.td_priorities(), rng)):
            assert all(part.dtype == f32 for part in batch)
        # Every Dense input and output gradient in _critic_update and
        # _actor_update (and the TD-priority pass) is float32.
        assert seen == {("forward", "float32"), ("backward", "float32")}

    def test_substrate_dtype_does_not_change_the_agent(self):
        agents = [self.trained_agent(d) for d in ("float64", "float32")]
        for name, weights in agents[0].network_weights().items():
            np.testing.assert_array_equal(weights, agents[1].network_weights()[name])
