"""Tests for the aggregation strategies and shared primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drl.agent import DDPGAgent, DRLConfig
from repro.fl.client import ClientUpdate
from repro.fl.strategies import FedAvg, FedDRL, FedProx, get_strategy
from repro.fl.strategies.base import build_state, combine_updates


def updates_fixture(k=4, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClientUpdate(
            client_id=i,
            weights=rng.normal(size=dim),
            loss_before=float(rng.uniform(0.5, 2.0)),
            loss_after=float(rng.uniform(0.1, 1.0)),
            n_samples=int(rng.integers(5, 50)),
        )
        for i in range(k)
    ]


class TestCombineUpdates:
    def test_convex_combination(self):
        ups = updates_fixture(2, dim=3)
        out = combine_updates(ups, np.array([0.25, 0.75]))
        np.testing.assert_allclose(out, 0.25 * ups[0].weights + 0.75 * ups[1].weights)

    def test_single_client_identity(self):
        ups = updates_fixture(1)
        np.testing.assert_allclose(combine_updates(ups, np.array([1.0])), ups[0].weights)

    def test_rejects_unnormalized(self):
        ups = updates_fixture(2)
        with pytest.raises(ValueError):
            combine_updates(ups, np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        ups = updates_fixture(2)
        with pytest.raises(ValueError):
            combine_updates(ups, np.array([-0.1, 1.1]))

    def test_rejects_wrong_length(self):
        ups = updates_fixture(3)
        with pytest.raises(ValueError):
            combine_updates(ups, np.array([0.5, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            combine_updates([], np.array([]))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_property_output_in_convex_hull(self, seed):
        ups = updates_fixture(3, dim=4, seed=seed)
        rng = np.random.default_rng(seed)
        alphas = rng.dirichlet(np.ones(3))
        out = combine_updates(ups, alphas)
        stacked = np.stack([u.weights for u in ups])
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)


class TestBuildState:
    def test_layout_is_lb_la_n(self):
        ups = updates_fixture(3)
        state = build_state(ups, normalize=False)
        assert state.shape == (9,)
        np.testing.assert_allclose(state[:3], [u.loss_before for u in ups])
        np.testing.assert_allclose(state[3:6], [u.loss_after for u in ups])
        np.testing.assert_allclose(state[6:], [u.n_samples for u in ups])

    def test_normalized_sample_fractions(self):
        ups = updates_fixture(4)
        state = build_state(ups, normalize=True)
        assert state[8:].sum() == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_state([])


class TestFedAvg:
    def test_alpha_proportional_to_samples(self):
        ups = updates_fixture(3)
        alphas = FedAvg().impact_factors(ups, 0)
        n = np.array([u.n_samples for u in ups], dtype=float)
        np.testing.assert_allclose(alphas, n / n.sum())

    def test_equal_samples_equal_weights(self):
        ups = updates_fixture(4)
        for u in ups:
            u.n_samples = 10
        np.testing.assert_allclose(FedAvg().impact_factors(ups, 0), 0.25)

    def test_no_client_kwargs(self):
        assert FedAvg().client_kwargs() == {}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FedAvg().impact_factors([], 0)


class TestFedProx:
    def test_same_aggregation_as_fedavg(self):
        ups = updates_fixture(3)
        np.testing.assert_allclose(
            FedProx().impact_factors(ups, 0), FedAvg().impact_factors(ups, 0)
        )

    def test_passes_mu_to_clients(self):
        assert FedProx(mu=0.05).client_kwargs() == {"prox_mu": 0.05}

    def test_default_mu_matches_paper(self):
        assert FedProx().mu == pytest.approx(0.01)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            FedProx(mu=-0.1)


class TestFedDRL:
    def test_alphas_on_simplex(self):
        strat = FedDRL(clients_per_round=4, seed=0)
        alphas = strat.impact_factors(updates_fixture(4), 0)
        assert alphas.shape == (4,)
        assert np.all(alphas > 0)
        assert alphas.sum() == pytest.approx(1.0)

    def test_wrong_k_raises(self):
        strat = FedDRL(clients_per_round=4, seed=0)
        with pytest.raises(ValueError):
            strat.impact_factors(updates_fixture(3), 0)

    def test_transition_stored_on_second_round(self):
        strat = FedDRL(clients_per_round=4, seed=0, online_training=False)
        strat.impact_factors(updates_fixture(4, seed=1), 0)
        assert len(strat.agent.buffer) == 0
        strat.impact_factors(updates_fixture(4, seed=2), 1)
        assert len(strat.agent.buffer) == 1
        assert len(strat.reward_history) == 1

    def test_reward_matches_eq7(self):
        strat = FedDRL(clients_per_round=4, seed=0, online_training=False)
        strat.impact_factors(updates_fixture(4, seed=1), 0)
        ups2 = updates_fixture(4, seed=2)
        strat.impact_factors(ups2, 1)
        lb = np.array([u.loss_before for u in ups2])
        expected = -(lb.mean() + (lb.max() - lb.min()))
        assert strat.reward_history[0] == pytest.approx(expected)

    def test_injected_agent_must_match_k(self):
        agent = DDPGAgent(3 * 3, 3, DRLConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            FedDRL(clients_per_round=4, agent=agent)

    def test_injected_pretrained_agent_is_used(self):
        agent = DDPGAgent(12, 4, DRLConfig(), np.random.default_rng(0))
        strat = FedDRL(clients_per_round=4, agent=agent, explore=False)
        assert strat.agent is agent

    def test_online_training_updates_agent(self):
        cfg = DRLConfig(min_buffer=2, batch_size=2, updates_per_round=1)
        strat = FedDRL(clients_per_round=4, drl_config=cfg, seed=0)
        for t in range(5):
            ups = updates_fixture(4, seed=t)
            strat.impact_factors(ups, t)
            strat.on_round_end(ups, t)  # the simulation's side-thread hook
        assert strat.agent.total_updates > 0

    def test_training_happens_in_side_thread_hook(self):
        """Agent training must NOT run inside impact_factors — the paper
        times pure policy inference there (Fig. 9)."""
        cfg = DRLConfig(min_buffer=2, batch_size=2, updates_per_round=1)
        strat = FedDRL(clients_per_round=4, drl_config=cfg, seed=0)
        for t in range(5):
            strat.impact_factors(updates_fixture(4, seed=t), t)
        assert strat.agent.total_updates == 0
        strat.on_round_end(updates_fixture(4, seed=9), 5)
        assert strat.agent.total_updates > 0


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_strategy("fedavg"), FedAvg)
        assert isinstance(get_strategy("FedProx"), FedProx)
        assert isinstance(get_strategy("feddrl", clients_per_round=4), FedDRL)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            get_strategy("fedsgd")
