"""Tests for the action -> impact-factor mapping and the reward function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.drl.action import (
    add_exploration_noise,
    apply_sigma_constraint,
    impact_factors_from_action,
    split_action,
)
from repro.drl.reward import feddrl_reward, reward_components
from repro.nn.functional import softmax


class TestSplitAction:
    def test_splits_halves(self):
        mu, sigma = split_action(np.array([1.0, 2.0, 0.1, 0.2]), 2)
        np.testing.assert_array_equal(mu, [1.0, 2.0])
        np.testing.assert_array_equal(sigma, [0.1, 0.2])

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            split_action(np.zeros(5), 2)

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            split_action(np.array([0.0, 0.0, -0.1, 0.1]), 2)


class TestSigmaConstraint:
    def test_clamps_to_beta_mu(self):
        sigma = apply_sigma_constraint(np.array([0.5, -0.5]), np.array([1.0, 1.0]), beta=0.4)
        np.testing.assert_allclose(sigma, [0.2, 0.2])

    def test_no_change_when_satisfied(self):
        sigma = apply_sigma_constraint(np.array([1.0]), np.array([0.1]), beta=0.5)
        assert sigma[0] == 0.1

    def test_negative_beta_raises(self):
        with pytest.raises(ValueError):
            apply_sigma_constraint(np.array([1.0]), np.array([0.1]), beta=-1)


class TestImpactFactors:
    def test_simplex(self, rng):
        action = np.concatenate([rng.normal(size=5), np.abs(rng.normal(size=5)) * 0.1])
        alpha = impact_factors_from_action(action, 5, rng)
        assert np.all(alpha > 0)
        assert alpha.sum() == pytest.approx(1.0)

    def test_zero_sigma_is_deterministic(self, rng):
        action = np.array([2.0, -1.0, 0.5, 0.0, 0.0, 0.0])
        a1 = impact_factors_from_action(action, 3, np.random.default_rng(1))
        a2 = impact_factors_from_action(action, 3, np.random.default_rng(2))
        np.testing.assert_allclose(a1, a2)
        np.testing.assert_allclose(a1, softmax(action[:3]))

    def test_larger_mu_larger_share(self, rng):
        action = np.array([3.0, 0.0, -3.0, 0.0, 0.0, 0.0])
        alpha = impact_factors_from_action(action, 3, rng)
        assert alpha[0] > alpha[1] > alpha[2]

    def test_beta_constraint_applied(self):
        # sigma far above beta*|mu| must be clamped before sampling.
        action = np.array([0.1, 0.1, 50.0, 50.0])
        rng = np.random.default_rng(0)
        alphas = [impact_factors_from_action(action, 2, rng, beta=0.5) for _ in range(100)]
        spread = np.std([a[0] for a in alphas])
        assert spread < 0.05  # effective sigma is only 0.05

    @given(arrays(float, 8, elements=st.floats(-3, 3)))
    @settings(max_examples=30, deadline=None)
    def test_property_always_simplex(self, raw):
        action = np.concatenate([raw[:4], np.abs(raw[4:])])
        alpha = impact_factors_from_action(action, 4, np.random.default_rng(0))
        assert np.all(alpha >= 0)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)


class TestExplorationNoise:
    def test_preserves_validity(self, rng):
        action = np.array([0.5, -0.5, 0.1, 0.1])
        for _ in range(50):
            noisy = add_exploration_noise(action, rng, scale=0.5, beta=0.5, n_clients=2)
            mu, sigma = noisy[:2], noisy[2:]
            assert np.all(np.abs(mu) <= 1.0)
            assert np.all(sigma >= 0)
            assert np.all(sigma <= 0.5 * np.abs(mu) + 1e-12)

    def test_zero_scale_identity_after_projection(self):
        action = np.array([0.5, -0.5, 0.1, 0.1])
        noisy = add_exploration_noise(action, np.random.default_rng(0), 0.0, 0.5, 2)
        np.testing.assert_allclose(noisy, action)

    def test_negative_scale_raises(self, rng):
        with pytest.raises(ValueError):
            add_exploration_noise(np.zeros(4), rng, -0.1, 0.5, 2)


class TestReward:
    def test_components(self):
        mean, gap = reward_components(np.array([1.0, 2.0, 3.0]))
        assert mean == pytest.approx(2.0)
        assert gap == pytest.approx(2.0)

    def test_reward_is_negated_cost(self):
        losses = np.array([1.0, 2.0, 3.0])
        assert feddrl_reward(losses) == pytest.approx(-(2.0 + 2.0))

    def test_lower_losses_higher_reward(self):
        good = feddrl_reward(np.array([0.5, 0.6]))
        bad = feddrl_reward(np.array([2.0, 2.5]))
        assert good > bad

    def test_fairer_is_better_at_equal_mean(self):
        balanced = feddrl_reward(np.array([1.0, 1.0, 1.0]))
        skewed = feddrl_reward(np.array([0.0, 1.0, 2.0]))
        assert balanced > skewed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reward_components(np.array([]))
        with pytest.raises(ValueError):
            reward_components(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            feddrl_reward(np.array([1.0, np.nan]))

    @given(arrays(float, 5, elements=st.floats(0.01, 10)))
    @settings(max_examples=40, deadline=None)
    def test_property_reward_bounded_by_parts(self, losses):
        r = feddrl_reward(losses)
        mean, gap = reward_components(losses)
        assert r == pytest.approx(-(mean + gap))
        assert r <= 0
