"""Tests for policy/value networks, the constrained head, and soft updates."""

import numpy as np
import pytest

from repro.drl.networks import (
    GaussianPolicyHead,
    hard_copy,
    make_policy_network,
    make_value_network,
    soft_update,
)
from repro.nn.dtypes import default_dtype
from repro.nn.layers import BatchNorm1d, Dense
from repro.nn.model import Sequential
from repro.nn.optim import BLOCK
from tests.conftest import assert_grad_close, numerical_gradient


class TestGaussianPolicyHead:
    def test_output_ranges(self, rng):
        head = GaussianPolicyHead(4, beta=0.5)
        out = head.forward(rng.normal(scale=3, size=(10, 8)))
        mu, sigma = out[:, :4], out[:, 4:]
        assert np.all(np.abs(mu) <= 1.0)
        assert np.all(sigma >= 0)

    def test_constraint_holds_structurally(self, rng):
        """Eq. (6): sigma <= beta * |mu| for every representable output."""
        head = GaussianPolicyHead(6, beta=0.3)
        out = head.forward(rng.normal(scale=5, size=(50, 12)))
        mu, sigma = out[:, :6], out[:, 6:]
        assert np.all(sigma <= 0.3 * np.abs(mu) + 1e-12)

    def test_input_gradient_numeric(self, rng):
        head = GaussianPolicyHead(3, beta=0.5)
        x = rng.normal(size=(4, 6))
        x[np.abs(x) < 0.05] += 0.1  # stay away from the |mu| kink at 0

        def f():
            return float(np.sum(head.forward(x, training=True) ** 2))

        out = head.forward(x, training=True)
        gx = head.backward(2.0 * out)
        assert_grad_close(gx, numerical_gradient(f, x), tol=1e-3)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            GaussianPolicyHead(3).forward(rng.normal(size=(2, 5)))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            GaussianPolicyHead(0)
        with pytest.raises(ValueError):
            GaussianPolicyHead(3, beta=1.5)

    def test_backward_without_forward_raises(self):
        with pytest.raises(RuntimeError):
            GaussianPolicyHead(2).backward(np.zeros((1, 4)))


class TestNetworkFactories:
    def test_policy_output_shape(self, rng):
        net = make_policy_network(30, 10, rng)
        assert net.forward(rng.normal(size=(4, 30))).shape == (4, 20)

    def test_policy_layer_count_matches_paper(self, rng):
        """Table 1: pi-network has 3 FC layers of 256 units."""
        net = make_policy_network(30, 10, rng)
        dense = [l for l in net.layers if type(l).__name__ == "Dense"]
        assert len(dense) == 3
        assert dense[0].out_features == 256 and dense[1].out_features == 256

    def test_value_scalar_output(self, rng):
        net = make_value_network(30, 10, rng)
        out = net.forward(rng.normal(size=(4, 30 + 20)))
        assert out.shape == (4, 1)

    def test_invalid_state_dim(self, rng):
        with pytest.raises(ValueError):
            make_policy_network(0, 5, rng)
        with pytest.raises(ValueError):
            make_value_network(-1, 5, rng)

    def test_policy_outputs_satisfy_constraint(self, rng):
        net = make_policy_network(12, 4, rng, beta=0.5)
        out = net.forward(rng.normal(size=(20, 12)))
        mu, sigma = out[:, :4], out[:, 4:]
        assert np.all(sigma <= 0.5 * np.abs(mu) + 1e-12)


class TestSoftUpdate:
    def test_rho_one_is_copy(self, rng):
        a = make_value_network(6, 2, rng)
        b = make_value_network(6, 2, rng)
        soft_update(b, a, rho=1.0)
        np.testing.assert_array_equal(a.get_flat_weights(), b.get_flat_weights())

    def test_hard_copy(self, rng):
        a = make_policy_network(6, 2, rng)
        b = make_policy_network(6, 2, rng)
        hard_copy(b, a)
        np.testing.assert_array_equal(a.get_flat_weights(), b.get_flat_weights())

    def test_blend_formula(self, rng):
        a = make_value_network(6, 2, rng)
        b = make_value_network(6, 2, rng)
        wa, wb = a.get_flat_weights(), b.get_flat_weights()
        soft_update(b, a, rho=0.02)
        np.testing.assert_allclose(b.get_flat_weights(), 0.98 * wb + 0.02 * wa)

    def test_repeated_updates_converge_to_main(self, rng):
        a = make_value_network(6, 2, rng)
        b = make_value_network(6, 2, rng)
        for _ in range(600):
            soft_update(b, a, rho=0.02)
        np.testing.assert_allclose(b.get_flat_weights(), a.get_flat_weights(), atol=1e-4)

    def test_in_place(self, rng):
        a = make_value_network(6, 2, rng)
        b = make_value_network(6, 2, rng)
        arrays_before = [id(arr) for arr in b._all_arrays(True)]
        soft_update(b, a, rho=0.5)
        assert [id(arr) for arr in b._all_arrays(True)] == arrays_before

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("rho", [0.02, 1.0])
    def test_blocked_lerp_equals_the_whole_arena_lerp(self, rng, dtype, rho):
        with default_dtype(dtype):
            a = make_value_network(30, 10, rng)
            b = make_value_network(30, 10, rng)
        n = a.flat_state().size
        assert n > 4 * BLOCK and n % BLOCK != 0  # whole blocks and a tail
        expected = b.get_flat_weights()
        expected *= 1.0 - rho
        expected += rho * a.flat_state()
        main = a.get_flat_weights()
        soft_update(b, a, rho=rho)
        assert b.flat_state().dtype == np.dtype(dtype)
        assert np.array_equal(b.flat_state(), expected)
        assert np.array_equal(a.flat_state(), main)

    def test_structure_mismatch_raises(self, rng):
        a = make_value_network(6, 2, rng)
        with pytest.raises(ValueError, match="structure"):
            soft_update(make_value_network(7, 2, rng), a, rho=0.5)
        with pytest.raises(ValueError, match="structure"):
            hard_copy(make_policy_network(6, 2, rng), a)
        # Same arena size (8), different split into parameters and buffers.
        dense, norm = Sequential([Dense(3, 2, rng)]), Sequential([BatchNorm1d(2)])
        assert dense.flat_state().size == norm.flat_state().size
        with pytest.raises(ValueError, match="structure"):
            soft_update(norm, dense, rho=0.5)

    def test_invalid_rho(self, rng):
        a = make_value_network(6, 2, rng)
        b = make_value_network(6, 2, rng)
        with pytest.raises(ValueError):
            soft_update(b, a, rho=0.0)
        with pytest.raises(ValueError):
            soft_update(b, a, rho=1.5)
