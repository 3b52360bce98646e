"""Tests for losses and optimisers."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import MSELoss, SoftmaxCrossEntropy, evaluate_loss
from repro.nn.metrics import top1_accuracy
from repro.nn.model import Sequential
from repro.nn.models import mlp, simple_cnn
from repro.nn.optim import SGD, Adam, ProximalSGD
from tests.conftest import assert_grad_close, numerical_gradient


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 10))
        y = np.arange(4)
        assert loss.forward(logits, y) == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        assert loss.forward(logits, np.array([1, 2])) == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, size=5)

        def f():
            return loss.forward(logits, y)

        f()
        analytic = loss.backward()
        numeric = numerical_gradient(f, logits)
        assert_grad_close(analytic, numeric)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(6, 5))
        loss.forward(logits, rng.integers(0, 5, size=6))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_shape_validation(self, rng):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(rng.normal(size=(5,)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            loss.forward(rng.normal(size=(5, 3)), np.zeros(4, dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()


class TestMSE:
    def test_value(self):
        loss = MSELoss()
        assert loss.forward(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)

    def test_gradient_matches_numeric(self, rng):
        loss = MSELoss()
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))

        def f():
            return loss.forward(pred, target)

        f()
        assert_grad_close(loss.backward(), numerical_gradient(f, pred))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MSELoss().forward(np.zeros(3), np.zeros(4))


class TestEvaluateLoss:
    def test_batched_equals_full(self, rng):
        model = Sequential([Dense(4, 3, rng)])
        x = rng.normal(size=(37, 4))
        y = rng.integers(0, 3, size=37)
        full = SoftmaxCrossEntropy().forward(model.forward(x), y)
        batched = evaluate_loss(model, SoftmaxCrossEntropy(), x, y, batch_size=8)
        assert batched == pytest.approx(full, rel=1e-10)

    def test_empty_dataset_raises(self, rng):
        model = Sequential([Dense(4, 3, rng)])
        with pytest.raises(ValueError):
            evaluate_loss(model, SoftmaxCrossEntropy(), np.empty((0, 4)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("factory", [
        lambda rng: mlp(64, 5, rng, hidden=(16,)),
        lambda rng: simple_cnn(1, 8, 5, rng, channels=(2, 3), dense=8),
    ], ids=["mlp", "simple_cnn"])
    def test_with_accuracy_is_one_pass_with_both_results(self, factory, rng, monkeypatch):
        model = factory(rng)
        loss = SoftmaxCrossEntropy()
        n, batch_size = 37, 8  # not a multiple: the last batch is short
        x = rng.normal(size=(n, 1, 8, 8))
        y = rng.integers(0, 5, size=n)
        expected = (
            evaluate_loss(model, loss, x, y, batch_size=batch_size),
            top1_accuracy(model, x, y, batch_size=batch_size),
        )
        calls = []
        forward = model.forward
        monkeypatch.setattr(
            model, "forward", lambda *a, **kw: calls.append(1) or forward(*a, **kw)
        )
        assert evaluate_loss(
            model, loss, x, y, batch_size=batch_size, with_accuracy=True
        ) == expected
        assert len(calls) == -(-n // batch_size)


def quadratic_problem(rng):
    """A tiny realisable regression: targets generated by a linear map, so
    the optimal loss is exactly zero and convergence is unambiguous."""
    model = Sequential([Dense(3, 2, rng)])
    x = rng.normal(size=(16, 3))
    w_true = rng.normal(size=(3, 2))
    t = x @ w_true + rng.normal(size=2)
    loss = MSELoss()

    def step_loss():
        model.zero_grad()
        pred = model.forward(x, training=True)
        value = loss.forward(pred, t)
        model.backward(loss.backward())
        return value

    return model, step_loss


class TestSGD:
    def test_decreases_convex_loss(self, rng):
        model, step_loss = quadratic_problem(rng)
        opt = SGD(model.parameters(), lr=0.05)
        first = step_loss()
        for _ in range(100):
            step_loss()
            opt.step()
        assert step_loss() < first * 0.2

    def test_momentum_accelerates(self, rng):
        losses = {}
        for momentum in (0.0, 0.9):
            r = np.random.default_rng(7)
            model, step_loss = quadratic_problem(r)
            opt = SGD(model.parameters(), lr=0.01, momentum=momentum)
            for _ in range(50):
                step_loss()
                opt.step()
            losses[momentum] = step_loss()
        assert losses[0.9] < losses[0.0]

    def test_weight_decay_shrinks_weights(self, rng):
        model = Sequential([Dense(3, 3, rng)])
        opt = SGD(model.parameters(), lr=0.1, weight_decay=0.5)
        w0 = np.abs(model.param_arrays()[0]).sum()
        for _ in range(20):
            model.zero_grad()  # zero gradients: only decay acts
            opt.step()
        assert np.abs(model.param_arrays()[0]).sum() < w0 * 0.5

    def test_invalid_params(self, rng):
        model = Sequential([Dense(2, 2, rng)])
        with pytest.raises(ValueError):
            SGD(model.parameters(), lr=-0.1)
        with pytest.raises(ValueError):
            SGD(model.parameters(), lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestProximalSGD:
    def test_requires_anchor(self, rng):
        model = Sequential([Dense(2, 2, rng)])
        opt = ProximalSGD(model.parameters(), lr=0.1, mu=0.1)
        with pytest.raises(RuntimeError):
            opt.step()

    def test_pulls_toward_anchor(self, rng):
        model = Sequential([Dense(2, 2, rng)])
        opt = ProximalSGD(model.parameters(), lr=0.1, mu=1.0)
        anchor = [np.zeros_like(p) for p in model.param_arrays()]
        opt.set_anchor(anchor)
        w0 = np.abs(model.param_arrays()[0]).sum()
        for _ in range(50):
            model.zero_grad()
            opt.step()
        # With zero task gradient the proximal term decays weights to anchor.
        assert np.abs(model.param_arrays()[0]).sum() < w0 * 0.1

    def test_mu_zero_matches_sgd(self, rng):
        x = rng.normal(size=(8, 2))
        t = rng.normal(size=(8, 2))
        results = []
        for mode in ("sgd", "prox0"):
            r = np.random.default_rng(3)
            model = Sequential([Dense(2, 2, r)])
            loss = MSELoss()
            if mode == "sgd":
                opt = SGD(model.parameters(), lr=0.05)
            else:
                opt = ProximalSGD(model.parameters(), lr=0.05, mu=0.0)
            for _ in range(10):
                model.zero_grad()
                loss.forward(model.forward(x, training=True), t)
                model.backward(loss.backward())
                opt.step()
            results.append(model.get_flat_weights())
        np.testing.assert_allclose(results[0], results[1])

    def test_limits_drift_from_anchor(self, rng):
        """Larger mu keeps trained weights closer to the starting point —
        the FedProx mechanism."""
        x = rng.normal(size=(16, 3))
        t = rng.normal(size=(16, 2)) * 5
        drifts = {}
        for mu in (0.0, 10.0):
            r = np.random.default_rng(11)
            model = Sequential([Dense(3, 2, r)])
            start = model.get_flat_weights()
            loss = MSELoss()
            opt = ProximalSGD(model.parameters(), lr=0.05, mu=mu)
            opt.set_anchor(model.param_arrays())
            for _ in range(60):
                model.zero_grad()
                loss.forward(model.forward(x, training=True), t)
                model.backward(loss.backward())
                opt.step()
            drifts[mu] = float(np.linalg.norm(model.get_flat_weights() - start))
        assert drifts[10.0] < drifts[0.0]

    def test_anchor_shape_validation(self, rng):
        model = Sequential([Dense(2, 2, rng)])
        opt = ProximalSGD(model.parameters(), lr=0.1, mu=0.1)
        with pytest.raises(ValueError):
            opt.set_anchor([np.zeros((3, 3))])


class TestAdam:
    def test_decreases_convex_loss(self, rng):
        model, step_loss = quadratic_problem(rng)
        opt = Adam(model.parameters(), lr=0.05)
        first = step_loss()
        for _ in range(100):
            step_loss()
            opt.step()
        assert step_loss() < first * 0.2

    def test_step_size_bounded_by_lr(self, rng):
        """Adam's per-coordinate step is ~lr regardless of gradient scale."""
        model = Sequential([Dense(2, 2, rng)])
        opt = Adam(model.parameters(), lr=0.01)
        p, g = model.parameters()[0]
        before = p.copy()
        g[...] = 1e6  # huge gradient
        opt.step()
        assert np.max(np.abs(p - before)) < 0.011
