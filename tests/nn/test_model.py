"""Tests for the Sequential container and flat-weight (de)serialisation."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.models import mlp, simple_cnn, vgg11, vgg_mini
from repro.nn.optim import SGD
from tests.conftest import assert_grad_close, numerical_gradient


def small_net(rng):
    return Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 3, rng)])


class TestSequential:
    def test_forward_shape(self, rng):
        assert small_net(rng).forward(rng.normal(size=(5, 4))).shape == (5, 3)

    def test_end_to_end_gradient(self, rng):
        model = small_net(rng)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        loss = SoftmaxCrossEntropy()

        def f():
            return loss.forward(model.forward(x, training=True), y)

        model.zero_grad()
        f()
        model.backward(loss.backward())
        for p, g in model.parameters():
            numeric = numerical_gradient(f, p)
            assert_grad_close(g, numeric)

    def test_empty_layer_list_raises(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_predict_matches_argmax(self, rng):
        model = small_net(rng)
        x = rng.normal(size=(23, 4))
        np.testing.assert_array_equal(
            model.predict(x, batch_size=7), model.forward(x).argmax(axis=1)
        )

    def test_train_batch_returns_loss_and_fills_grads(self, rng):
        model = small_net(rng)
        model.zero_grad()
        value = model.train_batch(
            SoftmaxCrossEntropy(), rng.normal(size=(4, 4)), rng.integers(0, 3, size=4)
        )
        assert value > 0
        assert any(np.abs(g).sum() > 0 for _, g in model.parameters())


def _full_backward_grads(model, loss, x, y):
    """The grad arena after ``forward -> loss -> backward(grad)``, and the
    input gradient that full backward returns."""
    model.zero_grad()
    loss.forward(model.forward(x, training=True), y)
    gx = model.backward(loss.backward())
    return model.flat_grads().copy(), gx


class TestTrainBatchSkipsInputGradient:
    """``train_batch`` drops the first layer's input-gradient product; the
    parameter gradients it leaves must be the full backward's, bit for bit."""

    @pytest.mark.parametrize("factory,x_shape", [
        (lambda rng: mlp(48, 5, rng, hidden=(16, 8)), (6, 3, 4, 4)),
        (lambda rng: simple_cnn(1, 8, 5, rng, channels=(2, 3), dense=8), (6, 1, 8, 8)),
        (lambda rng: vgg_mini(3, 8, 5, rng, width=2), (6, 3, 8, 8)),
    ], ids=["mlp", "simple_cnn", "vgg_mini"])
    def test_grad_arena_equals_full_backward(self, factory, x_shape, rng):
        model = factory(rng)
        assert model._head is not None
        loss = SoftmaxCrossEntropy()
        x = rng.normal(size=x_shape)
        y = rng.integers(0, 5, size=x_shape[0])
        full, gx = _full_backward_grads(model, loss, x, y)
        assert gx.shape == x.shape
        model.zero_grad()
        model.train_batch(loss, x, y)
        assert np.array_equal(model.flat_grads(), full)

    @pytest.mark.parametrize("factory,x_shape", [
        (lambda rng: mlp(12, 3, rng, hidden=(5,)), (2, 3, 2, 2)),
        (lambda rng: Sequential(
            [Conv2D(1, 2, 3, rng, padding=1), ReLU(), Flatten(), Dense(32, 3, rng)]
        ), (2, 1, 4, 4)),
    ], ids=["flatten-dense", "conv"])
    def test_backward_still_returns_the_input_gradient(self, factory, x_shape, rng):
        model = factory(rng)
        loss = SoftmaxCrossEntropy()
        x = rng.normal(size=x_shape)
        y = rng.integers(0, 3, size=x_shape[0])

        def f():
            return loss.forward(model.forward(x, training=True), y)

        f()
        gx = model.backward(loss.backward())
        assert_grad_close(gx, numerical_gradient(f, x))

    def test_other_first_layers_fall_back_to_the_full_backward(self, rng):
        # ReLU first: Dense is not the head, so nothing may be skipped.
        model = Sequential([ReLU(), Dense(4, 3, rng)])
        assert model._head is None
        loss = SoftmaxCrossEntropy()
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        full, _ = _full_backward_grads(model, loss, x, y)
        model.zero_grad()
        model.train_batch(loss, x, y)
        assert np.array_equal(model.flat_grads(), full)
        loss.forward(model.forward(x, training=True), y)
        assert model.backward(loss.backward(), input_grad=False).shape == x.shape


_MODEL_CASES = {
    "mlp": (lambda rng: mlp(48, 5, rng, hidden=(16, 8)), (6, 3, 4, 4)),
    "critic": (
        lambda rng: mlp(12, 1, rng, hidden=(8, 8), activation="leaky_relu"), (6, 12)
    ),
    "simple_cnn": (
        lambda rng: simple_cnn(1, 8, 5, rng, channels=(2, 3), dense=8), (6, 1, 8, 8)
    ),
    "vgg_mini": (lambda rng: vgg_mini(3, 8, 5, rng, width=2), (6, 3, 8, 8)),
    "batchnorm1d": (
        lambda rng: Sequential([Dense(4, 6, rng), BatchNorm1d(6), ReLU(), Dense(6, 5, rng)]),
        (6, 4),
    ),
}


class TestBackwardWritesTheGradArena:
    """No step zeroes the arena any more: ``backward`` must leave exactly
    what ``zero_grad(); backward`` left when layers accumulated."""

    @pytest.mark.parametrize("name", _MODEL_CASES)
    def test_stale_arena_does_not_leak_into_the_next_step(self, name, rng):
        factory, x_shape = _MODEL_CASES[name]
        model = factory(rng)
        out = model.forward(rng.normal(size=x_shape), training=True)
        grad = rng.normal(size=out.shape)
        model.zero_grad()
        model.backward(grad)
        clean = model.flat_grads().copy()
        model.flat_grads().fill(7.0)
        model.backward(grad)
        assert np.array_equal(model.flat_grads(), clean)

    @pytest.mark.parametrize("name", _MODEL_CASES)
    def test_training_without_zero_grad_matches_training_with_it(self, name):
        factory, x_shape = _MODEL_CASES[name]
        data = np.random.default_rng(3)
        x = data.normal(size=(4, *x_shape))
        weights = []
        for zero in (True, False):
            model = factory(np.random.default_rng(7))
            n_out = model.forward(x[0]).shape[1]
            y = np.random.default_rng(4).integers(0, n_out, size=(4, x_shape[0]))
            opt = SGD(model, lr=0.05)
            loss = SoftmaxCrossEntropy()
            for xb, yb in zip(x, y):
                if zero:
                    model.zero_grad()
                model.train_batch(loss, xb, yb)
                opt.step()
            weights.append(model.get_flat_weights())
        assert np.array_equal(*weights)

    @pytest.mark.parametrize("name", _MODEL_CASES)
    def test_param_grads_false_returns_the_input_gradient_only(self, name, rng):
        factory, x_shape = _MODEL_CASES[name]
        model = factory(rng)
        out = model.forward(rng.normal(size=x_shape), training=True)
        grad = rng.normal(size=out.shape)
        expected = model.backward(grad)
        model.flat_grads().fill(7.0)
        gx = model.backward(grad, param_grads=False)
        assert gx.shape == x_shape and np.array_equal(gx, expected)
        assert np.all(model.flat_grads() == 7.0)


class TestFlatWeights:
    def test_roundtrip(self, rng):
        model = small_net(rng)
        flat = model.get_flat_weights()
        model2 = small_net(np.random.default_rng(999))
        model2.set_flat_weights(flat)
        np.testing.assert_array_equal(model2.get_flat_weights(), flat)

    def test_roundtrip_preserves_predictions(self, rng):
        model = small_net(rng)
        x = rng.normal(size=(10, 4))
        expected = model.forward(x)
        clone = small_net(np.random.default_rng(1))
        clone.set_flat_weights(model.get_flat_weights())
        np.testing.assert_allclose(clone.forward(x), expected)

    def test_size_matches_num_parameters(self, rng):
        model = small_net(rng)
        assert model.get_flat_weights(include_buffers=False).size == model.num_parameters()

    def test_includes_batchnorm_buffers(self, rng):
        model = Sequential([Dense(4, 4, rng), BatchNorm1d(4), Dense(4, 2, rng)])
        with_buf = model.get_flat_weights(include_buffers=True)
        without = model.get_flat_weights(include_buffers=False)
        assert with_buf.size == without.size + 8  # running mean + var

    def test_buffer_state_transfers(self, rng):
        model = Sequential([BatchNorm1d(3)])
        x = rng.normal(loc=4.0, size=(64, 3))
        for _ in range(10):
            model.forward(x, training=True)
        clone = Sequential([BatchNorm1d(3)])
        clone.set_flat_weights(model.get_flat_weights())
        np.testing.assert_allclose(
            clone.layers[0].buffers["running_mean"],
            model.layers[0].buffers["running_mean"],
        )

    def test_wrong_size_raises(self, rng):
        model = small_net(rng)
        with pytest.raises(ValueError):
            model.set_flat_weights(np.zeros(3))

    def test_set_is_in_place(self, rng):
        """Optimisers hold references to the parameter arena;
        set_flat_weights must write through those same arrays."""
        model = small_net(rng)
        opt = SGD(model, lr=0.1)
        before_ids = [id(p) for p, _ in model.parameters()]
        model.set_flat_weights(np.zeros(model.get_flat_weights().size))
        after_ids = [id(p) for p, _ in model.parameters()]
        assert before_ids == after_ids
        model.flat_grads().fill(1.0)
        opt.step()  # steps from the zeros just loaded
        assert all(np.all(p == -0.1) for p, _ in model.parameters())

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip_any_seed(self, seed):
        r = np.random.default_rng(seed)
        model = small_net(r)
        flat = r.normal(size=model.get_flat_weights().size)
        model.set_flat_weights(flat)
        np.testing.assert_allclose(model.get_flat_weights(), flat)


class TestModelZoo:
    def test_mlp_shapes(self, rng):
        model = mlp(64, 10, rng, hidden=(32,))
        assert model.forward(rng.normal(size=(3, 1, 8, 8))).shape == (3, 10)

    def test_simple_cnn_shapes(self, rng):
        model = simple_cnn(1, 8, 10, rng)
        assert model.forward(rng.normal(size=(2, 1, 8, 8))).shape == (2, 10)

    def test_vgg_mini_shapes(self, rng):
        model = vgg_mini(3, 8, 20, rng)
        assert model.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 20)

    def test_vgg11_shapes(self, rng):
        model = vgg11(3, 32, 100, rng)
        assert model.forward(rng.normal(size=(1, 3, 32, 32))).shape == (1, 100)

    def test_vgg11_rejects_bad_size(self, rng):
        with pytest.raises(ValueError):
            vgg11(3, 30, 100, rng)

    def test_same_seed_same_init(self):
        a = simple_cnn(1, 8, 10, np.random.default_rng(5))
        b = simple_cnn(1, 8, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(a.get_flat_weights(), b.get_flat_weights())

    def test_simple_cnn_trains_on_toy_task(self, rng):
        """End-to-end learnability: the CNN should fit 2-class toy images."""
        n = 80
        x = rng.normal(size=(n, 1, 8, 8)) * 0.1
        y = rng.integers(0, 2, size=n)
        x[y == 1, :, :4, :] += 1.0  # class-1 images bright on top
        model = simple_cnn(1, 8, 2, rng, channels=(4, 8), dense=16)
        loss = SoftmaxCrossEntropy()
        opt = SGD(model, lr=0.05)
        for _ in range(30):
            model.zero_grad()
            model.train_batch(loss, x, y)
            opt.step()
        acc = float(np.mean(model.predict(x) == y))
        assert acc > 0.9


class TestPickledForwardCaches:
    """A training forward leaves each layer's cache behind for backward;
    a pickle carries none of them, since the next forward rewrites them."""

    def test_a_trained_model_pickles_without_caches_and_trains_on(self, rng):
        model = Sequential([
            Conv2D(1, 4, 3, rng, padding=1), BatchNorm2d(4), ReLU(), MaxPool2D(2),
            Flatten(), Dropout(0.25, rng), Dense(64, 8, rng), BatchNorm1d(8),
            ReLU(), Dense(8, 3, rng),
        ])
        x, y = rng.normal(size=(6, 1, 8, 8)), rng.integers(0, 3, size=6)

        def step(m):
            opt = SGD(m, lr=0.1)
            m.train_batch(SoftmaxCrossEntropy(), x, y)
            opt.step()

        fresh = len(pickle.dumps(model))
        step(model)
        assert all(getattr(layer, name) is not None
                   for layer in model.layers for name in layer.caches)
        assert len(pickle.dumps(model)) - fresh < 256
        clone = pickle.loads(pickle.dumps(model))
        assert all(getattr(layer, name) is None
                   for layer in clone.layers for name in layer.caches)
        step(model)
        step(clone)
        np.testing.assert_array_equal(clone.flat_state(), model.flat_state())
