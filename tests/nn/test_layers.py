"""Layer tests: shapes, error handling, and numerical gradient checks.

Every layer's backward pass is verified against central differences on a
small random problem — the substrate's correctness underpins every other
result in the repo.
"""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    ReLU,
)
from repro.nn.dtypes import default_dtype
from tests.conftest import assert_grad_close, numerical_gradient


def check_param_grads(layer, x, tol=1e-4):
    """Numerically verify every parameter gradient of ``layer`` at ``x``."""
    def scalar_loss():
        return float(np.sum(layer.forward(x, training=True) ** 2))

    out = layer.forward(x, training=True)
    layer.zero_grad()
    layer.backward(2.0 * out)
    for name, p in layer.params.items():
        numeric = numerical_gradient(scalar_loss, p)
        assert_grad_close(layer.grads[name], numeric, tol=tol)


def check_input_grad(layer, x, tol=1e-4):
    """Numerically verify the input gradient of ``layer`` at ``x``."""
    def scalar_loss():
        return float(np.sum(layer.forward(x, training=True) ** 2))

    out = layer.forward(x, training=True)
    layer.zero_grad()
    gx = layer.backward(2.0 * out)
    numeric = numerical_gradient(scalar_loss, x)
    assert_grad_close(gx, numeric, tol=tol)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng)
        assert layer.forward(rng.normal(size=(5, 4))).shape == (5, 3)

    def test_forward_matches_matmul(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(2, 4))
        expected = x @ layer.params["W"] + layer.params["b"]
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_param_grads(self, rng):
        check_param_grads(Dense(4, 3, rng), rng.normal(size=(5, 4)))

    def test_input_grad(self, rng):
        check_input_grad(Dense(4, 3, rng), rng.normal(size=(5, 4)))

    def test_no_bias(self, rng):
        layer = Dense(4, 3, rng, bias=False)
        assert "b" not in layer.params
        check_param_grads(layer, rng.normal(size=(3, 4)))

    def test_wrong_input_dim_raises(self, rng):
        with pytest.raises(ValueError):
            Dense(4, 3, rng).forward(rng.normal(size=(5, 7)))

    def test_backward_without_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(4, 3, rng).backward(np.zeros((5, 3)))

    def test_inference_forward_does_not_cache(self, rng):
        layer = Dense(4, 3, rng)
        layer.forward(rng.normal(size=(5, 4)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((5, 3)))


class TestConv2D:
    def test_output_shape(self, rng):
        layer = Conv2D(3, 8, 3, rng, stride=1, padding=1)
        assert layer.forward(rng.normal(size=(2, 3, 6, 6))).shape == (2, 8, 6, 6)

    def test_strided_shape(self, rng):
        layer = Conv2D(1, 4, 3, rng, stride=2, padding=0)
        assert layer.forward(rng.normal(size=(1, 1, 7, 7))).shape == (1, 4, 3, 3)

    def test_matches_naive_convolution(self, rng):
        layer = Conv2D(2, 3, 3, rng, padding=1)
        x = rng.normal(size=(1, 2, 4, 4))
        out = layer.forward(x)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for o in range(3):
            for i in range(4):
                for j in range(4):
                    patch = xp[0, :, i : i + 3, j : j + 3]
                    expected = np.sum(patch * layer.params["W"][o]) + layer.params["b"][o]
                    assert out[0, o, i, j] == pytest.approx(expected, rel=1e-9)

    def test_param_grads(self, rng):
        check_param_grads(Conv2D(2, 3, 3, rng, padding=1), rng.normal(size=(2, 2, 4, 4)))

    def test_input_grad(self, rng):
        check_input_grad(Conv2D(2, 3, 3, rng, stride=2), rng.normal(size=(2, 2, 5, 5)))

    def test_wrong_channels_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2D(3, 4, 3, rng).forward(rng.normal(size=(1, 2, 5, 5)))

    def test_invalid_hyperparams_raise(self, rng):
        with pytest.raises(ValueError):
            Conv2D(1, 1, 0, rng)
        with pytest.raises(ValueError):
            Conv2D(1, 1, 3, rng, stride=0)

    @pytest.mark.parametrize("channels", [(0, 4), (2, 0), (-1, 4)])
    def test_non_positive_channel_counts_raise(self, channels, rng):
        """They used to build a zero-parameter layer without complaint."""
        with pytest.raises(ValueError, match="channel counts must be positive"):
            Conv2D(*channels, 3, rng)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_input_grad_routes_to_argmax(self, rng):
        layer = MaxPool2D(2)
        x = rng.normal(size=(1, 1, 4, 4))
        out = layer.forward(x, training=True)
        gx = layer.backward(np.ones_like(out))
        # Gradient mass is conserved and lands only on max positions.
        assert gx.sum() == pytest.approx(out.size)
        assert np.count_nonzero(gx) == out.size

    def test_maxpool_numeric_grad(self, rng):
        # Use distinct values so the argmax is stable under perturbation.
        x = rng.permutation(36).astype(float).reshape(1, 1, 6, 6)
        check_input_grad(MaxPool2D(2), x, tol=1e-3)

    def test_overlapping_stride(self, rng):
        layer = MaxPool2D(2, stride=1)
        assert layer.forward(rng.normal(size=(1, 1, 4, 4))).shape == (1, 1, 3, 3)

    @pytest.mark.parametrize("pool_cls", [MaxPool2D])
    @pytest.mark.parametrize("kernel,stride", [(0, None), (-2, None), (2, 0), (2, -1)])
    def test_non_positive_kernel_or_stride_raises(self, pool_cls, kernel, stride):
        """A zero kernel used to construct and then divide by zero in forward."""
        with pytest.raises(ValueError, match="kernel size and stride must be positive"):
            pool_cls(kernel, stride=stride)


class TestFlattenDropout:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 48)
        gx = layer.backward(out)
        np.testing.assert_array_equal(gx, x)

    def test_dropout_inference_identity(self, rng):
        layer = Dropout(0.5, rng)
        x = rng.normal(size=(10, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_dropout_training_zeroes_and_scales(self, rng):
        layer = Dropout(0.5, rng)
        x = np.ones((200, 50))
        out = layer.forward(x, training=True)
        zero_frac = np.mean(out == 0)
        assert 0.4 < zero_frac < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_dropout_backward_uses_same_mask(self, rng):
        layer = Dropout(0.3, rng)
        x = np.ones((50, 20))
        out = layer.forward(x, training=True)
        gx = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(gx == 0, out == 0)

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng)


class TestBatchNorm:
    def test_bn1d_normalizes_training_batch(self, rng):
        layer = BatchNorm1d(5)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 5))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_bn1d_running_stats_track(self, rng):
        layer = BatchNorm1d(3, momentum=0.5)
        x = rng.normal(loc=2.0, size=(128, 3))
        for _ in range(20):
            layer.forward(x, training=True)
        np.testing.assert_allclose(layer.buffers["running_mean"], x.mean(axis=0), atol=0.05)

    def test_bn1d_param_grads(self, rng):
        check_param_grads(BatchNorm1d(4), rng.normal(size=(8, 4)), tol=1e-3)

    def test_bn1d_input_grad(self, rng):
        check_input_grad(BatchNorm1d(3), rng.normal(size=(6, 3)), tol=1e-3)

    def test_bn2d_per_channel(self, rng):
        layer = BatchNorm2d(3)
        x = rng.normal(loc=5.0, size=(4, 3, 5, 5))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)

    def test_bn2d_input_grad(self, rng):
        # Slightly looser tolerance: the variance path amplifies
        # central-difference noise.
        check_input_grad(BatchNorm2d(2), rng.normal(size=(3, 2, 3, 3)), tol=5e-3)

    def test_bn_shape_validation(self, rng):
        with pytest.raises(ValueError):
            BatchNorm1d(4).forward(rng.normal(size=(2, 5)), training=True)
        with pytest.raises(ValueError):
            BatchNorm2d(4).forward(rng.normal(size=(2, 5)), training=True)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, LeakyReLU])
    def test_input_grads(self, layer_cls, rng):
        # Offset away from ReLU's kink so finite differences are valid.
        x = rng.normal(size=(4, 6))
        x[np.abs(x) < 0.05] += 0.1
        check_input_grad(layer_cls(), x, tol=1e-3)

    def test_relu_clamps_negative(self, rng):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_leaky_relu_keeps_negative_slope(self):
        out = LeakyReLU(alpha=0.2).forward(np.array([[-1.0]]))
        assert out[0, 0] == pytest.approx(-0.2)


# (layer factory, input shape): every layer class the substrate exports.
_LAYER_CASES = {
    "Dense": (lambda rng: Dense(4, 3, rng), (5, 4)),
    "Conv2D": (lambda rng: Conv2D(2, 3, 3, rng, padding=1), (2, 2, 4, 4)),
    "MaxPool2D": (lambda rng: MaxPool2D(2), (2, 2, 4, 4)),
    "MaxPool2D-overlapping": (lambda rng: MaxPool2D(2, stride=1), (2, 2, 4, 4)),
    "Flatten": (lambda rng: Flatten(), (2, 2, 4, 4)),
    "Dropout": (lambda rng: Dropout(0.5, rng), (5, 4)),
    "BatchNorm1d": (lambda rng: BatchNorm1d(4), (5, 4)),
    "BatchNorm2d": (lambda rng: BatchNorm2d(2), (2, 2, 4, 4)),
    "ReLU": (lambda rng: ReLU(), (5, 4)),
    "LeakyReLU": (lambda rng: LeakyReLU(), (5, 4)),
}


@pytest.mark.parametrize("name", _LAYER_CASES)
def test_inference_forward_clears_the_training_cache(name, rng):
    """A backward after an inference pass must not reuse the previous
    training batch's cache: it would be a gradient for the wrong batch."""
    make, shape = _LAYER_CASES[name]
    layer = make(rng)
    out = layer.forward(rng.normal(size=shape), training=True)
    layer.backward(np.ones_like(out))  # the cache is live
    out = layer.forward(rng.normal(size=shape), training=False)
    if isinstance(layer, Dropout):
        # No mask in inference mode: backward is the identity, as forward was.
        grad = rng.normal(size=shape)
        assert layer.backward(grad) is grad
        return
    with pytest.raises(RuntimeError, match="without a training forward pass"):
        layer.backward(np.ones_like(out))


# -- backward writes the parameter grads (it used to accumulate) -------------
# The accumulate expressions the layers replaced, kept as the oracle.

def _accumulate_dense(layer, grad):
    layer.grads["W"] += layer._x.T @ grad
    if layer.use_bias:
        layer.grads["b"] += grad.sum(axis=0)


def _accumulate_conv(layer, grad):
    g = grad.transpose(1, 0, 2, 3).reshape(grad.shape[1], -1)  # (O, N*OH*OW)
    layer.grads["W"] += (g @ layer._cols.T).reshape(layer.params["W"].shape)
    if layer.use_bias:
        layer.grads["b"] += g.sum(axis=1)


def _accumulate_batchnorm(layer, grad):
    if grad.ndim == 4:
        grad = grad.transpose(0, 2, 3, 1).reshape(-1, grad.shape[1])
    xhat, _ = layer._cache
    layer.grads["gamma"] += (grad * xhat).sum(axis=0)
    layer.grads["beta"] += grad.sum(axis=0)


_PARAM_LAYER_CASES = {
    "Dense": (lambda rng: Dense(4, 3, rng), (10, 4), _accumulate_dense),
    "Dense-no-bias": (lambda rng: Dense(4, 3, rng, bias=False), (1, 4), _accumulate_dense),
    "Conv2D": (lambda rng: Conv2D(2, 3, 3, rng, padding=1), (2, 2, 4, 4), _accumulate_conv),
    "Conv2D-strided": (
        lambda rng: Conv2D(2, 3, 3, rng, stride=2, bias=False), (3, 2, 5, 5), _accumulate_conv
    ),
    "BatchNorm1d": (lambda rng: BatchNorm1d(4), (5, 4), _accumulate_batchnorm),
    "BatchNorm2d": (lambda rng: BatchNorm2d(2), (2, 2, 4, 4), _accumulate_batchnorm),
}


@pytest.fixture(params=["float64", "float32"])
def compute_dtype(request):
    with default_dtype(request.param):
        yield np.dtype(request.param)


@pytest.mark.parametrize("name", _PARAM_LAYER_CASES)
def test_second_backward_overwrites_the_parameter_grads(name, rng, compute_dtype):
    make, shape, _ = _PARAM_LAYER_CASES[name]
    layer = make(rng)
    x = rng.normal(size=shape).astype(compute_dtype)
    out = layer.forward(x, training=True)
    g1 = rng.normal(size=out.shape).astype(compute_dtype)
    g2 = rng.normal(size=out.shape).astype(compute_dtype)
    layer.backward(g2)
    alone = {k: v.copy() for k, v in layer.grads.items()}
    layer.backward(g1)
    layer.backward(g2)
    for key, value in layer.grads.items():
        assert value.dtype == compute_dtype
        assert np.array_equal(value, alone[key]), key


@pytest.mark.parametrize("name", _PARAM_LAYER_CASES)
def test_written_grads_equal_zero_then_accumulate(name, rng, compute_dtype):
    make, shape, accumulate = _PARAM_LAYER_CASES[name]
    layer = make(rng)
    x = rng.normal(size=shape).astype(compute_dtype)
    out = layer.forward(x, training=True)
    grad = rng.normal(size=out.shape).astype(compute_dtype)
    for g in layer.grads.values():
        g.fill(7.0)  # stale values a write must not see
    layer.backward(grad)
    written = {k: v.copy() for k, v in layer.grads.items()}
    layer.zero_grad()
    accumulate(layer, grad)
    for key, value in layer.grads.items():
        assert np.array_equal(written[key], value), key


@pytest.mark.parametrize("name", _PARAM_LAYER_CASES)
def test_param_grads_false_gives_the_input_gradient_only(name, rng):
    make, shape, _ = _PARAM_LAYER_CASES[name]
    layer = make(rng)
    out = layer.forward(rng.normal(size=shape), training=True)
    grad = rng.normal(size=out.shape)
    expected = layer.backward(grad)
    for g in layer.grads.values():
        g.fill(7.0)
    assert np.array_equal(layer.backward(grad, param_grads=False), expected)
    assert all(np.all(g == 7.0) for g in layer.grads.values())


def test_leaky_relu_slope_must_be_in_unit_interval():
    for alpha in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LeakyReLU(alpha)
    assert LeakyReLU(0.0).alpha == 0.0 and LeakyReLU(1.0).alpha == 1.0
