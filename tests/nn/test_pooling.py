"""MaxPool2D against its im2col reference, bit for bit.

Non-overlapping pools work on strided tile views of the input and
overlapping ones on K-major ``unfold`` columns; the row-major im2col +
``argmax`` + ``col2im`` implementation both replaced is kept
(``tests/nn/reference_conv.py``) as the oracle.  Outputs, argmax and input
gradients must be ``array_equal`` — the federated digests hash every
weight — including where whole windows tie (post-ReLU zeros): the first
entry in row-major order takes the gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers import MaxPool2D
from tests.nn.reference_conv import col2im, im2col
from tests.nn.test_layers import check_input_grad


def reference_maxpool(x: np.ndarray, k: int, s: int, grad_seed: int = 0):
    """``(out, argmax, grad, input_grad)`` of max pooling through im2col/col2im."""
    n, c, h, w = x.shape
    oh = F.conv_out_size(h, k, s, 0)
    ow = F.conv_out_size(w, k, s, 0)
    cols = im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)
    arg = cols.argmax(axis=1)
    rows = np.arange(cols.shape[0])
    out = cols[rows, arg].reshape(n, c, oh, ow)
    grad = np.random.default_rng(grad_seed).normal(size=out.shape).astype(x.dtype)
    gcols = np.zeros_like(cols)
    gcols[rows, arg] = grad.reshape(-1)
    gx = col2im(gcols, (n * c, 1, h, w), k, k, s, 0).reshape(x.shape)
    return out, arg, grad, gx


def assert_matches_reference(x: np.ndarray, k: int, s: int | None = None) -> None:
    layer = MaxPool2D(k, stride=s)
    ref_out, ref_arg, grad, ref_gx = reference_maxpool(x, k, layer.stride)
    out = layer.forward(x, training=True)
    assert np.array_equal(layer._argmax.reshape(-1), ref_arg)
    gx = layer.backward(grad)
    assert out.dtype == ref_out.dtype and gx.dtype == ref_gx.dtype
    assert np.array_equal(out, ref_out)
    assert np.array_equal(gx, ref_gx)
    assert np.array_equal(layer.forward(x, training=False), ref_out)


@st.composite
def pool_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    # Whole windows plus a remainder: sizes not divisible by k included.
    h = k * draw(st.integers(1, 4)) + draw(st.integers(0, k - 1))
    w = k * draw(st.integers(1, 4)) + draw(st.integers(0, k - 1))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**16))
    return k, (n, c, h, w), dtype, seed


@given(pool_cases())
@settings(max_examples=120, deadline=None)
def test_tile_path_equals_im2col_reference(case):
    k, shape, dtype, seed = case
    rng = np.random.default_rng(seed)
    # Through ReLU: about half the entries, and many whole windows, tie at 0.
    x = np.maximum(rng.normal(size=shape), 0.0).astype(dtype)
    assert_matches_reference(x, k)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3])
def test_repeated_nonzero_maximum_goes_to_first_entry(k, dtype):
    x = np.zeros((1, 1, k, 2 * k), dtype=dtype)
    x[0, 0, 0, 1] = x[0, 0, k - 1, 0] = x[0, 0, k - 1, k - 1] = 7.0  # window 0
    x[0, 0, :, k:] = 3.0  # window 1: every entry is the maximum
    assert_matches_reference(x, k)
    layer = MaxPool2D(k)
    layer.forward(x, training=True)
    gx = layer.backward(np.ones((1, 1, 1, 2), dtype=dtype))
    expected = np.zeros_like(x)
    expected[0, 0, 0, 1] = expected[0, 0, 0, k] = 1.0
    assert np.array_equal(gx, expected)


def test_trailing_rows_and_columns_get_zero_gradient(rng):
    x = rng.normal(size=(2, 2, 7, 5)).astype(np.float32)
    layer = MaxPool2D(2)
    out = layer.forward(x, training=True)
    gx = layer.backward(np.ones_like(out))
    assert out.shape == (2, 2, 3, 2)
    assert not gx[:, :, 6:, :].any() and not gx[:, :, :, 4:].any()
    assert gx.sum() == out.size


def test_inference_forward_records_nothing(rng):
    layer = MaxPool2D(2)
    x = rng.normal(size=(2, 3, 6, 6))
    layer.forward(x, training=True)
    assert layer._argmax is not None
    layer.forward(x, training=False)
    assert layer._argmax is None and layer._x_shape is None


@pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2)])
def test_overlapping_stride_equals_im2col_reference(k, s, rng):
    x = rng.permutation(2 * 49).astype(float).reshape(1, 2, 7, 7)
    assert_matches_reference(x, k, s)
    # Through ReLU, overlapping windows share their tied zeros.
    relu = np.maximum(rng.normal(size=(3, 2, 7, 6)), 0.0).astype(np.float32)
    assert_matches_reference(relu, k, s)
    # Distinct values: the argmax is stable under the probe.
    check_input_grad(MaxPool2D(k, stride=s), x, tol=1e-3)


@pytest.mark.parametrize("stride", [None, 1])
@pytest.mark.parametrize("pool_cls", [MaxPool2D])
def test_kernel_larger_than_input_raises(pool_cls, stride):
    with pytest.raises(ValueError, match=r"kernel \(4x4, .*too large for input 2x2"):
        pool_cls(4, stride=stride).forward(np.zeros((1, 1, 2, 2)))
