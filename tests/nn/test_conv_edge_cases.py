"""Extra Conv2D/pooling coverage: every stride/padding/kernel combination
is checked against the direct (loop) convolution and for gradient-mass
conservation.  These guard the unfold/fold lowering, which every model in
the repo depends on."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, MaxPool2D
from repro.nn import functional as F


def naive_conv(x, w, b, stride, pad):
    """Direct 4-loop convolution used as ground truth."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride : i * stride + kh,
                               j * stride : j * stride + kw]
                    out[ni, oi, i, j] = np.sum(patch * w[oi]) + b[oi]
    return out


@pytest.mark.parametrize("kernel,stride,pad", [
    (1, 1, 0), (2, 1, 0), (3, 1, 1), (3, 2, 1), (5, 2, 2), (3, 3, 0),
])
def test_conv_matches_naive_for_all_geometries(kernel, stride, pad, rng):
    layer = Conv2D(2, 3, kernel, rng, stride=stride, padding=pad)
    x = rng.normal(size=(2, 2, 7, 7))
    out = layer.forward(x)
    expected = naive_conv(x, layer.params["W"], layer.params["b"], stride, pad)
    np.testing.assert_allclose(out, expected, atol=1e-10)


@pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 1), (3, 2, 0), (2, 2, 1)])
def test_conv_gradient_mass_conserved(kernel, stride, pad, rng):
    """Sum of dL/dx over an all-ones upstream gradient equals the sum of
    kernel applications — a cheap exactness check on fold."""
    layer = Conv2D(1, 1, kernel, rng, stride=stride, padding=pad, bias=False)
    x = rng.normal(size=(1, 1, 6, 6))
    out = layer.forward(x, training=True)
    gx = layer.backward(np.ones_like(out))
    # dL/dx_total = (number of windows each pixel participates in) * W summed;
    # compare against the adjoint identity <1, conv(x')> with x' = ones.
    ones = np.ones_like(x)
    expected_total = float(layer.forward(ones).sum())
    assert gx.sum() == pytest.approx(expected_total, rel=1e-9)


def test_conv_non_square_batch(rng):
    layer = Conv2D(3, 4, 3, rng, padding=1)
    out = layer.forward(rng.normal(size=(5, 3, 9, 9)))
    assert out.shape == (5, 4, 9, 9)


def test_conv_single_pixel_output(rng):
    layer = Conv2D(1, 2, 4, rng)
    out = layer.forward(rng.normal(size=(1, 1, 4, 4)))
    assert out.shape == (1, 2, 1, 1)


@pytest.mark.parametrize("pool_cls", [MaxPool2D])
def test_pool_gradient_shape_all_strides(pool_cls, rng):
    for k, s in [(2, 2), (3, 1), (2, 1)]:
        layer = pool_cls(k, stride=s)
        x = rng.normal(size=(2, 3, 6, 6))
        out = layer.forward(x, training=True)
        gx = layer.backward(np.ones_like(out))
        assert gx.shape == x.shape


def test_unfold_stride_larger_than_kernel(rng):
    """Dilated-style sampling: stride 3 with kernel 2 skips pixels."""
    x = rng.normal(size=(1, 1, 8, 8))
    cols = F.unfold(x, 2, 2, stride=3, pad=0)
    assert cols.shape == (4, 1 * 3 * 3)
    # First window must be the top-left 2x2 block.
    np.testing.assert_array_equal(cols[:, 0], x[0, 0, :2, :2].ravel())


def test_conv_dtype_is_float64(rng):
    """The substrate standardises on float64 (flat-weight aggregation
    assumes a single dtype end to end)."""
    layer = Conv2D(1, 1, 3, rng)
    out = layer.forward(rng.normal(size=(1, 1, 5, 5)))
    assert out.dtype == np.float64
