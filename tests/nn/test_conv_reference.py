"""Conv2D on the K-major lowering against the im2col path it replaced.

The two paths multiply the same numbers but sum them in another order
(the GEMM reduction runs over a differently laid out ``cols``, the bias
gradient is a pairwise row sum instead of a column-sequential one), so
the comparison is ``allclose`` with one tolerance per dtype, used as both
``rtol`` and ``atol`` and pinned when the layout changed.  The largest
error over every case below was 1.4e-13 (float64) and 4.0e-5 (float32,
the reference's sequential 5120-term bias sum), relative to ``1 + |want|``.
"""

import numpy as np
import pytest

from repro.nn.dtypes import default_dtype
from repro.nn.layers import Conv2D
from tests.nn import reference_conv as R

TOLERANCE = {"float64": 1e-11, "float32": 1e-3}


def assert_close(got, want, dtype):
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.shape == want.shape
    tol = TOLERANCE[dtype]
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def compare_with_reference(layer, x, grad_seed=0):
    """Forward, dW, db and dX of ``layer`` at ``x`` against the old path."""
    dtype = x.dtype.name
    weight, bias = layer.params["W"], layer.params.get("b")
    want_out, cols = R.conv_forward(x, weight, bias, layer.stride, layer.padding)
    out = layer.forward(x, training=True)
    assert out.transpose(1, 0, 2, 3).flags.c_contiguous  # channel-major memory
    assert_close(out, want_out, dtype)
    assert_close(layer.forward(x), want_out, dtype)

    grad = np.random.default_rng(grad_seed).normal(size=out.shape).astype(x.dtype)
    layer.forward(x, training=True)
    dx = layer.backward(grad)
    want_dw, want_db, want_dx = R.conv_backward(
        grad, cols, x.shape, weight, layer.stride, layer.padding
    )
    assert_close(layer.grads["W"], want_dw, dtype)
    if bias is not None:
        assert_close(layer.grads["b"], want_db, dtype)
    assert_close(dx, want_dx, dtype)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n", [1, 5, 20])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])  # 3 > kernel at kernel 1
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv_matches_the_im2col_path(kernel, stride, pad, n, dtype, rng):
    with default_dtype(dtype):
        layer = Conv2D(3, 4, kernel, rng, stride=stride, padding=pad)
        layer.params["b"][:] = rng.normal(size=4)
        x = rng.normal(size=(n, 3, 9, 7)).astype(dtype)  # non-square
        compare_with_reference(layer, x)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_non_contiguous_batch_slice_and_gradient(dtype, rng):
    """What a client feeds it: a slice of a gathered chunk; and a gradient
    that arrives as a strided view."""
    with default_dtype(dtype):
        layer = Conv2D(2, 3, 3, rng, padding=1, bias=False)
        x = rng.normal(size=(12, 2, 8, 6)).astype(dtype)[1::2]
        assert not x.flags.c_contiguous
        compare_with_reference(layer, x)
        out = layer.forward(x, training=True)
        grad = rng.normal(size=(*out.shape[:3], 2 * out.shape[3])).astype(dtype)[..., ::2]
        dx = layer.backward(grad)
        dw = layer.grads["W"].copy()
        layer.forward(x, training=True)
        assert np.array_equal(layer.backward(np.ascontiguousarray(grad)), dx)
        assert np.array_equal(layer.grads["W"], dw)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_simple_cnn_shapes(dtype, rng):
    """The two conv layers of ``simple_cnn`` at the benchmark's batch sizes."""
    with default_dtype(dtype):
        for channels, size in [((1, 16), 32), ((16, 32), 16)]:
            layer = Conv2D(*channels, 3, rng, padding=1)
            for n in (5, 20):
                x = rng.normal(size=(n, channels[0], size, size)).astype(dtype)
                compare_with_reference(layer, x)


@pytest.mark.parametrize("pad", [0, 1])
def test_kernel_larger_than_padded_input_raises(pad, rng):
    layer = Conv2D(1, 1, 5, rng, padding=pad)
    with pytest.raises(ValueError, match=r"kernel \(5x5, .*too large for input 2x2"):
        layer.forward(rng.normal(size=(1, 1, 2, 2)))
