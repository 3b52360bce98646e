"""``[MaxPool2D, ReLU]`` against ``[ReLU, MaxPool2D]``, bit for bit.

Max pooling and ReLU are both monotone selections, so
``relu(max(window)) == max(relu(window))`` — and the model zoo pools
*below* the activation so that ReLU's forward and backward touch
``1/k**2`` of the elements.  The federated digests hash every weight, so
the swap has to be exact where it matters:

* the forward output — same bytes, on every path;
* the gradient handed to the layer below — same bytes for
  non-overlapping pools (every pool in the zoo), and ``array_equal`` for
  overlapping ones, where a window with no positive entry sums ``-0.0``
  terms in one order and masks a negative sum in the other: the two
  zeros compare equal and differ in sign only.

Windows that are all negative (ReLU kills the gradient whichever entry
pooling picked), windows holding ties (first entry in row-major order on
both sides) and inputs with a remainder row/column are drawn on purpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers import MaxPool2D, ReLU
from repro.nn.models import MODEL_FACTORIES


def forward_backward(layers, x, grad):
    out = x
    for layer in layers:
        out = layer.forward(out, training=True)
    for layer in reversed(layers):
        grad = layer.backward(grad)
    return out, grad


@st.composite
def cases(draw):
    k = draw(st.sampled_from([2, 3]))
    stride = draw(st.sampled_from([k, 1, 2]))
    # Whole windows plus a remainder: sizes not divisible by k included.
    h = k * draw(st.integers(1, 4)) + draw(st.integers(0, k - 1))
    w = k * draw(st.integers(1, 4)) + draw(st.integers(0, k - 1))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["normal", "ties", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "normal":
        x = rng.normal(size=shape)
    else:
        # A six-value grid: most windows repeat their maximum, many are
        # all zero or below.
        x = rng.integers(-3, 3, size=shape).astype(np.float64)
        if kind == "negative":
            x = -np.abs(x) - draw(st.sampled_from([0.0, 0.5]))
    out_shape = shape[:2] + (
        F.conv_out_size(h, k, stride, 0), F.conv_out_size(w, k, stride, 0))
    grad = rng.normal(size=out_shape)
    return k, stride, x.astype(dtype), grad.astype(dtype)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_pool_then_relu_equals_relu_then_pool(case):
    k, stride, x, grad = case
    ref_out, ref_gx = forward_backward([ReLU(), MaxPool2D(k, stride)], x, grad)
    out, gx = forward_backward([MaxPool2D(k, stride), ReLU()], x, grad)
    assert out.dtype == ref_out.dtype and gx.dtype == ref_gx.dtype
    assert out.tobytes() == ref_out.tobytes()
    assert np.array_equal(gx, ref_gx)
    if stride == k:
        assert gx.tobytes() == ref_gx.tobytes()
    inference = ReLU().forward(MaxPool2D(k, stride).forward(x))
    assert inference.tobytes() == ref_out.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_all_negative_window_passes_no_gradient_either_way(dtype):
    x = np.array([[[[-1.0, -2.0, 3.0, 0.0], [-4.0, -0.5, 3.0, -1.0]]]], dtype=dtype)
    grad = np.array([[[[-5.0, 7.0]]]], dtype=dtype)
    for layers in ([ReLU(), MaxPool2D(2)], [MaxPool2D(2), ReLU()]):
        out, gx = forward_backward(layers, x, grad)
        assert np.array_equal(out, [[[[0.0, 3.0]]]])
        # The tied 3.0s: the first one in row-major order takes it all.
        assert np.array_equal(gx, [[[[0, 0, 7.0, 0], [0, 0, 0, 0]]]])


def zoo_models():
    rng = np.random.default_rng(0)
    yield "mlp", MODEL_FACTORIES["mlp"](16, 4, rng)
    yield "simple_cnn", MODEL_FACTORIES["simple_cnn"](1, 8, 4, rng)
    yield "vgg_mini", MODEL_FACTORIES["vgg_mini"](1, 8, 4, rng, width=2)
    for batch_norm in (False, True):
        yield f"vgg11(batch_norm={batch_norm})", MODEL_FACTORIES["vgg11"](
            3, 32, 4, rng, batch_norm=batch_norm)


def test_no_factory_emits_relu_directly_before_maxpool():
    seen = set()
    for name, model in zoo_models():
        kinds = [type(layer) for layer in model.layers]
        assert (ReLU, MaxPool2D) not in set(zip(kinds, kinds[1:])), name
        if MaxPool2D in kinds:
            # Pooled below the activation, not stripped of it.
            assert all(
                after is ReLU for before, after in zip(kinds, kinds[1:])
                if before is MaxPool2D
            ), name
        seen.add(name.split("(")[0])
    assert seen == set(MODEL_FACTORIES)
