"""Conv2D lowered in sample chunks against the same layer lowered whole.

``Conv2D`` unfolds, multiplies and folds at most ``layers.CONV_CHUNK``
column elements at a time.  Every GEMM split runs over output columns
only (the ``dW`` reduction stays one call), at whole ``CONV_ALIGN``
column steps and above the ``SMALL_GEMM_MACS`` floor, so a chunked pass
must give the whole-batch pass's bits: every comparison is
``array_equal``.  The budget is monkeypatched to ask for 1, 2, 3 and all
samples per chunk; the plan rounds that up to an aligned step.

The two rules are those of the OpenBLAS ``SkylakeX`` kernels the pinned
digests were recorded on; under ``OPENBLAS_CORETYPE=Haswell`` five float32
cases here differ in the last bits, as the golden pins do there.
"""

import ctypes
import functools
import glob
import math
import os
import tracemalloc

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import layers
from repro.nn.dtypes import default_dtype
from repro.nn.layers import Conv2D, MaxPool2D
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import simple_cnn, vgg11

WHOLE = 1 << 62  # every batch in one chunk


def geometry(layer, x):
    """``(span, rows)``: output columns and column rows of one sample."""
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    oh, ow = F.conv_out_hw(x.shape[2], x.shape[3], k, k, s, p)
    return oh * ow, layer.in_channels * k * k


def plan(layer, x):
    span, rows = geometry(layer, x)
    return list(layers._sample_chunks(x.shape[0], span, rows, layer.out_channels))


def conv_pass(layer, x, grad):
    """Train forward, eval forward, dX, dW and db, all copied out."""
    train = layer.forward(x, training=True).copy()
    dx = layer.backward(grad).copy()
    grads = [g.copy() for g in layer.grads.values()]
    return [train, layer.forward(x).copy(), dx, *grads]


@functools.cache
def blas_kernels() -> str:
    """numpy's BLAS and, for an OpenBLAS wheel, the kernel set it picked at
    run time (``OPENBLAS_CORETYPE`` or CPU detection)."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    try:
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        get.restype = ctypes.c_char_p
        core = get().decode()
    except (IndexError, OSError, AttributeError):
        pass
    return f"{info.get('name')} {info.get('version')}, {core} kernels"


def assert_all_equal(got, want, what="chunked"):
    assert len(got) == len(want)
    for index, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), (
            f"{what}: array {index} differs from the whole-batch pass by up to "
            f"{np.max(np.abs(a - b)):.3g} on {blas_kernels()}; the CONV_ALIGN / "
            "SMALL_GEMM_MACS rules were measured on OpenBLAS SkylakeX kernels "
            "(ROADMAP item 13)"
        )


def check_chunk_counts(monkeypatch, layer, x, grad, reference_x=None):
    """Chunks of 1, 2, 3 samples (as aligned) against one chunk of
    ``reference_x``; returns the plans that ran."""
    monkeypatch.setattr(layers, "CONV_CHUNK", WHOLE)
    assert len(plan(layer, x)) == 1
    want = conv_pass(layer, x if reference_x is None else reference_x, grad)
    span, rows = geometry(layer, x)
    plans = []
    for samples in (1, 2, 3):
        monkeypatch.setattr(layers, "CONV_CHUNK", samples * span * rows)
        plans.append(plan(layer, x))
        assert_all_equal(conv_pass(layer, x, grad), want, f"chunks {plans[-1]}")
    return plans


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n", [1, 2, 5, 7, 16, 20, 32])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_chunked_conv_is_bit_identical(kernel, stride, pad, n, dtype, rng, monkeypatch):
    """The geometries of ``test_conv_matches_the_im2col_path``.  Their
    spans are mostly odd, so the aligned step is up to 16 samples: only
    N = 32 splits every one of them."""
    with default_dtype(dtype):
        layer = Conv2D(3, 4, kernel, rng, stride=stride, padding=pad)
        layer.params["b"][:] = rng.normal(size=4)
        x = rng.normal(size=(n, 3, 9, 7)).astype(dtype)  # non-square
        grad = rng.normal(size=layer.forward(x).shape).astype(dtype)
        check_chunk_counts(monkeypatch, layer, x, grad)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize(
    "channels, size, n", [((1, 16), 32, 20), ((16, 32), 16, 20), ((16, 32), 16, 7)]
)
def test_simple_cnn_convs_in_exact_sample_chunks(channels, size, n, dtype, rng, monkeypatch):
    """At ``simple_cnn``'s conv shapes every sample count is an aligned
    step, and conv2's GEMM is above the floor per sample, so the budget
    gets exactly the chunks it asks for there."""
    with default_dtype(dtype):
        layer = Conv2D(*channels, 3, rng, padding=1)
        x = rng.normal(size=(n, channels[0], size, size)).astype(dtype)
        grad = rng.normal(size=(n, channels[1], size, size)).astype(dtype)
        plans = check_chunk_counts(monkeypatch, layer, x, grad)
    span, rows = geometry(layer, x)
    if channels[1] * rows * span > layers.SMALL_GEMM_MACS:
        for samples, chunks in zip((1, 2, 3), plans):
            assert [stop - first for first, stop in chunks[:-1]] == [samples] * (len(chunks) - 1)
            assert chunks[-1][1] - chunks[-1][0] <= samples
    else:  # conv1: chunks stay above the floor
        assert all(len(chunks) > 1 for chunks in plans)


@pytest.mark.parametrize("n", [0, 1, 3, 16, 20, 64, 100, 256])
@pytest.mark.parametrize(
    "span, rows, out_rows",
    [(1024, 9, 16), (256, 144, 32), (63, 27, 4), (4, 4608, 512), (12, 3, 1), (1, 75, 40)],
)
@pytest.mark.parametrize("budget", [1, 5000, 1 << 18, WHOLE])
def test_chunk_plan(n, span, rows, out_rows, budget, monkeypatch):
    """The plan tiles the batch in aligned steps, within the budget unless
    a step or the small-GEMM floor forces more, never dropping a chunk
    below the floor the whole batch is above."""
    monkeypatch.setattr(layers, "CONV_CHUNK", budget)
    chunks = list(layers._sample_chunks(n, span, rows, out_rows))
    if n == 0:
        assert chunks == []
        return
    assert [first for first, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
    assert chunks[-1][1] == n
    if (n * span) % layers.CONV_ALIGN:
        assert len(chunks) == 1
        return
    macs = out_rows * rows * span
    unit = layers.CONV_ALIGN // math.gcd(span, layers.CONV_ALIGN)
    sizes = [stop - first for first, stop in chunks]
    for size in sizes:
        assert size * span % layers.CONV_ALIGN == 0
        if n * macs > layers.SMALL_GEMM_MACS:
            assert size * macs > layers.SMALL_GEMM_MACS
    for size in sizes[:-1]:  # the smallest aligned size above the floor
        assert size * rows * span <= budget or size == unit or (
            (size - unit) * macs <= layers.SMALL_GEMM_MACS
        )
    fewest = layers.SMALL_GEMM_MACS // macs + 1
    assert len(sizes) == 1 or sizes[-1] < sizes[0] + fewest  # a short remainder merged


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_strided_and_channel_major_inputs(dtype, rng, monkeypatch):
    """A strided batch slice (what a client feeds the first conv) and a
    channel-major input (what a conv, pool or ReLU hands the next conv)."""
    with default_dtype(dtype):
        layer = Conv2D(2, 3, 3, rng, padding=1)
        layer.params["b"][:] = rng.normal(size=3)
        sliced = rng.normal(size=(14, 2, 8, 6)).astype(dtype)[1::2]
        major = rng.normal(size=(2, 7, 8, 6)).astype(dtype).transpose(1, 0, 2, 3)
        for x in (sliced, major):
            assert not x.flags.c_contiguous
            grad = rng.normal(size=(7, 3, 8, 6)).astype(dtype)
            plans = check_chunk_counts(monkeypatch, layer, x, grad, np.ascontiguousarray(x))
            assert [len(chunks) for chunks in plans] == [7, 4, 3]  # 48 columns a sample


def test_output_and_input_gradient_are_channel_major(rng):
    layer = Conv2D(2, 3, 3, rng, padding=1)
    out = layer.forward(rng.normal(size=(5, 2, 8, 6)), training=True)
    assert out.shape == (5, 3, 8, 6)
    assert out.transpose(1, 0, 2, 3).flags.c_contiguous
    dx = layer.backward(rng.normal(size=out.shape))
    assert dx.shape == (5, 2, 8, 6)
    assert dx.base is not None and dx.base.shape == (2, 5, 10, 8)  # padded buffer


def test_pool_gradient_is_channel_major(rng):
    """``MaxPool2D.backward`` allocates ``gx`` channel-major, with the same
    values whatever the memory order of its forward input and its grad."""
    x = rng.normal(size=(4, 3, 8, 6))
    grad = rng.normal(size=(4, 3, 4, 3))
    pool = MaxPool2D(2)
    pool.forward(x, training=True)
    want = pool.backward(grad)
    major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    for layout in (x, major, nhwc):
        pool.forward(layout, training=True)
        for g in (grad, np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)):
            gx = pool.backward(g)
            assert gx.transpose(1, 0, 2, 3).flags.c_contiguous
            assert np.array_equal(gx, want)


@pytest.mark.parametrize(
    "make_out",
    [
        lambda shape: np.full((shape[0], shape[1] + 5), np.nan)[:, 3 : 3 + shape[1]],
        lambda shape: np.full(shape[::-1], np.nan).T,  # Fortran order
        lambda shape: np.full((shape[0], 2 * shape[1]), np.nan)[:, ::2],
    ],
    ids=["column_slice", "fortran", "column_stride"],
)
def test_unfold_fills_any_out_of_the_column_shape(make_out, rng):
    x = rng.normal(size=(3, 2, 5, 4))
    want = F.unfold(x, 3, 3, 1, 1)
    out = make_out(want.shape)
    assert F.unfold(x, 3, 3, 1, 1, out=out) is out
    assert np.array_equal(out, want)


def test_unfold_rejects_an_out_of_another_shape(rng):
    x = rng.normal(size=(3, 2, 5, 4))
    rows, columns = F.unfold(x, 3, 3, 1, 1).shape
    for shape in ((columns, rows), (rows * columns,), (rows, columns + 1)):
        with pytest.raises(ValueError, match="out has shape"):
            F.unfold(x, 3, 3, 1, 1, out=np.empty(shape))


def model_pass(factory, x, y):
    """Logits of a training and an eval forward, every parameter grad and
    the input gradient of one fresh model."""
    model = factory()
    loss = SoftmaxCrossEntropy()
    logits = model.forward(x, training=True)
    loss.forward(logits, y)
    dx = model.backward(loss.backward())
    return [logits, model.forward(x), model.flat_grads().copy(), dx]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize(
    "factory, shape, budgets",
    [
        (lambda: simple_cnn(1, 16, 10, np.random.default_rng(0)), (16, 1, 16, 16), (1, 20_000)),
        # VGG-11 with BatchNorm2d, whose output is NHWC in memory.
        (lambda: vgg11(3, 32, 10, np.random.default_rng(0), batch_norm=True), (4, 3, 32, 32), (1,)),
    ],
    ids=["simple_cnn", "vgg11_bn"],
)
def test_models_are_bit_identical(factory, shape, budgets, dtype, rng, monkeypatch):
    """Every conv of the model in its smallest chunks (and a few) against
    whole batches."""
    with default_dtype(dtype):
        x = rng.normal(size=shape).astype(dtype)
        y = rng.integers(0, 10, size=shape[0])
        monkeypatch.setattr(layers, "CONV_CHUNK", WHOLE)
        want = model_pass(factory, x, y)
        for budget in budgets:
            monkeypatch.setattr(layers, "CONV_CHUNK", budget)
            assert_all_equal(model_pass(factory, x, y), want, f"budget {budget}")


@pytest.mark.parametrize("budget", [1, 1 << 18])
@pytest.mark.parametrize("pad", [0, 1])
def test_kernel_larger_than_padded_input_raises(pad, budget, rng, monkeypatch):
    """The shape check runs before any chunk arithmetic."""
    monkeypatch.setattr(layers, "CONV_CHUNK", budget)
    layer = Conv2D(1, 1, 5, rng, padding=pad)
    for training in (False, True):
        with pytest.raises(ValueError, match=r"kernel \(5x5, .*too large for input 2x2"):
            layer.forward(rng.normal(size=(3, 1, 2, 2)), training=training)


# What tracemalloc may see beyond the three arrays: Python objects, views.
SLACK_BYTES = 256 * 1024


def test_eval_workspace_is_bounded(rng):
    """An eval forward holds the output, one chunk of padded input and one
    chunk of columns — never the whole batch's columns (75 MB here)."""
    n, c, o, size = 64, 64, 128, 16
    layer = Conv2D(c, o, 3, rng, padding=1)
    x = rng.normal(size=(n, c, size, size))
    itemsize = x.dtype.itemsize
    output = o * n * size * size * itemsize
    padded_input = c * n * (size + 2) ** 2 * itemsize
    bound = output + padded_input + layers.CONV_CHUNK * itemsize + SLACK_BYTES
    tracemalloc.start()
    try:
        out = layer.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == output
    assert peak <= bound, f"traced peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"
