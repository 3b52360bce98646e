"""Stateless numerical kernels shared by layers and losses.

These are the hot paths of the substrate, so everything is expressed as
batched NumPy array operations (no per-sample Python loops).  Convolutions
use the K-major lowering (Chetlur et al., cuDNN): :func:`unfold` lays the
receptive fields out as a ``(C*kh*kw, N*OH*OW)`` matrix so a convolution
is a GEMM each way, and :func:`fold` is its adjoint.  Both take an
``out=`` buffer so that :class:`repro.nn.layers.Conv2D` can lower a batch
in bounded sample chunks — one column slice of the matrix at a time, as
cuDNN tiles the lowered matrix instead of materialising it whole.
"""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool window."""
    return (size + 2 * pad - kernel) // stride + 1


def conv_out_hw(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> tuple[int, int]:
    """``(OH, OW)`` of a conv/pool window over an ``h x w`` input; a
    ``ValueError`` when the kernel does not fit in the padded input."""
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, pad={pad}) too large for input {h}x{w}"
        )
    return oh, ow


def unfold(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into K-major columns (C*kh*kw, N*OH*OW).

    Row ``(c, i, j)`` holds entry ``(i, j)`` of every receptive field of
    channel ``c``, so the fill is ``kh*kw`` slab copies out of a zero-padded
    channel-major copy of the input, and a convolution is ``W2d @ cols``.
    ``x`` may have any strides; a channel-major one (``x.transpose(1, 0, 2,
    3)`` contiguous, what :class:`repro.nn.layers.Conv2D` returns) is copied
    into the padded buffer run by run.  ``out``, if given, receives the
    columns and is returned: a ``(C*kh*kw, N*OH*OW)`` array of any strides
    (another shape is a ``ValueError``), such as a column slice of one
    matrix, so that ``Conv2D`` can unfold a batch chunk by chunk into one
    kept array.
    """
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, kh, kw, stride, pad)
    if out is None:
        out = np.empty((c * kh * kw, n * oh * ow), dtype=x.dtype)
    elif out.shape != (c * kh * kw, n * oh * ow):
        raise ValueError(f"out has shape {out.shape}, columns are {(c * kh * kw, n * oh * ow)}")
    # Only splits each axis, so a view whatever out's strides: never a copy
    # the fills would go into instead of out.
    cols = out.reshape(c, kh, kw, n, oh, ow)
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return out


def fold(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of :func:`unfold`: accumulate K-major columns onto an
    (N, C, H, W) image, overlaps summed in row-major ``(i, j)`` order.

    The sums land in a zero-padded channel-major ``(C, N, H+2p, W+2p)``
    buffer — ``out`` if given (added into, so the caller zeroes it; a
    sample slice of one buffer lets ``Conv2D`` fold chunk by chunk) — and
    the result is its unpadded NCHW-shaped view, channel-major in memory.
    """
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    cols6 = cols.reshape(c, kh, kw, n, oh, ow)
    if out is None:
        out = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[:, i, j]
    return out[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3)


def leaky_relu(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    """Element-wise LeakyReLU as ``max(x, alpha * x)``, which needs a slope
    in ``[0, 1]``.  (At ``alpha == 0`` an input of ``+inf`` gives NaN.)"""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("leaky_relu slope alpha must be in [0, 1]")
    return np.maximum(x, alpha * x)


def leaky_relu_grad(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    """Derivative of LeakyReLU w.r.t. its input, evaluated at ``x``, in
    ``x``'s float dtype (a float64 mask would promote a float32 backward)."""
    dtype = np.result_type(x, 1.0)
    return np.where(x >= 0, dtype.type(1.0), dtype.type(alpha))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    Branch-free formulation: ``exp(-|x|)`` never overflows, and both the
    positive form ``1 / (1 + exp(-|x|))`` and the negative form
    ``exp(-|x|) / (1 + exp(-|x|))`` are exact for their half-line, so a
    single ``where`` selects the right one — one transcendental pass, no
    fancy-indexing scatter/gather.
    """
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
