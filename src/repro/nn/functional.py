"""Stateless numerical kernels shared by layers and losses.

These are the hot paths of the substrate, so everything is expressed as
batched NumPy array operations (no per-sample Python loops).  Convolutions
use the K-major lowering (Chetlur et al., cuDNN): :func:`unfold` lays the
receptive fields out as a ``(C*kh*kw, N*OH*OW)`` matrix so the convolution
is a single GEMM each way, and :func:`fold` is its adjoint.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtypes import get_default_dtype


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a ``(n, num_classes)`` one-hot encoding in the compute dtype."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool window."""
    return (size + 2 * pad - kernel) // stride + 1


def unfold(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into K-major columns (C*kh*kw, N*OH*OW).

    Row ``(c, i, j)`` holds entry ``(i, j)`` of every receptive field of
    channel ``c``, so the fill is ``kh*kw`` slab copies out of a zero-padded
    channel-major copy of the input, and a convolution is ``W2d @ cols``.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, pad={pad}) too large for input {h}x{w}"
        )
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * kh * kw, n * oh * ow)


def fold(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`unfold`: accumulate K-major columns onto an
    (N, C, H, W) image, overlaps summed in row-major ``(i, j)`` order."""
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    cols6 = cols.reshape(c, kh, kw, n, oh, ow)
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


def softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable softplus ``log(1 + e^x)``."""
    return np.logaddexp(0.0, x)


def softplus_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of softplus = sigmoid(x)."""
    return sigmoid(x)


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


def clip_grad_norm(grads: np.ndarray | list[np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place so their global L2 norm is at most ``max_norm``.

    ``grads`` may be a single flat array — e.g. a model's gradient arena
    (:meth:`repro.nn.model.Sequential.flat_grads`), where the norm is one
    BLAS dot and the clip one in-place scale — or a list of arrays, where
    per-array dots avoid the ``g * g`` temporaries the old implementation
    allocated.  Returns the pre-clip norm (useful for logging/diagnostics).
    """
    if isinstance(grads, np.ndarray):
        grads = [grads]
    total = 0.0
    for g in grads:
        flat = np.ascontiguousarray(g).reshape(-1)
        total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
