"""The row-major im2col conv path, kept as the test reference.

``repro.nn.functional`` lowers convolutions K-major (``unfold`` / ``fold``,
columns of shape ``(C*kh*kw, N*OH*OW)``).  The path it replaced — ``im2col``
/ ``col2im`` with columns ``(N*OH*OW, C*kh*kw)`` and the ``Conv2D`` forward
and backward built on them — lives on here, unchanged, as the oracle:
``allclose`` for the conv layer (the GEMM reduction and the bias-gradient
sum run in another order), ``array_equal`` for overlapping max pooling.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv_out_size


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N*OH*OW, C*kh*kw)."""
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, pad={pad}) too large for input {h}x{w}"
        )
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    sn, sc, sh, sw = x.strides
    shape = (n, c, oh, ow, kh, kw)
    strides = (sn, sc, sh * stride, sw * stride, sh, sw)
    windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # (N, OH, OW, C, kh, kw) -> rows are receptive fields.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold columns back onto an image, accumulating overlaps (im2col adjoint)."""
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[
                :, :, :, :, i, j
            ]
    if pad > 0:
        out = out[:, :, pad : pad + h, pad : pad + w]
    return out


def conv_forward(x, weight, bias, stride, pad):
    """The old ``Conv2D.forward``: ``(out, cols)``; ``bias`` may be ``None``."""
    n, _, h, w = x.shape
    o, _, k, _ = weight.shape
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    cols = im2col(x, k, k, stride, pad)  # (N*OH*OW, C*k*k)
    out = cols @ weight.reshape(o, -1).T  # (N*OH*OW, O)
    if bias is not None:
        out += bias
    out = out.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(out), cols


def conv_backward(grad, cols, x_shape, weight, stride, pad):
    """The old ``Conv2D.backward``: ``(dW, db, dX)`` from the forward's ``cols``."""
    n, o, oh, ow = grad.shape
    k = weight.shape[2]
    gmat = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, o)  # (N*OH*OW, O)
    dw = (gmat.T @ cols).reshape(weight.shape)
    db = np.add.reduce(gmat, axis=0)
    gcols = gmat @ weight.reshape(o, -1)  # (N*OH*OW, C*k*k)
    return dw, db, col2im(gcols, x_shape, k, k, stride, pad)
