"""The quantizer pair as it stood before the chunk-wise rewrite: a
per-coordinate scale column (``np.repeat``) and two ``np.where`` passes.
Kept as the bit-for-bit oracle for ``repro.fl.wire.codecs._quantize`` /
``_dequantize``."""

from __future__ import annotations

import numpy as np


def quantize(values, bits, chunk, rng):
    n = values.shape[0]
    levels = (1 << (bits - 1)) - 1
    starts = np.arange(0, n, chunk)
    scales = np.maximum.reduceat(np.abs(values), starts).astype(np.float32)
    per = np.repeat(scales, chunk)[:n].astype(values.dtype)
    safe = np.where(per > 0, per, 1.0)
    normalized = values / safe * levels
    q = np.floor(normalized)
    q += rng.random(n) < (normalized - q)
    q = np.clip(q, -levels, levels)
    return np.where(per > 0, q, 0.0).astype(np.int8), scales


def dequantize(q, scales, bits, chunk, dtype):
    levels = (1 << (bits - 1)) - 1
    per = np.repeat(scales, chunk)[: q.shape[0]].astype(dtype)
    return q.astype(dtype) * per / levels
