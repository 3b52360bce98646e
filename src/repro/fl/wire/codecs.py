"""Wire codecs: one-pass compression of flat delta arenas.

A codec maps a client's *delta* (trained weights minus the weights it
was dispatched against, one contiguous arena vector) to what the server
decodes from it, and has an exact payload byte size.  Each of the six
names in :data:`WIRE_CODECS` is one branch of two functions,
:func:`payload_nbytes` and :func:`roundtrip`, over the constants below:

* ``dense`` — float32/float64 passthrough; the byte-accounting baseline.
* ``qsgd8`` / ``qsgd4`` — QSGD-style stochastic quantization to signed
  8/4-bit levels with one float32 max-abs scale per :data:`CHUNK`
  coordinates.  Rounding is stochastic (unbiased in expectation) and
  consumes exactly one vectorized uniform draw per coordinate from the
  caller's ``STREAM_WIRE`` generator.
* ``topk`` — magnitude sparsification keeping ``round(frac * dim)``
  coordinates, selected with one O(d) ``argpartition`` pass.
* ``topk+qsgd{8,4}`` — the composition: sparsify, then quantize the
  kept values (indices ride uncompressed).

The serialized payload is a :data:`HEADER_NBYTES`-byte header (codec id,
quant bits, dtype code and index width as four bytes, the chunk size as
a uint32, the model dimension and the kept-coordinate count as uint64s),
then the kept indices (uint32, or uint64 past 2**32 coordinates), the
float32 chunk scales, and the levels (one int8 each, or two 4-bit levels
per byte) or the raw values.  No transport in this program moves the
bytes, so only their count is computed here; the serializer that checks
it lives with the tests.  The count is a pure function of
``(codec, dim, dtype, topk_frac)`` — payload sizes are known *before*
encoding, which is what lets the async engine charge bandwidth-accurate
upload time at dispatch.
"""

from __future__ import annotations

import math

import numpy as np

# Accepted codec names (the config vocabulary); a quantizing codec names
# its bit width.
WIRE_CODECS = ("dense", "topk", "qsgd4", "qsgd8", "topk+qsgd4", "topk+qsgd8")
QUANT_BITS = (4, 8)
CHUNK = 4096          # coordinates per float32 quantization scale
HEADER_NBYTES = 24    # struct "<BBBBIQQ", laid out in the module doc


def _bits(codec: str) -> int:
    """Quant bit width a codec name spells (0 when it does not quantize)."""
    if codec not in WIRE_CODECS:
        raise ValueError(f"codec must be one of {WIRE_CODECS}, got {codec!r}")
    return int(codec[-1]) if "qsgd" in codec else 0


def _kept(codec: str, dim: int, topk_frac: float) -> int:
    """Transmitted coordinates for a ``dim``-sized arena (== dim if dense)."""
    if codec.startswith("topk"):
        return max(1, min(dim, int(round(topk_frac * dim))))
    return dim


def _index_nbytes(dim: int) -> int:
    """Bytes per sparse index: uint32 covers any realistic arena."""
    return 4 if dim <= 0xFFFFFFFF else 8


def _n_chunks(n: int) -> int:
    return max(1, math.ceil(n / CHUNK)) if n else 0


def payload_nbytes(codec: str, dim: int, dtype, topk_frac: float = 0.01) -> int:
    """Exact serialized upload size, header included — a function of the
    arena shape, never of its contents (known before encoding)."""
    bits = _bits(codec)
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"wire codecs carry float32/float64 arenas, got {dtype.name}")
    n = _kept(codec, dim, topk_frac)
    nbytes = HEADER_NBYTES
    if codec.startswith("topk"):
        nbytes += n * _index_nbytes(dim)
    if bits:
        return nbytes + 4 * _n_chunks(n) + (n if bits == 8 else (n + 1) // 2)
    return nbytes + n * dtype.itemsize


def roundtrip(
    codec: str,
    delta: np.ndarray,
    rng: np.random.Generator | None,
    topk_frac: float = 0.01,
) -> tuple[np.ndarray | None, np.ndarray]:
    """What the server decodes from ``delta`` sent under ``codec``.

    Returns ``(indices, values)``: the decoded delta is ``values`` at the
    sorted ``indices`` and zero elsewhere, or ``values`` at every
    coordinate when ``indices`` is None (``dense`` hands back ``delta``
    itself).  ``values`` has ``delta``'s dtype.  A quantizing codec
    rounds with draws from ``rng``; the others never touch it.
    """
    bits = _bits(codec)
    indices, values = None, delta
    if codec.startswith("topk"):
        indices = topk_indices(delta, _kept(codec, delta.shape[0], topk_frac))
        values = delta[indices]
    if bits:
        q, scales = _quantize(values, bits, CHUNK, rng)
        values = _dequantize(q, scales, bits, CHUNK, delta.dtype)
    return indices, values


def topk_indices(delta: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the k largest-magnitude coordinates, O(d)."""
    k = min(k, delta.shape[0])
    top = np.argpartition(-np.abs(delta), k - 1)[:k]
    return np.sort(top).astype(np.int64)


def _chunkwise(
    op, src: np.ndarray, col: np.ndarray, chunk: int, out: np.ndarray
) -> np.ndarray:
    """``out = op(src, col[i])`` over each ``chunk``-coordinate run ``i``.

    Whole chunks broadcast ``col`` over a ``(k, chunk)`` view and the
    ragged tail takes the last entry, so the per-coordinate column is
    never built.  ``out`` must be contiguous (it may be ``src``).
    """
    full = src.shape[0] - src.shape[0] % chunk
    k = full // chunk
    op(src[:full].reshape(k, chunk), col[:k, None], out=out[:full].reshape(k, chunk))
    if full < src.shape[0]:
        op(src[full:], col[k], out=out[full:])
    return out


def _quantize(
    values: np.ndarray, bits: int, chunk: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Stochastically round ``values`` to signed ``bits``-bit levels.

    Returns ``(q int8, scales float32)`` with one max-abs scale per
    ``chunk`` coordinates.  The rounding draw is one vectorized uniform
    per coordinate: q = floor(v/s * L) + Bernoulli(frac), clipped to
    [-L, L] — unbiased given the float32-rounded scale the decoder will
    also use.  A chunk whose scale is zero or NaN quantizes to zeros.
    """
    n = values.shape[0]
    levels = (1 << (bits - 1)) - 1
    starts = np.arange(0, n, chunk)
    scales = np.maximum.reduceat(np.abs(values), starts).astype(np.float32)
    dead = ~(scales > 0)
    safe = np.where(dead, 1, scales).astype(values.dtype)
    normalized = _chunkwise(np.divide, values, safe, chunk, np.empty_like(values))
    normalized *= levels
    q = np.floor(normalized)
    q += rng.random(n) < (normalized - q)
    np.clip(q, -levels, levels, out=q)
    for i in np.flatnonzero(dead):
        q[i * chunk : (i + 1) * chunk] = 0
    return q.astype(np.int8), scales


def _dequantize(
    q: np.ndarray, scales: np.ndarray, bits: int, chunk: int, dtype
) -> np.ndarray:
    levels = (1 << (bits - 1)) - 1
    out = q.astype(dtype)
    _chunkwise(np.multiply, out, scales.astype(dtype), chunk, out)
    out /= levels
    return out
