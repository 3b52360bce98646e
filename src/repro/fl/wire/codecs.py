"""Wire codecs: one-pass compression of flat delta arenas.

Every codec maps a client's *delta* (trained weights minus the weights
it was dispatched against, one contiguous arena vector) to a
:class:`WirePayload` with an exact serialized byte size, and back.  The
four families:

* ``dense`` — float32/float64 passthrough; the byte-accounting baseline.
* ``qsgd8`` / ``qsgd4`` — QSGD-style stochastic quantization to signed
  8/4-bit levels with one float32 max-abs scale per 4096-coordinate
  chunk.  Rounding is stochastic (unbiased in expectation) and consumes
  exactly one vectorized uniform draw per coordinate from the caller's
  ``STREAM_WIRE`` generator.
* ``topk`` — magnitude sparsification keeping ``round(frac * dim)``
  coordinates, selected with one O(d) ``argpartition`` pass.
* ``topk+qsgd{8,4}`` — the composition: sparsify, then quantize the
  kept values (indices ride uncompressed).

Codecs never loop over model layers: the arena refactor made every
model one flat buffer, and every operation here is a single vectorized
pass over it.  ``payload_nbytes`` is a pure function of ``(dim, dtype)``
— payload sizes are known *before* encoding, which is what lets the
async engine charge bandwidth-accurate upload time at dispatch.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# Serialized payload header: codec id, quant bits, dtype code, index
# width (bytes, 0 when the codec is not sparse), chunk size, full model
# dimension, kept-coordinate count (== dim when not sparse).
_HEADER = struct.Struct("<BBBBIQQ")
HEADER_NBYTES = _HEADER.size

_CODEC_IDS = {"dense": 0, "qsgd": 1, "topk": 2, "topk+qsgd": 3}
_CODEC_NAMES = {v: k for k, v in _CODEC_IDS.items()}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}

# Accepted codec names (the config vocabulary); a quantizing codec names
# its bit width.
WIRE_CODECS = ("dense", "topk", "qsgd4", "qsgd8", "topk+qsgd4", "topk+qsgd8")
QUANT_BITS = (4, 8)
DEFAULT_CHUNK = 4096


def _dtype_code(dtype) -> int:
    code = _DTYPE_CODES.get(np.dtype(dtype))
    if code is None:
        raise ValueError(f"wire codecs carry float32/float64 arenas, got {np.dtype(dtype).name}")
    return code


def _index_nbytes(dim: int) -> int:
    """Bytes per sparse index: uint32 covers any realistic arena."""
    return 4 if dim <= 0xFFFFFFFF else 8


def _index_dtype(dim: int):
    return np.uint32 if dim <= 0xFFFFFFFF else np.uint64


def topk_indices(delta: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the k largest-magnitude coordinates, O(d)."""
    k = min(k, delta.shape[0])
    top = np.argpartition(-np.abs(delta), k - 1)[:k]
    return np.sort(top).astype(np.int64)


def _pack_nibbles(q: np.ndarray) -> np.ndarray:
    """Pack int8 levels in [-7, 7] two-per-byte (offset-8 nibbles)."""
    u = (q.astype(np.int16) + 8).astype(np.uint8)
    if u.size % 2:
        u = np.concatenate([u, np.zeros(1, dtype=np.uint8)])
    return (u[0::2] << 4) | u[1::2]


def _unpack_nibbles(packed: np.ndarray, n: int) -> np.ndarray:
    u = np.empty(packed.size * 2, dtype=np.uint8)
    u[0::2] = packed >> 4
    u[1::2] = packed & 0x0F
    return (u[:n].astype(np.int16) - 8).astype(np.int8)


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


def _n_chunks(n: int, chunk: int) -> int:
    return max(1, math.ceil(n / chunk)) if n else 0


@dataclass
class WirePayload:
    """One encoded client→server upload.

    ``nbytes`` is the exact serialized size: ``len(payload.to_bytes())
    == payload.nbytes`` always, and equals the owning codec's
    ``payload_nbytes(dim, dtype)``.  The in-memory form keeps arrays
    unpacked (int8 levels, int64 indices) so the hot path never pays
    pack/serialize costs; ``to_bytes``/``payload_from_bytes`` exist for
    byte-accuracy verification and real transports.
    """

    codec: str           # family name: dense | qsgd | topk | topk+qsgd
    dim: int             # full arena dimension
    dtype: np.dtype      # substrate dtype the decode must reproduce
    nbytes: int          # exact serialized size, header included
    bits: int = 0        # quant bit width (0 = unquantized)
    chunk: int = 0       # quant chunk size (0 = unquantized)
    indices: np.ndarray | None = None  # int64 sorted (sparse codecs)
    values: np.ndarray | None = None   # raw values (dense / topk)
    qvalues: np.ndarray | None = None  # int8 levels (quantized codecs)
    scales: np.ndarray | None = None   # float32 per-chunk scales

    @property
    def nnz(self) -> int:
        """Transmitted coordinate count (== dim for non-sparse codecs)."""
        if self.indices is not None:
            return int(self.indices.size)
        return self.dim

    def to_bytes(self) -> bytes:
        """Serialize exactly ``nbytes`` bytes (header + arrays)."""
        idx_nbytes = _index_nbytes(self.dim) if self.indices is not None else 0
        header = _HEADER.pack(
            _CODEC_IDS[self.codec], self.bits, _dtype_code(self.dtype),
            idx_nbytes, self.chunk, self.dim, self.nnz,
        )
        parts = [header]
        if self.indices is not None:
            parts.append(self.indices.astype(_index_dtype(self.dim)).tobytes())
        if self.scales is not None:
            parts.append(self.scales.astype(np.float32).tobytes())
        if self.qvalues is not None:
            if self.bits == 4:
                parts.append(_pack_nibbles(self.qvalues).tobytes())
            else:
                parts.append(self.qvalues.astype(np.int8).tobytes())
        if self.values is not None:
            parts.append(np.ascontiguousarray(self.values).tobytes())
        blob = b"".join(parts)
        if len(blob) != self.nbytes:
            raise ValueError(
                f"payload accounting bug: serialized {len(blob)} bytes, "
                f"declared {self.nbytes}"
            )
        return blob


def payload_from_bytes(blob: bytes) -> WirePayload:
    """Parse a :meth:`WirePayload.to_bytes` blob back into a payload.

    Raises ``ValueError`` naming the field for a header no encoder writes
    (unknown codec or dtype code, bit width, chunk, index width, or a
    coordinate count that contradicts the codec) and for a body shorter
    or longer than the header declares.
    """
    if len(blob) < HEADER_NBYTES:
        raise ValueError("wire payload shorter than its header")
    codec_id, bits, dtype_code, idx_nbytes, chunk, dim, nnz = _HEADER.unpack(
        blob[:HEADER_NBYTES]
    )
    if codec_id not in _CODEC_NAMES:
        raise ValueError(f"unknown wire codec id {codec_id}")
    codec = _CODEC_NAMES[codec_id]
    if dtype_code not in _DTYPE_NAMES:
        raise ValueError(f"unknown wire dtype code {dtype_code}")
    dtype = _DTYPE_NAMES[dtype_code]
    quantized = codec in ("qsgd", "topk+qsgd")
    sparse = codec in ("topk", "topk+qsgd")
    if bits not in (QUANT_BITS if quantized else (0,)):
        raise ValueError(f"wire bits {bits} is invalid for codec {codec!r}")
    if (chunk > 0) != quantized:
        raise ValueError(f"wire chunk {chunk} is invalid for codec {codec!r}")
    want_idx = _index_nbytes(dim) if sparse else 0
    if idx_nbytes != want_idx:
        raise ValueError(
            f"wire index width {idx_nbytes} is invalid for codec {codec!r} "
            f"at dim {dim} (expected {want_idx})"
        )
    if nnz > dim or (not sparse and nnz != dim):
        raise ValueError(
            f"wire nnz {nnz} contradicts dim {dim} for codec {codec!r}"
        )
    if quantized:
        n_chunks = _n_chunks(nnz, chunk)
        body = 4 * n_chunks + (nnz if bits == 8 else (nnz + 1) // 2)
    else:
        body = nnz * dtype.itemsize
    declared = HEADER_NBYTES + nnz * idx_nbytes + body
    if declared != len(blob):
        raise ValueError(
            f"wire payload length mismatch: header declares {declared} "
            f"bytes, blob has {len(blob)}"
        )
    offset = HEADER_NBYTES
    indices = values = qvalues = scales = None
    if sparse:
        indices = np.frombuffer(
            blob, dtype=_index_dtype(dim), count=nnz, offset=offset
        ).astype(np.int64)
        offset += nnz * idx_nbytes
    if quantized:
        scales = np.frombuffer(blob, dtype=np.float32, count=n_chunks, offset=offset)
        offset += 4 * n_chunks
        if bits == 4:
            packed = np.frombuffer(
                blob, dtype=np.uint8, count=(nnz + 1) // 2, offset=offset
            )
            qvalues = _unpack_nibbles(packed, nnz)
        else:
            qvalues = np.frombuffer(blob, dtype=np.int8, count=nnz, offset=offset)
    else:
        values = np.frombuffer(blob, dtype=dtype, count=nnz, offset=offset)
    return WirePayload(
        codec=codec, dim=dim, dtype=dtype, nbytes=len(blob), bits=bits,
        chunk=chunk, indices=indices, values=values, qvalues=qvalues,
        scales=scales,
    )


class Codec:
    """One-pass encode/decode of a flat delta arena."""

    name: str = "base"
    #: True when encoding draws from the STREAM_WIRE generator.
    stochastic: bool = False

    def k_for(self, dim: int) -> int:
        """Kept coordinates for a ``dim``-sized arena (== dim if dense)."""
        return dim

    def payload_nbytes(self, dim: int, dtype) -> int:
        """Exact serialized upload size — a pure function of the arena
        shape, never of its contents (known before encoding)."""
        raise NotImplementedError

    def encode(
        self, delta: np.ndarray, rng: np.random.Generator | None = None
    ) -> WirePayload:
        raise NotImplementedError

    def decode(self, payload: WirePayload) -> np.ndarray:
        raise NotImplementedError


class DenseCodec(Codec):
    """Float32/float64 passthrough — lossless, the accounting baseline."""

    name = "dense"

    def payload_nbytes(self, dim: int, dtype) -> int:
        _dtype_code(dtype)
        return HEADER_NBYTES + dim * np.dtype(dtype).itemsize

    def encode(self, delta, rng=None):
        return WirePayload(
            codec="dense", dim=delta.shape[0], dtype=delta.dtype,
            nbytes=self.payload_nbytes(delta.shape[0], delta.dtype),
            values=np.array(delta, copy=True),
        )

    def decode(self, payload):
        return np.asarray(payload.values, dtype=payload.dtype).copy()


class QSGDCodec(Codec):
    """Stochastic quantization to signed ``bits``-bit levels, chunked."""

    stochastic = True

    def __init__(self, bits: int = 8, chunk: int = DEFAULT_CHUNK) -> None:
        if bits not in QUANT_BITS:
            raise ValueError(f"quant bits must be one of {QUANT_BITS}, got {bits}")
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self.bits = bits
        self.chunk = chunk
        self.name = f"qsgd{bits}"

    def payload_nbytes(self, dim: int, dtype) -> int:
        _dtype_code(dtype)
        body = dim if self.bits == 8 else (dim + 1) // 2
        return HEADER_NBYTES + 4 * _n_chunks(dim, self.chunk) + body

    def encode(self, delta, rng=None):
        if rng is None:
            raise ValueError(f"{self.name} rounds stochastically and needs an rng")
        q, scales = _quantize(delta, self.bits, self.chunk, rng)
        return WirePayload(
            codec="qsgd", dim=delta.shape[0], dtype=delta.dtype,
            nbytes=self.payload_nbytes(delta.shape[0], delta.dtype),
            bits=self.bits, chunk=self.chunk, qvalues=q, scales=scales,
        )

    def decode(self, payload):
        return _dequantize(
            payload.qvalues, payload.scales, payload.bits, payload.chunk,
            payload.dtype,
        )


class TopKCodec(Codec):
    """Magnitude sparsification: keep ``round(frac * dim)`` coordinates."""

    name = "topk"

    def __init__(self, frac: float = 0.01) -> None:
        if not 0.0 < frac <= 1.0:
            raise ValueError("topk frac must be in (0, 1]")
        self.frac = frac

    def k_for(self, dim: int) -> int:
        return max(1, min(dim, int(round(self.frac * dim))))

    def payload_nbytes(self, dim: int, dtype) -> int:
        k = self.k_for(dim)
        return HEADER_NBYTES + k * (_index_nbytes(dim) + np.dtype(dtype).itemsize)

    def encode(self, delta, rng=None):
        dim = delta.shape[0]
        idx = topk_indices(delta, self.k_for(dim))
        return WirePayload(
            codec="topk", dim=dim, dtype=delta.dtype,
            nbytes=self.payload_nbytes(dim, delta.dtype),
            indices=idx, values=delta[idx].copy(),
        )

    def decode(self, payload):
        out = np.zeros(payload.dim, dtype=payload.dtype)
        out[payload.indices] = payload.values
        return out


class TopKQSGDCodec(Codec):
    """Composition: sparsify to top-k, then quantize the kept values."""

    stochastic = True

    def __init__(
        self, frac: float = 0.01, bits: int = 8, chunk: int = DEFAULT_CHUNK
    ) -> None:
        self._topk = TopKCodec(frac)
        self._qsgd = QSGDCodec(bits=bits, chunk=chunk)
        self.frac = frac
        self.bits = bits
        self.chunk = chunk
        self.name = f"topk+qsgd{bits}"

    def k_for(self, dim: int) -> int:
        return self._topk.k_for(dim)

    def payload_nbytes(self, dim: int, dtype) -> int:
        _dtype_code(dtype)
        k = self.k_for(dim)
        body = k if self.bits == 8 else (k + 1) // 2
        return (
            HEADER_NBYTES + k * _index_nbytes(dim)
            + 4 * _n_chunks(k, self.chunk) + body
        )

    def encode(self, delta, rng=None):
        if rng is None:
            raise ValueError(f"{self.name} rounds stochastically and needs an rng")
        dim = delta.shape[0]
        idx = topk_indices(delta, self.k_for(dim))
        q, scales = _quantize(delta[idx], self.bits, self.chunk, rng)
        return WirePayload(
            codec="topk+qsgd", dim=dim, dtype=delta.dtype,
            nbytes=self.payload_nbytes(dim, delta.dtype),
            bits=self.bits, chunk=self.chunk, indices=idx, qvalues=q,
            scales=scales,
        )

    def decode(self, payload):
        out = np.zeros(payload.dim, dtype=payload.dtype)
        out[payload.indices] = _dequantize(
            payload.qvalues, payload.scales, payload.bits, payload.chunk,
            payload.dtype,
        )
        return out


def get_codec(
    name: str, topk_frac: float = 0.01, chunk: int = DEFAULT_CHUNK
) -> Codec:
    """Codec by config/CLI name; ``qsgd4`` / ``topk+qsgd8`` name their bits."""
    if name not in WIRE_CODECS:
        raise ValueError(f"codec must be one of {WIRE_CODECS}, got {name!r}")
    if name == "dense":
        return DenseCodec()
    if name == "topk":
        return TopKCodec(frac=topk_frac)
    bits = int(name[-1])
    if name.startswith("topk+"):
        return TopKQSGDCodec(frac=topk_frac, bits=bits, chunk=chunk)
    return QSGDCodec(bits=bits, chunk=chunk)
