"""The serialized wire payload, written byte for byte.

No transport in the program moves payload bytes, so the program only
counts them (``repro.fl.wire.codecs.payload_nbytes``).  This serializer
is the reference that count is checked against: a 24-byte header
(struct ``"<BBBBIQQ"``: codec id, quant bits, dtype code, index width in
bytes or 0 when not sparse, chunk size or 0 when not quantized, model
dimension, kept-coordinate count), then the kept indices, the float32
chunk scales, and the levels (int8, or two offset-8 nibbles per byte
for 4 bits) or the raw values.  It encodes with the program's own
selection and quantizer and returns the dense delta its bytes decode
to, so a test can also check that ``roundtrip`` decodes what was sent.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.fl.wire.codecs import CHUNK, _dequantize, _quantize, topk_indices

HEADER = struct.Struct("<BBBBIQQ")
# The wire format outlives the spellings: each codec family writes this
# id into the header's first byte.
CODEC_IDS = {"dense": 0, "qsgd": 1, "topk": 2, "topk+qsgd": 3}
DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def pack_nibbles(q: np.ndarray) -> np.ndarray:
    """Pack int8 levels in [-7, 7] two-per-byte (offset-8 nibbles)."""
    u = (q.astype(np.int16) + 8).astype(np.uint8)
    if u.size % 2:
        u = np.concatenate([u, np.zeros(1, dtype=np.uint8)])
    return (u[0::2] << 4) | u[1::2]


def unpack_nibbles(packed: np.ndarray, n: int) -> np.ndarray:
    u = np.empty(packed.size * 2, dtype=np.uint8)
    u[0::2] = packed >> 4
    u[1::2] = packed & 0x0F
    return (u[:n].astype(np.int16) - 8).astype(np.int8)


def densify(indices, values: np.ndarray, dim: int) -> np.ndarray:
    """The dense delta ``values`` at ``indices`` stands for (every
    coordinate when ``indices`` is None), as ``roundtrip`` returns them."""
    if indices is None:
        return values
    out = np.zeros(dim, dtype=values.dtype)
    out[indices] = values
    return out


def serialize(
    codec: str, delta: np.ndarray, rng, topk_frac: float
) -> tuple[bytes, np.ndarray]:
    """``(payload bytes, decoded dense delta)`` for ``delta`` under ``codec``."""
    dim = delta.shape[0]
    bits = int(codec[-1]) if "qsgd" in codec else 0
    sparse = codec.startswith("topk")
    family = codec.rstrip("48")
    idx_dtype = np.uint32 if dim <= 0xFFFFFFFF else np.uint64
    indices, values = None, delta
    if sparse:
        k = max(1, min(dim, int(round(topk_frac * dim))))
        indices = topk_indices(delta, k)
        values = delta[indices]
    header = HEADER.pack(
        CODEC_IDS[family], bits, DTYPE_CODES[delta.dtype],
        np.dtype(idx_dtype).itemsize if sparse else 0, CHUNK if bits else 0,
        dim, values.shape[0],
    )
    parts = [header]
    if sparse:
        parts.append(indices.astype(idx_dtype).tobytes())
    if bits:
        q, scales = _quantize(values, bits, CHUNK, rng)
        parts.append(scales.tobytes())
        parts.append((pack_nibbles(q) if bits == 4 else q).tobytes())
        values = _dequantize(q, scales, bits, CHUNK, delta.dtype)
    else:
        parts.append(np.ascontiguousarray(values).tobytes())
    return b"".join(parts), densify(indices, values, dim)
