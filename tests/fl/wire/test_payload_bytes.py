"""Wire payload bytes: the serialized form round-trips, and the parser
rejects every header no encoder writes.

Hypothesis sweeps every codec x dtype x dim in [1, 3 * chunk] (a small
chunk, so payloads span one, two and three quantization chunks): the
parsed payload equals the encoded one field by field, its length is the
codec's a-priori ``payload_nbytes``, and a truncated or padded blob is a
``ValueError``.  The corruption cases flip one header field each and
expect a ``ValueError`` naming it.  The quantizer's chunk-wise rewrite is
checked against the column-based pair it replaced
(``reference_quant.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.wire.codecs import (
    HEADER_NBYTES,
    WIRE_CODECS,
    _dequantize,
    _quantize,
    get_codec,
    payload_from_bytes,
)

from tests.fl.wire import reference_quant

CHUNK = 16
DTYPES = ("float32", "float64")
ARRAY_FIELDS = ("indices", "values", "qvalues", "scales")
# Byte offsets of the header fields (struct "<BBBBIQQ").
BITS, DTYPE, CHUNK_AT, DIM = 1, 2, 4, 8


def encode(name, dtype, dim, seed=0):
    codec = get_codec(name, topk_frac=0.3, chunk=CHUNK)
    delta = np.random.default_rng(seed).standard_normal(dim).astype(dtype)
    return codec, codec.encode(delta, rng=np.random.default_rng(seed + 1))


def assert_same_payload(got, want):
    for field in ("codec", "dim", "dtype", "nbytes", "bits", "chunk"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ARRAY_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert a.dtype == b.dtype, field
            np.testing.assert_array_equal(a, b, err_msg=field)


def patched(blob, offset, fmt, value):
    import struct

    out = bytearray(blob)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(WIRE_CODECS),
    dtype=st.sampled_from(DTYPES),
    dim=st.integers(1, 3 * CHUNK),
    seed=st.integers(0, 2**16),
    cut=st.floats(0, 1, exclude_max=True),
)
def test_round_trip_and_byte_accounting(name, dtype, dim, seed, cut):
    codec, payload = encode(name, dtype, dim, seed)
    blob = payload.to_bytes()
    assert len(blob) == payload.nbytes == codec.payload_nbytes(dim, np.dtype(dtype))
    assert_same_payload(payload_from_bytes(blob), payload)
    with pytest.raises(ValueError):
        payload_from_bytes(blob[: int(cut * len(blob))])
    with pytest.raises(ValueError):
        payload_from_bytes(blob + b"\x00")


@pytest.mark.parametrize("name", WIRE_CODECS)
class TestCorruptHeaders:
    def blob(self, name):
        return encode(name, "float32", 2 * CHUNK + 3)[1].to_bytes()

    def test_unknown_dtype_code(self, name):
        with pytest.raises(ValueError, match="dtype"):
            payload_from_bytes(patched(self.blob(name), DTYPE, "<B", 7))

    def test_bits_outside_the_codec(self, name):
        for bits in (3, 16):
            with pytest.raises(ValueError, match="bits"):
                payload_from_bytes(patched(self.blob(name), BITS, "<B", bits))

    def test_chunk_contradicting_the_codec(self, name):
        # Zero on a quantized codec (it divides by it), non-zero elsewhere.
        chunk = 0 if "qsgd" in name else CHUNK
        with pytest.raises(ValueError, match="chunk"):
            payload_from_bytes(patched(self.blob(name), CHUNK_AT, "<I", chunk))

    def test_dim_contradicting_nnz(self, name):
        _, payload = encode(name, "float32", 2 * CHUNK + 3)
        # Dense and qsgd carry every coordinate (nnz == dim); sparse
        # payloads may not keep more coordinates than the model has.
        wrong = [payload.nnz - 1] if name.startswith("topk") else [
            payload.dim - 1, payload.dim + 1]
        for dim in wrong:
            with pytest.raises(ValueError, match="nnz"):
                payload_from_bytes(patched(payload.to_bytes(), DIM, "<Q", dim))

    def test_truncated_header(self, name):
        with pytest.raises(ValueError):
            payload_from_bytes(self.blob(name)[: HEADER_NBYTES - 1])


class TestQuantizerMatchesColumnForm:
    CHUNK = 4096

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 6570, 3 * CHUNK])
    @pytest.mark.parametrize("bits", [4, 8])
    def test_bit_identical(self, dtype, n, bits):
        values = np.random.default_rng(n).standard_normal(n).astype(dtype)
        if n > self.CHUNK:
            values[: self.CHUNK] = 0.0           # an all-zero chunk
        if n >= 2 * self.CHUNK:
            values[self.CHUNK + 5] = np.nan      # a NaN chunk
        got = _quantize(values, bits, self.CHUNK, np.random.default_rng(9))
        want = reference_quant.quantize(values, bits, self.CHUNK, np.random.default_rng(9))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        out = _dequantize(*got, bits, self.CHUNK, np.dtype(dtype))
        ref = reference_quant.dequantize(*want, bits, self.CHUNK, np.dtype(dtype))
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)
