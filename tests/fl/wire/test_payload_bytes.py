"""Wire payload bytes: the a-priori count is the serialized length.

Hypothesis sweeps every codec x dtype x dim in [1, 3 * CHUNK + 1] (so
payloads span one to four quantization chunks) x top-k fraction: the
reference serializer (``reference_payload.py``) writes exactly
``payload_nbytes`` bytes, and ``roundtrip`` decodes what those bytes
carry, bit for bit.  The quantizer's chunk-wise rewrite is checked
against the column-based pair it replaced (``reference_quant.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.wire.codecs import (
    CHUNK,
    HEADER_NBYTES,
    WIRE_CODECS,
    _dequantize,
    _quantize,
    payload_nbytes,
    roundtrip,
)

from tests.fl.wire import reference_payload, reference_quant

DTYPES = ("float32", "float64")


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(WIRE_CODECS),
    dtype=st.sampled_from(DTYPES),
    dim=st.integers(1, 3 * CHUNK + 1),
    seed=st.integers(0, 2**16),
    topk_frac=st.floats(0.001, 1.0),
)
def test_count_is_the_serialized_length(name, dtype, dim, seed, topk_frac):
    delta = np.random.default_rng(seed).standard_normal(dim).astype(dtype)
    blob, sent = reference_payload.serialize(
        name, delta, np.random.default_rng(seed + 1), topk_frac)
    assert len(blob) == payload_nbytes(name, dim, np.dtype(dtype), topk_frac)
    got = reference_payload.densify(
        *roundtrip(name, delta, np.random.default_rng(seed + 1), topk_frac), dim)
    assert got.dtype == sent.dtype
    np.testing.assert_array_equal(got, sent)


def test_header_size_matches_its_layout():
    assert HEADER_NBYTES == reference_payload.HEADER.size


@pytest.mark.parametrize("name, codec_id, bits", [
    ("dense", 0, 0), ("qsgd4", 1, 4), ("qsgd8", 1, 8), ("topk", 2, 0),
    ("topk+qsgd4", 3, 4), ("topk+qsgd8", 3, 8),
])
def test_header_codec_id_and_bits_are_pinned(name, codec_id, bits):
    delta = np.random.default_rng(0).standard_normal(64).astype(np.float32)
    blob, _ = reference_payload.serialize(name, delta, np.random.default_rng(1), 0.05)
    assert (blob[0], blob[1]) == (codec_id, bits)


class TestNibblePacking:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 4097])
    def test_pack_unpack_identity(self, n):
        q = np.random.default_rng(n).integers(-7, 8, size=n).astype(np.int8)
        packed = reference_payload.pack_nibbles(q)
        np.testing.assert_array_equal(reference_payload.unpack_nibbles(packed, n), q)

    def test_packed_size_halves(self):
        assert reference_payload.pack_nibbles(np.ones(1000, dtype=np.int8)).nbytes == 500


class TestQuantizerMatchesColumnForm:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 6570, 3 * CHUNK])
    @pytest.mark.parametrize("bits", [4, 8])
    def test_bit_identical(self, dtype, n, bits):
        values = np.random.default_rng(n).standard_normal(n).astype(dtype)
        if n > CHUNK:
            values[:CHUNK] = 0.0           # an all-zero chunk
        if n >= 2 * CHUNK:
            values[CHUNK + 5] = np.nan     # a NaN chunk
        got = _quantize(values, bits, CHUNK, np.random.default_rng(9))
        want = reference_quant.quantize(values, bits, CHUNK, np.random.default_rng(9))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        out = _dequantize(*got, bits, CHUNK, np.dtype(dtype))
        ref = reference_quant.dequantize(*want, bits, CHUNK, np.dtype(dtype))
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)
