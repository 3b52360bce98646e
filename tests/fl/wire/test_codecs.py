"""Codec-level properties: round-trips, byte accounting, quantization.

Every codec must (1) declare its payload size before encoding and hit it
exactly at serialization, (2) survive a to_bytes/from_bytes round trip,
and (3) decode back into the substrate dtype it was fed.  The quantized
codecs additionally obey the per-chunk error bound scale/levels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.wire.codecs import (
    DEFAULT_CHUNK,
    HEADER_NBYTES,
    QUANT_BITS,
    WIRE_CODECS,
    DenseCodec,
    QSGDCodec,
    TopKCodec,
    TopKQSGDCodec,
    WirePayload,
    _pack_nibbles,
    _unpack_nibbles,
    get_codec,
    payload_from_bytes,
    topk_indices,
)

DIMS = [1, 7, 340, 6570]
DTYPES = ["float32", "float64"]


def _delta(dim, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(dim) * np.exp(rng.standard_normal(dim))).astype(dtype)


def _rng():
    return np.random.default_rng(123)


class TestByteAccounting:
    @pytest.mark.parametrize("name", WIRE_CODECS)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nbytes_exact(self, name, dim, dtype):
        codec = get_codec(name, topk_frac=0.05)
        delta = _delta(dim, dtype)
        payload = codec.encode(delta, rng=_rng())
        declared = codec.payload_nbytes(dim, np.dtype(dtype))
        assert payload.nbytes == declared
        assert len(payload.to_bytes()) == declared

    def test_nbytes_is_content_independent(self):
        codec = get_codec("topk+qsgd8", topk_frac=0.02)
        a = codec.encode(_delta(5000, "float32", seed=1), rng=_rng())
        b = codec.encode(np.zeros(5000, dtype=np.float32), rng=_rng())
        assert a.nbytes == b.nbytes == codec.payload_nbytes(5000, np.float32)

    def test_header_size(self):
        blob = DenseCodec().encode(_delta(3, "float64")).to_bytes()
        assert len(blob) == HEADER_NBYTES + 3 * 8

    def test_size_mismatch_raises(self):
        payload = DenseCodec().encode(_delta(8, "float32"))
        payload.nbytes += 1
        with pytest.raises(ValueError, match="accounting"):
            payload.to_bytes()


class TestRoundTrips:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dense_lossless(self, dim, dtype):
        delta = _delta(dim, dtype)
        codec = DenseCodec()
        out = codec.decode(codec.encode(delta))
        np.testing.assert_array_equal(out, delta)
        assert out.dtype == delta.dtype

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_topk_exact_on_kept_coords(self, dim, dtype):
        delta = _delta(dim, dtype)
        codec = TopKCodec(frac=0.1)
        payload = codec.encode(delta)
        out = codec.decode(payload)
        assert out.dtype == delta.dtype
        np.testing.assert_array_equal(out[payload.indices], delta[payload.indices])
        mask = np.ones(dim, dtype=bool)
        mask[payload.indices] = False
        assert not np.any(out[mask])

    def test_topk_keeps_largest_magnitudes(self):
        delta = np.array([0.1, -5.0, 0.2, 3.0, -0.05], dtype=np.float64)
        idx = topk_indices(delta, 2)
        assert sorted(idx.tolist()) == [1, 3]
        assert idx.tolist() == sorted(idx.tolist())  # sorted order

    @pytest.mark.parametrize("bits", QUANT_BITS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_qsgd_error_bound(self, bits, dtype):
        delta = _delta(6570, dtype)
        codec = QSGDCodec(bits=bits, chunk=DEFAULT_CHUNK)
        out = codec.decode(codec.encode(delta, rng=_rng()))
        assert out.dtype == delta.dtype
        levels = (1 << (bits - 1)) - 1
        n = delta.shape[0]
        starts = np.arange(0, n, DEFAULT_CHUNK)
        scales = np.maximum.reduceat(np.abs(delta), starts).astype(np.float32)
        per = np.repeat(scales, DEFAULT_CHUNK)[:n].astype(delta.dtype)
        # One quantization step per coordinate, plus float32-scale slack.
        bound = per / levels + np.abs(per) * 1e-6 + 1e-12
        assert np.all(np.abs(out - delta) <= bound)

    @pytest.mark.parametrize("name", ["qsgd8", "qsgd4", "topk+qsgd8", "topk+qsgd4"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_quantized_zero_delta_decodes_to_zero(self, name, dtype):
        codec = get_codec(name, topk_frac=0.05)
        out = codec.decode(codec.encode(np.zeros(1000, dtype), rng=_rng()))
        assert out.dtype == np.dtype(dtype)
        assert np.all(out == 0.0) and np.all(np.isfinite(out))

    def test_quantization_is_unbiased_in_expectation(self):
        delta = np.full(20000, 0.3, dtype=np.float64) * np.linspace(0.1, 1, 20000)
        codec = QSGDCodec(bits=8)
        outs = [
            codec.decode(codec.encode(delta, rng=np.random.default_rng(s)))
            for s in range(20)
        ]
        mean_err = np.abs(np.mean(outs, axis=0) - delta).mean()
        single_err = np.abs(outs[0] - delta).mean()
        assert mean_err < single_err / 2  # averaging shrinks the rounding noise

    @pytest.mark.parametrize("name", WIRE_CODECS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_serialize_parse_identity(self, name, dtype):
        codec = get_codec(name, topk_frac=0.05)
        delta = _delta(6570, dtype)
        payload = codec.encode(delta, rng=_rng())
        parsed = payload_from_bytes(payload.to_bytes())
        assert isinstance(parsed, WirePayload)
        assert (parsed.codec, parsed.dim, parsed.bits) == (
            payload.codec, payload.dim, payload.bits)
        assert parsed.dtype == np.dtype(payload.dtype)
        np.testing.assert_array_equal(codec.decode(parsed), codec.decode(payload))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            payload_from_bytes(b"\x00" * 4)
        blob = DenseCodec().encode(_delta(8, "float32")).to_bytes()
        with pytest.raises(ValueError):
            payload_from_bytes(blob + b"\x00")  # trailing bytes


class TestNibblePacking:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 4097])
    def test_pack_unpack_identity(self, n):
        rng = np.random.default_rng(n)
        q = rng.integers(-7, 8, size=n).astype(np.int8)
        np.testing.assert_array_equal(_unpack_nibbles(_pack_nibbles(q), n), q)

    def test_packed_size_halves(self):
        q = np.ones(1000, dtype=np.int8)
        assert _pack_nibbles(q).nbytes == 500


class TestDeterminism:
    @pytest.mark.parametrize("name", ["qsgd8", "qsgd4", "topk+qsgd8", "topk+qsgd4"])
    def test_same_rng_same_payload(self, name):
        codec = get_codec(name, topk_frac=0.05)
        delta = _delta(5000, "float64")
        a = codec.encode(delta, rng=np.random.default_rng(7))
        b = codec.encode(delta, rng=np.random.default_rng(7))
        assert a.to_bytes() == b.to_bytes()

    def test_stochastic_codecs_require_rng(self):
        delta = _delta(100, "float64")
        with pytest.raises(ValueError, match="rng"):
            QSGDCodec(bits=8).encode(delta)
        with pytest.raises(ValueError, match="rng"):
            TopKQSGDCodec(frac=0.1).encode(delta)


class TestGetCodec:
    def test_names_resolve(self):
        assert isinstance(get_codec("dense"), DenseCodec)
        assert isinstance(get_codec("topk"), TopKCodec)
        assert get_codec("qsgd4").bits == 4
        assert get_codec("qsgd8").bits == 8
        assert get_codec("topk+qsgd4").bits == 4
        assert get_codec("topk+qsgd8").bits == 8

    # The wire format outlives the spellings: each name writes this codec
    # id and bit width into the header's first two bytes.
    @pytest.mark.parametrize("name, codec_id, bits", [
        ("dense", 0, 0), ("qsgd4", 1, 4), ("qsgd8", 1, 8), ("topk", 2, 0),
        ("topk+qsgd4", 3, 4), ("topk+qsgd8", 3, 8),
    ])
    def test_header_codec_id_and_bits_are_pinned(self, name, codec_id, bits):
        blob = get_codec(name).encode(_delta(64, "float32"), rng=_rng()).to_bytes()
        assert (blob[0], blob[1]) == (codec_id, bits)
        assert payload_from_bytes(blob).bits == bits

    @pytest.mark.parametrize("name", ["gzip", "qsgd", "topk+qsgd"])
    def test_unknown_name_rejected(self, name):
        # A quantizing codec names its bit width.
        with pytest.raises(ValueError, match="codec"):
            get_codec(name)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            get_codec("topk", topk_frac=0.0)
        with pytest.raises(ValueError):
            QSGDCodec(bits=16)
        with pytest.raises(ValueError):
            QSGDCodec(chunk=0)

    def test_compression_actually_compresses(self):
        dim, dtype = 6570, np.float32
        dense = DenseCodec().payload_nbytes(dim, dtype)
        assert dense / get_codec("topk", topk_frac=0.05).payload_nbytes(dim, dtype) > 2
        assert dense / get_codec("qsgd8").payload_nbytes(dim, dtype) > 3.5
        assert dense / get_codec("qsgd4").payload_nbytes(dim, dtype) > 7
        ratio = dense / get_codec("topk+qsgd8", topk_frac=0.05).payload_nbytes(dim, dtype)
        assert ratio > 10


# Plain top-k sizes its values by itemsize alone and never checked dtype.
@pytest.mark.parametrize("name", [n for n in WIRE_CODECS if n != "topk"])
@pytest.mark.parametrize("dtype", [np.int32, "float16", np.dtype(np.int64)])
def test_non_float_dtype_rejected(name, dtype):
    codec = get_codec(name)
    with pytest.raises(ValueError, match=(
        f"wire codecs carry float32/float64 arenas, got {np.dtype(dtype).name}$"
    )):
        codec.payload_nbytes(64, dtype)


@pytest.mark.parametrize("dtype", DTYPES + [np.float32, np.dtype("float64")])
def test_dtype_spellings_agree(dtype):
    sizes = {get_codec(name).payload_nbytes(340, dtype) for name in WIRE_CODECS}
    ref = {get_codec(name).payload_nbytes(340, np.dtype(dtype).name) for name in WIRE_CODECS}
    assert sizes == ref
