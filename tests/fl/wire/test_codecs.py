"""Codec-level properties: round-trips, byte accounting, quantization.

Every codec must (1) declare its payload size before encoding and hit it
exactly at serialization (the reference serializer writes the bytes),
and (2) decode back into the substrate dtype it was fed.  The quantized
codecs additionally obey the per-chunk error bound scale/levels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.wire.codecs import (
    CHUNK,
    HEADER_NBYTES,
    QUANT_BITS,
    WIRE_CODECS,
    payload_nbytes,
    roundtrip,
    topk_indices,
)

from tests.fl.wire.reference_payload import densify, serialize

DIMS = [1, 7, 340, 6570]
DTYPES = ["float32", "float64"]


def _delta(dim, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(dim) * np.exp(rng.standard_normal(dim))).astype(dtype)


def _rng():
    return np.random.default_rng(123)


def _decoded(name, delta, rng=None, topk_frac=0.05):
    return densify(*roundtrip(name, delta, rng, topk_frac), delta.shape[0])


class TestByteAccounting:
    @pytest.mark.parametrize("name", WIRE_CODECS)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_nbytes_exact(self, name, dim, dtype):
        blob, _ = serialize(name, _delta(dim, dtype), _rng(), 0.05)
        assert len(blob) == payload_nbytes(name, dim, np.dtype(dtype), 0.05)

    def test_nbytes_is_content_independent(self):
        a, _ = serialize("topk+qsgd8", _delta(5000, "float32", seed=1), _rng(), 0.02)
        b, _ = serialize("topk+qsgd8", np.zeros(5000, dtype=np.float32), _rng(), 0.02)
        assert len(a) == len(b) == payload_nbytes("topk+qsgd8", 5000, np.float32, 0.02)

    def test_header_size(self):
        assert payload_nbytes("dense", 3, np.float64) == HEADER_NBYTES + 3 * 8


class TestRoundTrips:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dense_lossless(self, dim, dtype):
        delta = _delta(dim, dtype)
        out = _decoded("dense", delta)
        np.testing.assert_array_equal(out, delta)
        assert out.dtype == delta.dtype

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_topk_exact_on_kept_coords(self, dim, dtype):
        delta = _delta(dim, dtype)
        idx, values = roundtrip("topk", delta, None, 0.1)
        out = densify(idx, values, dim)
        assert out.dtype == delta.dtype
        np.testing.assert_array_equal(out[idx], delta[idx])
        mask = np.ones(dim, dtype=bool)
        mask[idx] = False
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
        out = _decoded(f"qsgd{bits}", delta, _rng())
        assert out.dtype == delta.dtype
        levels = (1 << (bits - 1)) - 1
        n = delta.shape[0]
        starts = np.arange(0, n, CHUNK)
        scales = np.maximum.reduceat(np.abs(delta), starts).astype(np.float32)
        per = np.repeat(scales, CHUNK)[:n].astype(delta.dtype)
        # One quantization step per coordinate, plus float32-scale slack.
        bound = per / levels + np.abs(per) * 1e-6 + 1e-12
        assert np.all(np.abs(out - delta) <= bound)

    @pytest.mark.parametrize("name", ["qsgd8", "qsgd4", "topk+qsgd8", "topk+qsgd4"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_quantized_zero_delta_decodes_to_zero(self, name, dtype):
        out = _decoded(name, np.zeros(1000, dtype), _rng())
        assert out.dtype == np.dtype(dtype)
        assert np.all(out == 0.0) and np.all(np.isfinite(out))

    def test_quantization_is_unbiased_in_expectation(self):
        delta = np.full(20000, 0.3, dtype=np.float64) * np.linspace(0.1, 1, 20000)
        outs = [_decoded("qsgd8", delta, np.random.default_rng(s)) for s in range(20)]
        mean_err = np.abs(np.mean(outs, axis=0) - delta).mean()
        single_err = np.abs(outs[0] - delta).mean()
        assert mean_err < single_err / 2  # averaging shrinks the rounding noise


class TestDeterminism:
    @pytest.mark.parametrize("name", ["qsgd8", "qsgd4", "topk+qsgd8", "topk+qsgd4"])
    def test_same_rng_same_payload(self, name):
        delta = _delta(5000, "float64")
        a = _decoded(name, delta, np.random.default_rng(7))
        b = _decoded(name, delta, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestNames:
    @pytest.mark.parametrize("name", ["gzip", "qsgd", "topk+qsgd"])
    def test_unknown_name_rejected(self, name):
        # A quantizing codec names its bit width.
        with pytest.raises(ValueError, match="codec"):
            payload_nbytes(name, 64, np.float32)
        with pytest.raises(ValueError, match="codec"):
            roundtrip(name, _delta(64, "float32"), _rng())

    def test_compression_actually_compresses(self):
        dim, dtype = 6570, np.float32
        dense = payload_nbytes("dense", dim, dtype)
        assert dense / payload_nbytes("topk", dim, dtype, 0.05) > 2
        assert dense / payload_nbytes("qsgd8", dim, dtype) > 3.5
        assert dense / payload_nbytes("qsgd4", dim, dtype) > 7
        assert dense / payload_nbytes("topk+qsgd8", dim, dtype, 0.05) > 10


@pytest.mark.parametrize("name", WIRE_CODECS)
@pytest.mark.parametrize("dtype", [np.int32, "float16", np.dtype(np.int64)])
def test_non_float_dtype_rejected(name, dtype):
    with pytest.raises(ValueError, match=(
        f"wire codecs carry float32/float64 arenas, got {np.dtype(dtype).name}$"
    )):
        payload_nbytes(name, 64, dtype)


@pytest.mark.parametrize("dtype", DTYPES + [np.float32, np.dtype("float64")])
def test_dtype_spellings_agree(dtype):
    sizes = {payload_nbytes(name, 340, dtype) for name in WIRE_CODECS}
    ref = {payload_nbytes(name, 340, np.dtype(dtype).name) for name in WIRE_CODECS}
    assert sizes == ref
