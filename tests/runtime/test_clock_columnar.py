"""The columnar virtual clock equals the object-per-client build bit for bit.

``reference_clock.ReferenceClock`` is the original construction (one
``DeviceProfile`` per client, one static generator per client for its
link, a ``replace`` pass); the columnar :class:`VirtualClock` must give
the same per-client columns, stragglers, phases, round times and phase
splits — as Python floats — for every latency × bandwidth model pair.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import vecrng
from repro.runtime.clock import VirtualClock
from repro.runtime.seeding import STREAM_WIRE, client_static_rng

from tests.runtime.reference_clock import ReferenceClock

N_CLIENTS = 2_000
MODELS = ("homogeneous", "uniform", "lognormal")
KW = dict(straggler_fraction=0.1, straggler_slowdown=4.0)


def _pair(latency: str, bandwidth: str, seed: int, **kw):
    args = dict(KW, **kw)
    return (
        VirtualClock(latency, N_CLIENTS, seed=seed, bandwidth=bandwidth, **args),
        ReferenceClock(latency, N_CLIENTS, seed=seed, bandwidth=bandwidth, **args),
    )


def _same(a, b) -> None:
    assert type(a) is float
    assert a == b


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("latency,bandwidth", list(itertools.product(MODELS, MODELS)))
class TestMatchesReference:
    def test_columns_and_stragglers(self, latency, bandwidth, seed):
        clock, ref = _pair(latency, bandwidth, seed)
        assert clock.stragglers == ref.stragglers
        for cid, want in enumerate(ref.profiles):
            _same(clock.compute_s.item(cid), want.compute_s_per_batch)
            _same(clock.comm_s.item(cid), want.upload_s)
            _same(clock.comm_s.item(cid), want.download_s)
            _same(clock.up_bps.item(cid), want.up_bps)
            _same(clock.down_bps.item(cid), want.down_bps)

    def test_phases(self, latency, bandwidth, seed):
        clock, ref = _pair(latency, bandwidth, seed)
        for cid in range(0, N_CLIENTS, 7):
            for payload in ((None, None), (12_345, 67_890)):
                got = clock._phases(cid, 9, *payload)
                want = ref._phases(cid, 9, *payload)
                for g, w in zip(got, want):
                    _same(g, w)

    @pytest.mark.parametrize("slowdown", [4.0, 6.0])
    def test_client_time_and_decompose(self, latency, bandwidth, seed, slowdown):
        clock, ref = _pair(latency, bandwidth, seed, straggler_slowdown=slowdown)
        cids = sorted(ref.stragglers)[:20] + list(range(0, N_CLIENTS, 97))
        for rnd in range(5):
            for cid in cids:
                payload = (4_000 + cid, 9_000) if cid % 2 else (None, None)
                total = clock.client_time(rnd, cid, 3 + rnd, *payload)
                _same(total, ref.client_time(rnd, cid, 3 + rnd, *payload))
                got = clock.decompose(cid, 3 + rnd, total, *payload)
                want = ref.decompose(cid, 3 + rnd, total, *payload)
                for g, w in zip(got, want):
                    _same(g, w)


def test_no_bandwidth_has_no_rates():
    clock = VirtualClock("uniform", 4, seed=0)
    assert clock.up_bps is None and clock.down_bps is None


def test_rates_match_reference_at_other_mbps():
    kw = dict(seed=5, bandwidth="lognormal", up_mbps=8.0, down_mbps=80.0)
    clock, ref = VirtualClock("uniform", 50, **kw), ReferenceClock("uniform", 50, **kw)
    for cid, want in enumerate(ref.profiles):
        _same(clock.up_bps.item(cid), want.up_bps)
        _same(clock.down_bps.item(cid), want.down_bps)


U32_MAX = 2**32 - 1


@given(
    seed=st.integers(0, 2**63),
    stream=st.integers(0, 16),
    ids=st.lists(st.sampled_from([0, 1, U32_MAX]) | st.integers(0, U32_MAX),
                 min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_cell_state_matches_seed_sequence(seed, stream, ids):
    st_hi, st_lo, inc_hi, inc_lo = vecrng.CellBatchKernel(
        seed, np.array(ids, dtype=np.int64), 0, 1
    ).states((), (stream,))
    for j, cid in enumerate(ids):
        want = client_static_rng(seed, cid, stream).bit_generator.state["state"]
        assert (int(st_hi[j]) << 64) | int(st_lo[j]) == want["state"]
        assert (int(inc_hi[j]) << 64) | int(inc_lo[j]) == want["inc"]


def test_cell_draws_match_per_cell_generators():
    ids = np.array([0, 5, 17, U32_MAX], dtype=np.int64)
    got = vecrng.spawn_key_draws(3, (ids, STREAM_WIRE), "lognormal", 0.0, 0.7)
    want = [client_static_rng(3, int(c), STREAM_WIRE).lognormal(0.0, 0.7) for c in ids]
    assert got.tolist() == want
    assert vecrng.spawn_key_draws(3, (ids[:0], STREAM_WIRE), "lognormal").shape == (0,)
