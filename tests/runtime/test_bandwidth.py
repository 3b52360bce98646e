"""Bandwidth-driven comm time on the virtual clock.

The guarantees: (1) adding bandwidth never perturbs existing timing —
latency columns, straggler choice, and jitter draws are untouched, and a
clock without payload bytes behaves exactly as before; (2) when both a
link rate and a payload size exist, comm phases become bytes/rate;
(3) the straggler factor scales the whole round without changing the
phase sum's floating-point evaluation order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.clock import (
    BANDWIDTH_MODELS,
    COMPUTE_S_PER_BATCH,
    VirtualClock,
    link_factors,
)

# 1 Mbit/s in bytes per second.
MBPS = 125_000.0


def _clock(n=6, bandwidth=None, **kw):
    defaults = dict(jitter_sigma=0.0)
    defaults.update(kw)
    return VirtualClock("homogeneous", n, seed=0, bandwidth=bandwidth, **defaults)


class TestRates:
    def test_default_clock_has_no_rates(self):
        clock = _clock()
        assert clock.up_bps is None and clock.down_bps is None

    def test_bandwidth_attaches_rates(self):
        clock = _clock(bandwidth="uniform")
        assert clock.up_bps.shape == clock.down_bps.shape == (6,)
        assert (clock.up_bps > 0).all() and (clock.down_bps > 0).all()

    def test_bandwidth_does_not_perturb_latency_or_stragglers(self):
        """The rates come from static RNG cells, not the clock's rng, so
        attaching them must not reshuffle latencies or straggler choice."""
        kw = dict(straggler_fraction=0.5, straggler_slowdown=4.0)
        plain = VirtualClock("uniform", 10, seed=3, **kw)
        banded = VirtualClock("uniform", 10, seed=3, bandwidth="lognormal", **kw)
        assert banded.stragglers == plain.stragglers
        for name in ("compute_s", "comm_s"):
            assert np.array_equal(getattr(banded, name), getattr(plain, name))

    def test_rates_deterministic_and_population_independent(self):
        """A client's link is a device trait: same (seed, client) cell
        regardless of fleet size."""
        small = VirtualClock("homogeneous", 3, seed=7, bandwidth="uniform")
        big = VirtualClock("homogeneous", 8, seed=7, bandwidth="uniform")
        for col in ("up_bps", "down_bps"):
            assert np.array_equal(getattr(big, col)[:3], getattr(small, col))
        assert not np.array_equal(link_factors("uniform", 3, 8), link_factors("uniform", 3, 7))

    def test_one_factor_scales_both_directions(self):
        clock = _clock(n=5, bandwidth="lognormal", up_mbps=1.0, down_mbps=10.0)
        np.testing.assert_allclose(clock.down_bps / clock.up_bps, 10.0)

    def test_mbps_conversion(self):
        clock = _clock(bandwidth="homogeneous", up_mbps=8.0, down_mbps=80.0)
        assert clock.up_bps.tolist() == [8.0 * MBPS] * 6
        assert clock.down_bps.tolist() == [80.0 * MBPS] * 6


class TestBytesDrivenTime:
    def test_comm_time_is_bytes_over_rate(self):
        clock = _clock(bandwidth="homogeneous", up_mbps=1.0, down_mbps=4.0)
        t = clock.client_time(0, 0, n_batches=0,
                              upload_bytes=250_000, download_bytes=250_000)
        assert t == pytest.approx(250_000 / MBPS + 250_000 / (4 * MBPS))

    def test_no_bytes_falls_back_to_constants(self):
        assert _clock(bandwidth="homogeneous").client_time(0, 0, 5) == \
            _clock().client_time(0, 0, 5)

    def test_no_rates_ignores_bytes(self):
        assert _clock().client_time(0, 0, 5, upload_bytes=10**9,
                                    download_bytes=10**9) == \
            _clock().client_time(0, 0, 5)

    def test_bigger_payload_takes_longer(self):
        clock = _clock(bandwidth="homogeneous")
        small = clock.client_time(0, 0, 5, upload_bytes=10_000,
                                  download_bytes=10_000)
        large = clock.client_time(0, 0, 5, upload_bytes=1_000_000,
                                  download_bytes=10_000)
        assert large > small

    def test_observe_round_forwards_bytes(self):
        clock = _clock(bandwidth="homogeneous", up_mbps=1.0, down_mbps=8000.0)
        timing = clock.observe_round(0, [0, 1], {0: 0, 1: 0},
                                     upload_bytes=10 * 125_000, download_bytes=0)
        assert timing.makespan_s == pytest.approx(10.0)

    def test_decompose_matches_bytes_charged(self):
        clock = _clock(bandwidth="homogeneous", up_mbps=1.0, down_mbps=2.0,
                       jitter_sigma=0.05)
        total = clock.client_time(0, 2, 5, upload_bytes=500_000,
                                  download_bytes=800_000)
        d, c, u = clock.decompose(0, 5, total, upload_bytes=500_000,
                                  download_bytes=800_000)
        assert d + c + u == pytest.approx(total)
        assert u / d == pytest.approx((500_000 / MBPS) / (800_000 / (2 * MBPS)))


class TestStragglerSlowdown:
    def _straggler_clock(self, **kw):
        clock = _clock(n=4, straggler_fraction=1.0, **kw)
        assert clock.stragglers == {0, 1, 2, 3}
        return clock

    def test_whole_round_bit_exact(self):
        """A straggler's time is the phase sum times the factor, in that
        floating-point evaluation order, not just approximately."""
        clock = self._straggler_clock(straggler_slowdown=8.0)
        for cid in range(4):
            comm, compute = clock.comm_s.item(cid), clock.compute_s.item(cid)
            assert clock.client_time(0, cid, 7) == (comm + 7 * compute + comm) * 8.0

    def test_decompose_keeps_phase_shares(self):
        clock = self._straggler_clock(straggler_slowdown=2.0)
        total = clock.client_time(0, 0, 7)
        d, c, u = clock.decompose(0, 7, total)
        assert d + c + u == pytest.approx(total)
        assert d / c == pytest.approx(clock.comm_s[0] / (7 * clock.compute_s[0]))


class TestLinkFactors:
    @pytest.mark.parametrize("name", BANDWIDTH_MODELS)
    def test_names(self, name):
        assert link_factors(name, 8, 0).shape == (8,)

    def test_rejects_unknown_and_invalid(self):
        with pytest.raises(ValueError, match="bandwidth model"):
            _clock(bandwidth="5g")
        with pytest.raises(ValueError, match="positive"):
            _clock(bandwidth="uniform", up_mbps=0.0)


class TestJitterUnchanged:
    def test_jitter_stream_is_byte_blind(self):
        """The jitter multiplier comes from the same (round, client)
        latency cell whether or not bytes drive the comm phases."""
        plain = _clock(jitter_sigma=0.1)
        banded = _clock(jitter_sigma=0.1, bandwidth="homogeneous",
                        up_mbps=8.0, down_mbps=8.0)
        base_p = plain.client_time(3, 2, 5)
        base_b = banded.client_time(3, 2, 5, upload_bytes=10_000,
                                    download_bytes=10_000)
        jp = base_p / _clock().client_time(3, 2, 5)
        jb = base_b / (10_000 / 1e6 + 5 * COMPUTE_S_PER_BATCH + 10_000 / 1e6)
        assert jp == pytest.approx(jb)
