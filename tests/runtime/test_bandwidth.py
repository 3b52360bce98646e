"""Bandwidth-driven comm time on the virtual clock.

The guarantees: (1) adding bandwidth never perturbs existing timing —
profiles, straggler choice, and jitter draws are untouched, and a clock
without payload bytes behaves exactly as before; (2) when both a link
rate and a payload size exist, comm phases become bytes/rate; (3) the
straggler comm factor scales comm independently of compute without
changing the default path's floating-point evaluation order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.clock import (
    BANDWIDTH_MODELS,
    HomogeneousBandwidth,
    HomogeneousLatency,
    LogNormalBandwidth,
    UniformBandwidth,
    UniformLatency,
    VirtualClock,
    get_bandwidth_model,
)


def _clock(n=6, bandwidth=None, **kw):
    defaults = dict(jitter_sigma=0.0)
    defaults.update(kw)
    return VirtualClock(
        HomogeneousLatency(), n, seed=0, bandwidth=bandwidth, **defaults
    )


class TestProfiles:
    def test_default_profiles_have_no_rates(self):
        clock = _clock()
        assert clock.up_bps is None and clock.down_bps is None
        assert all(clock.profile(c).up_bps is None for c in range(6))

    def test_bandwidth_attaches_rates(self):
        clock = _clock(bandwidth=get_bandwidth_model("uniform"))
        assert all(p.up_bps and p.down_bps
                   for p in map(clock.profile, range(6)))

    def test_bandwidth_does_not_perturb_latency_or_stragglers(self):
        """The rates come from static RNG cells, not the clock's rng, so
        attaching them must not reshuffle latencies or straggler choice."""
        kw = dict(straggler_fraction=0.5, straggler_slowdown=4.0)
        plain = VirtualClock(UniformLatency(), 10, seed=3, **kw)
        banded = VirtualClock(UniformLatency(), 10, seed=3,
                              bandwidth=get_bandwidth_model("lognormal"), **kw)
        assert banded.stragglers == plain.stragglers
        for name in ("compute_s", "upload_s", "download_s"):
            assert np.array_equal(getattr(banded, name), getattr(plain, name))

    def test_rates_deterministic_and_population_independent(self):
        """A client's link is a device trait: same (seed, client) cell
        regardless of fleet size or model instance."""
        model = UniformBandwidth(up_bps=1e5, down_bps=1e6)
        small = model.rates(3, base_seed=7)
        big = UniformBandwidth(up_bps=1e5, down_bps=1e6).rates(8, base_seed=7)
        for s, b in zip(small, big):
            assert np.array_equal(b[:3], s)
        assert not np.array_equal(model.rates(3, base_seed=8)[0], small[0])

    def test_one_factor_scales_both_directions(self):
        up, down = LogNormalBandwidth(up_bps=100.0, down_bps=1000.0).rates(5, 0)
        np.testing.assert_allclose(down / up, 10.0)


class TestBytesDrivenTime:
    def test_comm_time_is_bytes_over_rate(self):
        clock = _clock(bandwidth=HomogeneousBandwidth(up_bps=1000.0,
                                                      down_bps=4000.0))
        t = clock.client_time(0, 0, n_batches=0,
                              upload_bytes=2000, download_bytes=2000)
        assert t == pytest.approx(2000 / 1000.0 + 2000 / 4000.0)

    def test_no_bytes_falls_back_to_constants(self):
        band = HomogeneousBandwidth(up_bps=1000.0, down_bps=1000.0)
        assert _clock(bandwidth=band).client_time(0, 0, 5) == \
            _clock().client_time(0, 0, 5)

    def test_no_rates_ignores_bytes(self):
        assert _clock().client_time(0, 0, 5, upload_bytes=10**9,
                                    download_bytes=10**9) == \
            _clock().client_time(0, 0, 5)

    def test_bigger_payload_takes_longer(self):
        clock = _clock(bandwidth=get_bandwidth_model("homogeneous"))
        small = clock.client_time(0, 0, 5, upload_bytes=10_000,
                                  download_bytes=10_000)
        large = clock.client_time(0, 0, 5, upload_bytes=1_000_000,
                                  download_bytes=10_000)
        assert large > small

    def test_observe_round_forwards_bytes(self):
        clock = _clock(bandwidth=HomogeneousBandwidth(up_bps=100.0,
                                                      down_bps=1e9))
        timing = clock.observe_round(0, [0, 1], {0: 0, 1: 0},
                                     upload_bytes=1000, download_bytes=0)
        assert timing.makespan_s == pytest.approx(10.0)

    def test_decompose_matches_bytes_charged(self):
        clock = _clock(bandwidth=HomogeneousBandwidth(up_bps=1000.0,
                                                      down_bps=2000.0),
                       jitter_sigma=0.05)
        total = clock.client_time(0, 2, 5, upload_bytes=500,
                                  download_bytes=800)
        d, c, u = clock.decompose(0, 5, total, upload_bytes=500,
                                  download_bytes=800)
        assert d + c + u == pytest.approx(total)
        assert u / d == pytest.approx((500 / 1000.0) / (800 / 2000.0))


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
            assert clock.client_time(0, cid, 7) == clock.profile(cid).round_seconds(7) * 8.0

    def test_decompose_keeps_profile_shares(self):
        clock = self._straggler_clock(straggler_slowdown=2.0)
        total = clock.client_time(0, 0, 7)
        d, c, u = clock.decompose(0, 7, total)
        p = clock.profile(0)
        assert d + c + u == pytest.approx(total)
        assert d / c == pytest.approx(p.download_s / (7 * p.compute_s_per_batch))


class TestGetBandwidthModel:
    def test_names(self):
        for name in BANDWIDTH_MODELS:
            assert get_bandwidth_model(name).name == name

    def test_mbps_conversion(self):
        model = get_bandwidth_model("homogeneous", up_mbps=8.0, down_mbps=80.0)
        assert model.up_bps == 8.0 * 125_000.0
        assert model.down_bps == 80.0 * 125_000.0

    def test_rejects_unknown_and_invalid(self):
        with pytest.raises(ValueError, match="bandwidth model"):
            get_bandwidth_model("5g")
        with pytest.raises(ValueError, match="positive"):
            get_bandwidth_model("uniform", up_mbps=0.0)
        with pytest.raises(ValueError):
            UniformBandwidth(up_bps=1.0, down_bps=1.0, low=0.0)
        with pytest.raises(ValueError):
            LogNormalBandwidth(up_bps=1.0, down_bps=1.0, sigma=0.0)


class TestJitterUnchanged:
    def test_jitter_stream_is_byte_blind(self):
        """The jitter multiplier comes from the same (round, client)
        latency cell whether or not bytes drive the comm phases."""
        plain = _clock(jitter_sigma=0.1)
        banded = _clock(jitter_sigma=0.1,
                        bandwidth=HomogeneousBandwidth(up_bps=1e6,
                                                       down_bps=1e6))
        base_p = plain.client_time(3, 2, 5)
        base_b = banded.client_time(3, 2, 5, upload_bytes=10_000,
                                    download_bytes=10_000)
        jp = base_p / _clock().client_time(3, 2, 5)
        jb = base_b / (10_000 / 1e6 + 5 * 2e-3 + 10_000 / 1e6)
        assert jp == pytest.approx(jb)
