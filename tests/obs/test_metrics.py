"""Tests for the metrics primitives (repro.obs.metrics)."""

import time

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(7)
        g.set(3)
        assert g.value == 3.0

    def test_histogram_stats(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == 2.0

    def test_histogram_empty_dict(self):
        d = Histogram().as_dict()
        assert d == {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": 0.0}

    def test_timer_measures(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005


class TestRegistry:
    def test_get_or_create(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        m.inc("a", 2)
        assert m.counter("a").value == 2

    def test_kind_collision_rejected(self):
        m = MetricsRegistry()
        m.inc("x")
        with pytest.raises(ValueError, match="another kind"):
            m.gauge("x")
        with pytest.raises(ValueError, match="another kind"):
            m.observe("x", 1.0)

    def test_snapshot_sorted_and_serialisable(self):
        import json

        m = MetricsRegistry()
        m.inc("b")
        m.inc("a")
        m.set_gauge("g", 4)
        m.observe("h", 1.5)
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)

    def test_sim_totals_filters_runtime(self):
        m = MetricsRegistry()
        m.inc("sim.rounds", 3)
        m.inc("rt.ipc.bytes_out", 100)
        m.set_gauge("sim.fleet.online", 5)
        totals = m.sim_totals()
        assert totals["counters"] == {"sim.rounds": 3}
        assert totals["gauges"] == {"sim.fleet.online": 5.0}


class TestTimingFold:
    def test_fl_package_exports_obs_timer(self):
        import repro.fl
        from repro.fl import timing

        assert repro.fl.Timer is Timer
        assert "Timer" not in timing.__all__

    def test_measure_server_overhead_signature_kept(self):
        import numpy as np

        from repro.fl.strategies import FedAvg
        from repro.fl.timing import measure_server_overhead, synthetic_updates

        updates = synthetic_updates(3, 8, np.random.default_rng(0))
        report = measure_server_overhead(FedAvg(), updates, repeats=2)
        assert report.impact_ms >= 0.0
        assert report.aggregation_ms >= 0.0
        assert report.model_dim == 8
        assert report.clients == 3
