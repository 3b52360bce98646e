"""Virtual-clock device simulator: latency rules, stragglers, deadlines."""

import numpy as np
import pytest

from repro.runtime.clock import (
    COMM_S,
    COMPUTE_S_PER_BATCH,
    LATENCY_MODELS,
    VirtualClock,
    latency_factors,
    n_local_batches,
)


def round_s(n_batches: int) -> float:
    """A factor-1 device's jitter-free round: download, compute, upload."""
    return COMM_S + n_batches * COMPUTE_S_PER_BATCH + COMM_S


class TestHelpers:
    def test_n_local_batches_rounds_up(self):
        assert n_local_batches(40, epochs=2, batch_size=16) == 2 * 3
        assert n_local_batches(32, epochs=1, batch_size=16) == 2

    def test_factor_one_round_seconds(self):
        clock = VirtualClock("homogeneous", 1, jitter_sigma=0.0)
        assert clock.client_time(0, 0, 10) == round_s(10)
        assert round_s(10) == pytest.approx(0.1 + 10 * 2e-3 + 0.1)


class TestLatencyFactors:
    def test_homogeneous_identical_and_draws_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert latency_factors("homogeneous", 5, rng).tolist() == [1.0] * 5
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("name", LATENCY_MODELS)
    def test_names(self, name):
        assert latency_factors(name, 8, np.random.default_rng(0)).shape == (8,)

    def test_clock_rejects_unknown(self):
        with pytest.raises(ValueError, match="latency model"):
            VirtualClock("fractal", 8)

    def test_uniform_bounded(self):
        factors = latency_factors("uniform", 100, np.random.default_rng(0))
        assert ((0.5 <= factors) & (factors <= 2.0)).all()

    def test_lognormal_spreads(self):
        speeds = VirtualClock("lognormal", 100).compute_s
        assert speeds.max() / speeds.min() > 2.0


class TestVirtualClock:
    def make_clock(self, **kwargs):
        defaults = dict(latency="homogeneous", n_clients=6, seed=0, jitter_sigma=0.0)
        defaults.update(kwargs)
        return VirtualClock(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make_clock(straggler_fraction=1.5)
        with pytest.raises(ValueError):
            self.make_clock(deadline_s=-1.0)

    def test_no_deadline_makespan_is_slowest(self):
        clock = self.make_clock(straggler_fraction=0.5, straggler_slowdown=10.0)
        timing = clock.observe_round(0, [0, 1, 2, 3, 4, 5], {c: 10 for c in range(6)})
        assert not timing.dropped
        assert timing.makespan_s == pytest.approx(max(timing.client_times_s.values()))
        assert clock.elapsed_s == pytest.approx(timing.makespan_s)

    def test_straggler_injection_slows_selected(self):
        clock = self.make_clock(straggler_fraction=0.5, straggler_slowdown=10.0)
        assert len(clock.stragglers) == 3
        timing = clock.observe_round(0, list(range(6)), {c: 10 for c in range(6)})
        for cid in range(6):
            expected = round_s(10) * (10.0 if cid in clock.stragglers else 1.0)
            assert timing.client_times_s[cid] == pytest.approx(expected)

    def test_deadline_discards_late_clients(self):
        clock = self.make_clock(
            straggler_fraction=0.5, straggler_slowdown=10.0, deadline_s=2.0,
        )
        timing = clock.observe_round(0, list(range(6)), {c: 10 for c in range(6)})
        assert set(timing.dropped) == clock.stragglers
        assert timing.makespan_s == pytest.approx(2.0)  # server stops at deadline

    def test_deadline_keeps_fastest_when_all_late(self):
        clock = self.make_clock(deadline_s=0.1)
        timing = clock.observe_round(0, [1, 4], {1: 10, 4: 20})
        assert timing.dropped == [4]  # the faster client survives
        assert timing.makespan_s == pytest.approx(round_s(10))  # waited for it

    def test_simulated_time_accumulates(self):
        clock = self.make_clock()
        timings = [clock.observe_round(r, [0, 1], {0: 10, 1: 10}) for r in range(3)]
        assert [t.round_idx for t in timings] == [0, 1, 2]
        assert clock.elapsed_s == pytest.approx(sum(t.makespan_s for t in timings))
        assert clock.elapsed_s == pytest.approx(3 * round_s(10))

    def test_jitter_deterministic_and_order_independent(self):
        def times(order):
            clock = VirtualClock("homogeneous", 6, seed=0, jitter_sigma=0.2)
            return {cid: clock.client_time(1, cid, 10) for cid in order}

        a = times([0, 1, 2, 3])
        b = times([3, 2, 1, 0])
        assert a == b


class TestClockInSimulation:
    def run_sim(self, tiny_data, tiny_clients, tiny_model_factory, clock):
        from repro.fl.simulation import FederatedSimulation, FLConfig
        from repro.fl.strategies import FedAvg

        _, test = tiny_data
        sim = FederatedSimulation(
            tiny_clients, test, tiny_model_factory, FedAvg(),
            FLConfig(rounds=3, clients_per_round=4, local_epochs=1, lr=0.05,
                     batch_size=16, seed=0),
            clock=clock,
        )
        return sim.run()

    def test_wait_clock_records_makespans_only(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        clock = VirtualClock("lognormal", 6, seed=1,
                             straggler_fraction=0.3, straggler_slowdown=10.0)
        hist = self.run_sim(tiny_data, tiny_clients, tiny_model_factory, clock)
        assert len(hist.makespan_series()) == 3
        assert hist.total_sim_time() > 0
        assert hist.total_dropped() == 0
        assert all(len(r.participants) == 4 for r in hist.records)

    def test_drop_clock_shrinks_aggregation(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        # Three of six clients straggle 50x past a tight deadline, so a
        # round that samples one keeps a strict subset.
        clock = VirtualClock(
            "homogeneous", 6, seed=1, straggler_fraction=0.5, straggler_slowdown=50.0,
            deadline_s=2.0, jitter_sigma=0.0,
        )
        hist = self.run_sim(tiny_data, tiny_clients, tiny_model_factory, clock)
        assert hist.total_dropped() > 0
        for rec in hist.records:
            assert len(rec.participants) == len(rec.impact_factors)
            assert not set(rec.dropped_clients) & set(rec.participants)

    def test_default_clock_is_homogeneous(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        """Every run is clocked: an engine built without a clock and a
        default config both run on identical devices."""
        from repro.harness.config import ExperimentConfig
        from repro.harness.reporting import history_digest
        from repro.harness.runner import run_experiment

        homogeneous = VirtualClock("homogeneous", len(tiny_clients), seed=0)
        runs = [self.run_sim(tiny_data, tiny_clients, tiny_model_factory, clock)
                for clock in (None, homogeneous)]
        assert len(runs[0].makespan_series()) == len(runs[0].records) == 3
        cells = [ExperimentConfig(rounds=2),
                 ExperimentConfig(rounds=2, latency_model="homogeneous")]
        runs += [run_experiment(cfg).history for cfg in cells]
        for default, explicit in (runs[:2], runs[2:]):
            assert default.makespan_series() == explicit.makespan_series()
            assert history_digest(default) == history_digest(explicit)
