"""Tests for the fairness diagnostics and server-overhead timing."""

import numpy as np
import pytest

from repro.fl.fairness import normalized_fairness
from repro.fl.simulation import History, RoundRecord
from repro.fl.strategies import FedAvg, FedDRL
from repro.fl.timing import measure_server_overhead, synthetic_updates
from repro.obs.metrics import Timer


def history_with_losses(loss_rows):
    hist = History()
    for i, row in enumerate(loss_rows):
        hist.append(RoundRecord(
            round_idx=i, participants=[0], impact_factors=np.array([1.0]),
            client_losses_before=np.array(row),
            client_losses_after=np.array(row) * 0.5,
            client_sizes=np.array([10] * len(row)),
            impact_time_s=0.0, aggregation_time_s=0.0,
        ))
    return hist


class TestNormalizedFairness:
    def test_reference_is_unity(self):
        hists = {
            "feddrl": history_with_losses([[1.0, 2.0], [1.0, 1.5]]),
            "fedavg": history_with_losses([[2.0, 4.0], [2.0, 3.0]]),
        }
        norm = normalized_fairness(hists, reference="feddrl")
        np.testing.assert_allclose(norm["feddrl"]["mean"], 1.0)
        # FedAvg has exactly double the losses -> ratio 2.
        np.testing.assert_allclose(norm["fedavg"]["mean"], 2.0)
        np.testing.assert_allclose(norm["fedavg"]["variance"], 4.0)

    def test_missing_reference_raises(self):
        with pytest.raises(ValueError):
            normalized_fairness({"fedavg": History()}, reference="feddrl")


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(10_000))
        assert t.elapsed > 0

    def test_synthetic_updates_shape(self, rng):
        ups = synthetic_updates(5, 100, rng)
        assert len(ups) == 5
        assert all(u.weights.shape == (100,) for u in ups)

    def test_measure_overhead_fedavg(self, rng):
        ups = synthetic_updates(5, 1000, rng)
        report = measure_server_overhead(FedAvg(), ups, repeats=3)
        assert report.impact_ms >= 0
        assert report.aggregation_ms >= 0
        assert report.model_dim == 1000
        assert report.clients == 5

    def test_measure_overhead_feddrl(self, rng):
        ups = synthetic_updates(5, 1000, rng)
        strat = FedDRL(clients_per_round=5, seed=0, explore=False, online_training=False)
        report = measure_server_overhead(strat, ups, repeats=3)
        assert report.impact_ms > 0  # policy inference costs something

    def test_aggregation_scales_with_model_dim(self, rng):
        """The paper's Fig. 9 shape: aggregation time grows with model size
        while the DRL inference does not (it sees only losses/counts)."""
        small = synthetic_updates(8, 1_000, rng)
        large = synthetic_updates(8, 400_000, rng)
        r_small = measure_server_overhead(FedAvg(), small, repeats=5)
        r_large = measure_server_overhead(FedAvg(), large, repeats=5)
        assert r_large.aggregation_ms > r_small.aggregation_ms

    def test_invalid_repeats(self, rng):
        ups = synthetic_updates(3, 10, rng)
        with pytest.raises(ValueError):
            measure_server_overhead(FedAvg(), ups, repeats=0)
