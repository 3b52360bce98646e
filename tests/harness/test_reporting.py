"""Tests for the result-reporting helpers."""

import json

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest, history_to_dict
from repro.harness.runner import run_experiment

FAST = dict(scale="ci", n_clients=5, clients_per_round=5)


@pytest.fixture(scope="module")
def fed_result():
    cfg = ExperimentConfig(method="fedavg", **FAST).with_(rounds=2)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def single_result():
    cfg = ExperimentConfig(method="singleset", **FAST).with_(rounds=2)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def async_result():
    cfg = ExperimentConfig(
        method="fedavg", latency_model="lognormal", aggregation="fedbuff",
        buffer_size=3, **FAST,
    ).with_(rounds=3)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def fleet_result():
    cfg = ExperimentConfig(
        method="fedavg", latency_model="lognormal", availability="markov",
        dropout_prob=0.2, completeness=0.6, **FAST,
    ).with_(rounds=3)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def feddrl_history():
    cfg = ExperimentConfig(method="feddrl", **FAST).with_(rounds=3)
    return run_experiment(cfg).history


class TestHistoryDigestCoverage:
    """Altering any one per-record field of a finished FedDRL run moves
    the digest — alpha, the paper's own output, included."""

    @pytest.mark.parametrize("field", [
        "participants", "impact_factors", "client_sizes",
        "client_losses_after", "test_loss",
    ])
    def test_each_record_field_moves_the_digest(self, feddrl_history, field):
        before = history_digest(feddrl_history)
        record = feddrl_history.records[-1]
        value = getattr(record, field)
        if field == "participants":
            altered = list(reversed(value))
        elif field == "test_loss":
            altered = value + 1e-9
        elif field == "client_sizes":
            altered = value + np.eye(len(value), 1, dtype=value.dtype)[:, 0]
        else:
            altered = np.array(value, copy=True)
            altered[0] = np.nextafter(altered[0], np.inf)
        setattr(record, field, altered)
        try:
            assert history_digest(feddrl_history) != before
        finally:
            setattr(record, field, value)
        assert history_digest(feddrl_history) == before


class TestHistoryToDict:
    def test_fields(self, fed_result):
        d = history_to_dict(fed_result.history)
        assert d["rounds"] == 2
        assert d["best_accuracy"] == fed_result.best_accuracy
        assert len(d["accuracy_series"]) == 2
        assert d["mean_impact_time_ms"] >= 0

    def test_json_serialisable(self, fed_result):
        json.dumps(history_to_dict(fed_result.history))

    def test_sync_run_has_empty_async_fleet_fields(self, fed_result):
        d = history_to_dict(fed_result.history)
        assert d["events"] == []
        assert len(d["makespan_series"]) == d["rounds"]  # every round is clocked
        assert d["online_series"] == []
        assert d["total_dropped"] == 0
        assert d["total_connectivity_dropped"] == 0
        assert d["mean_work_fraction"] == 1.0
        assert d["mean_staleness"] == 0.0

    def test_async_round_trip(self, async_result):
        h = async_result.history
        d = json.loads(json.dumps(history_to_dict(h)))
        assert len(d["events"]) == len(h.events)
        assert d["mean_staleness"] == pytest.approx(h.mean_staleness())
        assert d["total_sim_time_s"] == pytest.approx(h.total_sim_time())
        assert d["makespan_series"] == pytest.approx(h.makespan_series())
        ev, rec = d["events"][0], h.events[0]
        assert ev["client_id"] == rec.client_id
        assert ev["arrival_time_s"] == pytest.approx(rec.arrival_time_s)
        assert ev["staleness"] == rec.staleness
        assert ev["dropped"] == rec.dropped

    def test_fleet_round_trip(self, fleet_result):
        h = fleet_result.history
        d = json.loads(json.dumps(history_to_dict(h)))
        assert d["online_series"] == [[r, n] for r, n in h.online_series()]
        assert d["total_connectivity_dropped"] == h.total_connectivity_dropped()
        assert d["mean_work_fraction"] == pytest.approx(h.mean_work_fraction())
        assert d["mean_work_fraction"] < 1.0
        assert len(d["makespan_series"]) == len(h.records)


@pytest.fixture(scope="module")
def robust_result():
    cfg = ExperimentConfig(
        method="fedavg", attack="backdoor", malicious_fraction=0.2,
        attack_scale=3.0, aggregator="krum", **FAST,
    ).with_(rounds=3)
    return run_experiment(cfg)


class TestRobustRoundTrip:
    def test_robust_fields_round_trip(self, robust_result):
        h = robust_result.history
        d = json.loads(json.dumps(history_to_dict(h)))
        assert d["backdoor_accuracy_series"] == [
            [r, a] for r, a in h.backdoor_accuracy_series()
        ]
        assert len(d["backdoor_accuracy_series"]) == len(h.records)
        assert d["total_rejected_updates"] == h.total_rejected()
        assert d["total_rejected_updates"] > 0  # krum rejects every round
        assert d["total_clipped_updates"] == h.total_clipped()
        assert d["total_malicious_aggregated"] == h.total_malicious_aggregated()
        assert d["rejected_series"] == [
            [r.round_idx, len(r.rejected_updates)]
            for r in h.records if r.rejected_updates
        ]

    def test_honest_run_has_empty_robust_fields(self, fed_result):
        d = history_to_dict(fed_result.history)
        assert d["backdoor_accuracy_series"] == []
        assert d["rejected_series"] == []
        assert d["total_rejected_updates"] == 0
        assert d["total_clipped_updates"] == 0
        assert d["total_malicious_aggregated"] == 0


class TestSingleset:
    def test_singleset_has_history(self, single_result):
        d = history_to_dict(single_result.history)
        assert d["rounds"] == 1  # 2 rounds x 2 local epochs // 10 -> 1
        assert set(single_result.extra) == {"sim_time_s", "dropped_updates"}
