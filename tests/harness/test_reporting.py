"""Tests for the result-reporting helpers."""

import json

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.reporting import (
    compare_methods,
    history_to_dict,
    load_results_json,
    result_to_dict,
    results_to_markdown,
    save_results_json,
)
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
        assert d["makespan_series"] == []
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


class TestResultToDict:
    def test_includes_config(self, fed_result):
        d = result_to_dict(fed_result)
        assert d["config"]["method"] == "fedavg"
        assert d["config"]["rounds"] == 2
        assert "history" in d

    def test_singleset_has_history(self, single_result):
        d = result_to_dict(single_result)
        assert d["history"]["rounds"] == 1  # 2 rounds x 2 local epochs // 10 -> 1
        assert "extra" not in d
        json.dumps(d)  # ndarray-free


class TestSaveLoad:
    def test_roundtrip(self, fed_result, single_result, tmp_path):
        path = save_results_json([fed_result, single_result], tmp_path / "r.json")
        loaded = load_results_json(path)
        assert len(loaded) == 2
        assert loaded[0]["best_accuracy"] == fed_result.best_accuracy


class TestMarkdownAndCompare:
    def test_markdown_table(self, fed_result):
        md = results_to_markdown([fed_result], title="T")
        assert md.startswith("## T")
        assert "| fedavg |" in md.replace("  ", " ")
        assert f"{fed_result.best_accuracy:.4f}" in md

    def test_compare_methods(self, fed_result, single_result):
        out = compare_methods([fed_result, single_result])
        assert set(out) == {"fedavg", "singleset"}
        assert out["fedavg"] == fed_result.best_accuracy
