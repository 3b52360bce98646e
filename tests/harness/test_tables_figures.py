"""Tests for table/figure generators (run at ci scale with tiny grids)."""

import numpy as np
import pytest

from repro.fl.simulation import History, RoundRecord
from repro.harness import sweep
from repro.harness.config import ExperimentConfig
from repro.harness.convergence import convergence_table
from repro.harness.figures import (
    accuracy_timeline,
    noniid_sweep,
    participation_sweep,
    partition_figure,
    server_overhead_figure,
    smooth_series,
)
from repro.harness.runner import ExperimentResult, run_experiment
from repro.harness.tables import format_accuracy_table, improvements, table3, table4


class TestImprovements:
    def test_relative_improvement(self):
        cell = {"fedavg": 0.50, "fedprox": 0.60, "feddrl": 0.66}
        a, b = improvements(cell)
        assert a == pytest.approx(10.0)  # vs best baseline 0.60
        assert b == pytest.approx(32.0)  # vs worst baseline 0.50

    def test_requires_feddrl(self):
        with pytest.raises(ValueError):
            improvements({"fedavg": 0.5})


class TestTable3:
    def test_tiny_grid_structure(self):
        res = table3(
            scale="ci", datasets=("mnist",), partitions=("CE",),
            client_counts=(5,), methods=("fedavg", "feddrl"), seed=0,
        )
        assert set(res) == {5}
        assert set(res[5]) == {"mnist"}
        assert set(res[5]["mnist"]) == {"CE"}
        cell = res[5]["mnist"]["CE"]
        assert set(cell) == {"fedavg", "feddrl"}
        assert all(0 <= v <= 1 for v in cell.values())

    def test_formatting_contains_methods(self):
        res = {10: {"mnist": {"CE": {"fedavg": 0.8, "fedprox": 0.81, "feddrl": 0.85}}}}
        text = format_accuracy_table(res, "Table 3")
        assert "fedavg" in text and "feddrl" in text
        assert "impr.(a)" in text and "impr.(b)" in text
        assert "85.00%" in text


class TestTable4:
    def test_shard_partitions_run(self):
        res = table4(scale="ci", client_counts=(5,), methods=("fedavg", "feddrl"), seed=0)
        assert set(res[5]["cifar100"]) == {"EQUAL", "NONEQUAL"}


class TestPartitionFigure:
    @pytest.mark.parametrize("name", ["PA", "CE", "CN"])
    def test_matrix_and_ascii(self, name):
        fig = partition_figure(name, n_clients=8, num_classes=8, n_samples=800)
        assert fig["matrix"].shape == (8, 8)
        assert fig["matrix"].sum() <= 800
        assert len(fig["ascii"].splitlines()) == 8

    def test_ce_shows_cluster_block_structure(self):
        fig = partition_figure("CE", n_clients=10, num_classes=10, n_samples=4000, delta=0.6)
        mat = fig["matrix"]
        # Main-cluster clients (0..5) and others hold disjoint labels.
        main_labels = set(np.flatnonzero(mat[:, :6].sum(axis=1) > 0).tolist())
        rest_labels = set(np.flatnonzero(mat[:, 6:].sum(axis=1) > 0).tolist())
        assert not (main_labels & rest_labels)


class TestTimelineAndSweeps:
    def test_accuracy_timeline_keys(self):
        series = accuracy_timeline(
            dataset="mnist", partition="CE", methods=("fedavg", "feddrl"),
            scale="ci", n_clients=5, rounds=3,
        )
        assert set(series) == {"fedavg", "feddrl"}
        assert len(series["fedavg"]) == 3
        rounds = [r for r, _ in series["fedavg"]]
        assert rounds == sorted(rounds)

    def test_smooth_series(self):
        raw = [(i, float(i % 2)) for i in range(10)]
        smoothed = smooth_series(raw, window=4)
        values = [v for _, v in smoothed]
        assert np.var(values) < np.var([v for _, v in raw])

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_smooth_series_keeps_a_constant_series_constant(self, n):
        """Fig. 5's window=10 near either end averages only the samples
        under it: zero padding must not pull the curve's ends down."""
        smoothed = smooth_series([(i, 1.0) for i in range(n)], window=10)
        assert [r for r, _ in smoothed] == list(range(n))
        np.testing.assert_allclose([v for _, v in smoothed], 1.0, rtol=0, atol=1e-15)

    def test_smooth_series_edge_cases(self):
        assert smooth_series([], 5) == []
        with pytest.raises(ValueError):
            smooth_series([(0, 1.0)], 0)

    def test_participation_sweep(self):
        out = participation_sweep(
            k_values=(2, 4), dataset="mnist", partition="CE", n_clients=6,
            methods=("fedavg",), scale="ci", rounds=2,
        )
        assert set(out) == {2, 4}
        assert "fedavg" in out[2]

    def test_participation_sweep_rejects_k_above_n_before_any_run(self, monkeypatch):
        ran = []
        monkeypatch.setattr(sweep, "run_experiment", ran.append)
        with pytest.raises(ValueError):
            participation_sweep(k_values=(2, 10), n_clients=5, scale="ci",
                                methods=("fedavg",))
        assert ran == []

    def test_noniid_sweep(self):
        out = noniid_sweep(
            deltas=(0.3, 0.6), dataset="mnist", partition="CE", n_clients=6,
            methods=("fedavg",), scale="ci", rounds=2,
        )
        assert set(out) == {0.3, 0.6}


class TestOverheadFigure:
    def test_shapes_and_growth(self):
        out = server_overhead_figure(model_dims=(1_000, 200_000), n_clients=5, repeats=3)
        assert set(out) == {1_000, 200_000}
        for dim in out:
            assert out[dim]["drl_ms"] > 0
        # Aggregation cost grows with model size; DRL inference does not
        # scale with it (generous bound — wall-clock noise under load).
        assert out[200_000]["aggregation_ms"] > out[1_000]["aggregation_ms"]
        assert out[200_000]["drl_ms"] < out[1_000]["drl_ms"] * 20 + 5.0


class TestConvergence:
    def test_rounds_to_accuracy(self):
        cfg = ExperimentConfig(dataset="mnist", partition="IID", method="fedavg",
                               scale="ci", n_clients=5, clients_per_round=5, rounds=4)
        hist = run_experiment(cfg).history
        assert hist.rounds_to_accuracy(0.0) == 0
        assert hist.rounds_to_accuracy(1.01) is None

    @staticmethod
    def _stub_curves(monkeypatch, curves):
        """Each method's run yields a History with the given accuracy curve."""
        def fake_run(cfg):
            history, empty = History(), np.zeros(0)
            for idx, acc in enumerate(curves[cfg.method]):
                history.append(RoundRecord(idx, [], empty, empty, empty, empty, 0.0, 0.0,
                                           test_accuracy=acc))
            return ExperimentResult(cfg, history.best_accuracy(), history, 0.0)
        monkeypatch.setattr(sweep, "run_experiment", fake_run)

    def test_relative_divides_round_counts_not_indices(self, monkeypatch):
        # Target is min of bests = 0.5: FedAvg's 4th round, FedDRL's 2nd.
        self._stub_curves(monkeypatch, {
            "fedavg": [0.1, 0.2, 0.3, 0.5],
            "feddrl": [0.1, 0.6, 0.7, 0.7],
        })
        out = convergence_table(methods=("fedavg", "feddrl"), scale="ci")
        assert out["target"] == 0.5
        assert out["rounds"] == {"fedavg": 3, "feddrl": 1}
        assert out["relative"] == {"fedavg": 2.0, "feddrl": 1.0}

    def test_relative_when_feddrl_reaches_target_in_first_round(self, monkeypatch):
        self._stub_curves(monkeypatch, {
            "fedavg": [0.1, 0.4],
            "fedprox": [0.4, 0.4],
            "feddrl": [0.5, 0.5],
        })
        out = convergence_table(scale="ci")
        assert out["rounds"] == {"fedavg": 1, "fedprox": 0, "feddrl": 0}
        assert out["relative"] == {"fedavg": 2.0, "fedprox": 1.0, "feddrl": 1.0}

    def test_relative_is_none_without_feddrl(self, monkeypatch):
        self._stub_curves(monkeypatch, {"fedavg": [0.2, 0.3], "fedprox": [0.3, 0.2]})
        out = convergence_table(methods=("fedavg", "fedprox"), scale="ci")
        assert out["rounds"] == {"fedavg": 1, "fedprox": 0}
        assert out["relative"] == {"fedavg": None, "fedprox": None}

    def test_convergence_table_structure(self):
        out = convergence_table(
            dataset="mnist", partition="CE", methods=("fedavg", "feddrl"),
            scale="ci", n_clients=5, rounds=3,
        )
        assert set(out["rounds"]) == {"fedavg", "feddrl"}
        assert out["relative"]["feddrl"] == pytest.approx(1.0)
        assert 0 <= out["target"] <= 1
