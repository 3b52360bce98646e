"""SingleSet (Tables 3-4): all the clients' data on one machine.

It runs through the engine as a synchronous FedAvg run in which one client
holds the whole training set — K = N = 1, one local epoch per round, as
many rounds as its epoch budget (``rounds x local_epochs // 10``),
evaluated every round — so it has every backend, tracing and checkpoints.
"""

import pytest

from repro.__main__ import main
from repro.fl.simulation import History
from repro.harness.config import SCALES, ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import run_experiment

# 15 rounds x 2 local epochs (ci) // 10: three epochs.
CELL = dict(method="singleset", scale="ci", rounds=15, lr=0.05)


def run(**overrides):
    return run_experiment(ExperimentConfig(**{**CELL, **overrides}))


class TestSingleSet:
    def test_records_per_epoch(self):
        records = run().history.records
        assert len(records) == 3
        for r in records:
            assert r.participants == [0]
            assert r.client_sizes.tolist() == [SCALES["ci"].n_train]
            assert r.impact_factors.tolist() == [1.0]
            assert r.test_accuracy is not None

    def test_learns_above_chance(self):
        assert run(rounds=50).best_accuracy > 0.5  # ten epochs; chance is 0.1

    def test_zero_epochs_raises(self):
        with pytest.raises(ValueError, match="rounds"):
            ExperimentConfig(method="singleset", rounds=0)

    def test_best_accuracy_empty_raises(self):
        result = run()
        assert result.best_accuracy == max(
            a for _, a in result.history.accuracy_series()
        )
        with pytest.raises(ValueError):
            History().best_accuracy()


class TestOneClientRun:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_agree_with_serial(self, backend):
        serial = history_digest(run().history)
        assert history_digest(run(backend=backend, workers=2).history) == serial

    def test_traced_run_writes_a_trace(self, tmp_path):
        path = tmp_path / "singleset.trace.jsonl"
        traced = run(trace=str(path), latency_model="lognormal")
        assert path.stat().st_size > 0
        untraced = run(latency_model="lognormal")
        assert history_digest(traced.history) == history_digest(untraced.history)

    def test_engine_features_compose(self):
        result = run(
            fleet_mode="lazy", latency_model="lognormal", availability="markov",
            codec="topk+qsgd8", aggregator="krum", fault_exception_prob=0.2,
        )
        assert len(result.history.records) == 3
        assert result.extra["wire"]["compression_ratio"] > 1

    @pytest.mark.parametrize("extra", [
        dict(aggregation="fedbuff", latency_model="uniform"),
        dict(topology="hier"),
        dict(attack="sign_flip"),
    ], ids=["async", "hier", "attack"])
    def test_needs_more_than_one_client(self, extra):
        with pytest.raises(ValueError, match="singleset"):
            ExperimentConfig(method="singleset", **extra)

    def test_cli_rejects_hier_with_exit_2(self, capsys):
        assert main(["--method", "singleset", "--scale", "ci",
                     "--topology", "hier"]) == 2
        assert "singleset" in capsys.readouterr().err
