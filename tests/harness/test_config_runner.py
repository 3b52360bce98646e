"""Tests for experiment configuration and the runner."""

import numpy as np
import pytest

from repro.harness.config import SCALES, ExperimentConfig
from repro.harness.runner import (
    build_dataset,
    build_fl_config,
    build_model_factory,
    build_partition,
    build_simulation,
    build_strategy,
    run_experiment,
)

FAST = dict(scale="ci", n_clients=5, clients_per_round=5)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="imagenet")
        with pytest.raises(ValueError):
            ExperimentConfig(partition="XX")
        with pytest.raises(ValueError):
            ExperimentConfig(method="fedsgd")
        with pytest.raises(ValueError):
            ExperimentConfig(scale="huge")
        with pytest.raises(ValueError):
            ExperimentConfig(n_clients=5, clients_per_round=10)
        with pytest.raises(ValueError):
            ExperimentConfig(delta=0.0)

    def test_runtime_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(backend="gpu")
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(latency_model="fractal")
        with pytest.raises(ValueError):
            ExperimentConfig(deadline_policy="retry")
        with pytest.raises(ValueError):
            ExperimentConfig(straggler_fraction=1.5)
        with pytest.raises(ValueError, match="feddrl"):
            ExperimentConfig(method="feddrl", latency_model="uniform",
                             deadline_s=1.0, deadline_policy="drop")
        with pytest.raises(ValueError, match="deadline_s"):
            ExperimentConfig(latency_model="uniform", deadline_policy="drop")
        with pytest.raises(ValueError, match="latency_model"):
            ExperimentConfig(straggler_fraction=0.3)  # clock off -> no effect
        with pytest.raises(ValueError, match="slowdown"):
            ExperimentConfig(latency_model="uniform", straggler_fraction=0.3,
                             straggler_slowdown=0.5)
        with pytest.raises(ValueError, match="singleset"):
            ExperimentConfig(method="singleset", topology="hier")
        # SingleSet is a one-client engine run: every backend runs it.
        ExperimentConfig(method="singleset", backend="process")
        # drop is fine for methods that tolerate a short round...
        ExperimentConfig(method="fedavg", latency_model="uniform",
                         deadline_s=1.0, deadline_policy="drop")
        # ...and feddrl is fine when the clock only waits.
        ExperimentConfig(method="feddrl", latency_model="uniform")

    def test_resolved_falls_back_to_preset(self):
        cfg = ExperimentConfig(scale="ci")
        assert cfg.resolved("rounds") == SCALES["ci"].rounds
        assert cfg.with_(rounds=99).resolved("rounds") == 99

    def test_labels_per_client_defaults(self):
        assert ExperimentConfig(dataset="mnist", partition="PA").effective_labels_per_client == 2
        cifar_pa = ExperimentConfig(dataset="cifar100", partition="PA", scale="ci")
        # 20% of the stand-in's class count, mirroring 20/100 in the paper.
        assert cifar_pa.effective_labels_per_client == SCALES["ci"].cifar_classes // 5
        explicit = ExperimentConfig(labels_per_client=7)
        assert explicit.effective_labels_per_client == 7

    def test_effective_model_auto(self):
        paper_cifar = ExperimentConfig(dataset="cifar100", scale="paper")
        assert paper_cifar.effective_model == "vgg11"
        paper_mnist = ExperimentConfig(dataset="mnist", scale="paper")
        assert paper_mnist.effective_model == "simple_cnn"
        ci = ExperimentConfig(dataset="mnist", scale="ci")
        assert ci.effective_model == "mlp"

    def test_with_is_functional(self):
        a = ExperimentConfig()
        b = a.with_(seed=42)
        assert a.seed == 0 and b.seed == 42


class TestBuilders:
    @pytest.mark.parametrize("dataset", ["mnist", "fashion", "cifar100"])
    def test_build_dataset_geometry(self, dataset):
        cfg = ExperimentConfig(dataset=dataset, **FAST)
        train, test = build_dataset(cfg)
        assert len(train) == SCALES["ci"].n_train
        assert len(test) == SCALES["ci"].n_test
        expected_channels = 3 if dataset == "cifar100" else 1
        assert train.x.shape[1] == expected_channels

    @pytest.mark.parametrize("model", ["mlp", "simple_cnn", "vgg_mini"])
    def test_build_model_factory(self, model):
        cfg = ExperimentConfig(model=model, **FAST)
        train, _ = build_dataset(cfg)
        factory = build_model_factory(cfg, train)
        net = factory(np.random.default_rng(0))
        out = net.forward(train.x[:2])
        assert out.shape == (2, train.num_classes)

    @pytest.mark.parametrize("partition", ["IID", "PA", "CE", "CN", "EQUAL", "NONEQUAL"])
    def test_build_partition_all_schemes(self, partition):
        cfg = ExperimentConfig(partition=partition, **FAST)
        train, _ = build_dataset(cfg)
        parts = build_partition(cfg, train.y, np.random.default_rng(0))
        assert len(parts) == 5
        assert all(p.size > 0 for p in parts)

    def test_build_strategy_kinds(self):
        from repro.fl.strategies import FedAvg, FedDRL, FedProx

        assert isinstance(build_strategy(ExperimentConfig(method="fedavg")), FedAvg)
        assert isinstance(build_strategy(ExperimentConfig(method="fedprox")), FedProx)
        drl = build_strategy(ExperimentConfig(method="feddrl", **FAST))
        assert isinstance(drl, FedDRL)
        assert drl.k == 5
        with pytest.raises(ValueError):
            build_strategy(ExperimentConfig(method="singleset"))

    def test_build_fl_config(self):
        cfg = ExperimentConfig(**FAST).with_(rounds=7)
        fl_cfg = build_fl_config(cfg)
        assert fl_cfg.rounds == 7
        assert fl_cfg.clients_per_round == 5

    def test_build_simulation_complete(self):
        sim = build_simulation(ExperimentConfig(method="fedavg", **FAST).with_(rounds=2))
        assert len(sim.clients) == 5


class TestRunExperiment:
    @pytest.mark.parametrize("method", ["fedavg", "fedprox", "feddrl"])
    def test_federated_methods(self, method):
        cfg = ExperimentConfig(method=method, **FAST).with_(rounds=3)
        result = run_experiment(cfg)
        assert 0.0 <= result.best_accuracy <= 1.0
        assert result.history is not None
        assert len(result.history.records) == 3
        assert result.wall_time_s > 0

    def test_singleset(self):
        # 10 rounds x 2 local epochs // 10: two one-epoch rounds of one client.
        cfg = ExperimentConfig(method="singleset", **FAST).with_(rounds=10)
        result = run_experiment(cfg)
        accuracies = [a for _, a in result.history.accuracy_series()]
        assert len(accuracies) == 2
        assert result.best_accuracy == max(accuracies)
        assert 0.0 <= result.best_accuracy <= 1.0

    def test_deterministic(self):
        cfg = ExperimentConfig(method="fedavg", **FAST).with_(rounds=2)
        assert run_experiment(cfg).best_accuracy == run_experiment(cfg).best_accuracy

    def test_different_seeds_differ(self):
        cfg = ExperimentConfig(method="fedavg", **FAST).with_(rounds=2)
        a = run_experiment(cfg)
        b = run_experiment(cfg.with_(seed=99))
        assert a.best_accuracy != b.best_accuracy or not np.array_equal(
            a.history.records[0].client_losses_before,
            b.history.records[0].client_losses_before,
        )
