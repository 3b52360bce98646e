"""Cross-module integration tests: the paper's pipeline end to end.

These tests tie the substrates together exactly the way the benches do:
synthetic data -> partitioner -> FL simulation -> strategy -> metrics, and
a two-stage pretrained agent driving a federated run.
"""

import numpy as np
import pytest

from repro.data.partition import clustered_equal_partition, iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.drl.agent import DRLConfig
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg, FedDRL, FedProx
from repro.harness.config import ExperimentConfig
from repro.harness.runner import pretrain_feddrl_agent, run_experiment
from functools import partial

from repro.nn.models import mlp


def build_population(n_clients=8, n_train=320, seed=0, partition="iid", delta=0.6):
    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
    train, test = make_synthetic_dataset(spec, n_train, 120, np.random.default_rng(seed))
    if partition == "iid":
        parts = iid_partition(train.y, n_clients, np.random.default_rng(seed + 1))
    else:
        parts = clustered_equal_partition(
            train.y, n_clients, np.random.default_rng(seed + 1),
            delta=delta, n_clusters=2,
        )
    clients = make_clients(train, parts)
    features = int(np.prod(train.x.shape[1:]))
    factory = partial(mlp, features, train.num_classes, hidden=(16,))
    return clients, test, factory


class TestFullPipeline:
    @pytest.mark.parametrize("strategy_factory", [
        FedAvg,
        FedProx,
        lambda: FedDRL(clients_per_round=4,
                       drl_config=DRLConfig(min_buffer=2, batch_size=2, updates_per_round=1),
                       seed=0),
    ])
    def test_strategies_learn_on_cluster_skew(self, strategy_factory):
        clients, test, factory = build_population(partition="ce")
        cfg = FLConfig(rounds=10, clients_per_round=4, local_epochs=1, lr=0.05,
                       batch_size=16, seed=0)
        sim = FederatedSimulation(clients, test, factory, strategy_factory(), cfg)
        hist = sim.run()
        assert hist.best_accuracy() > 0.4  # chance is 0.25

    def test_global_model_weights_stay_finite(self):
        clients, test, factory = build_population()
        cfg = FLConfig(rounds=6, clients_per_round=4, local_epochs=2, lr=0.05,
                       batch_size=16, seed=0)
        sim = FederatedSimulation(clients, test, factory, FedAvg(), cfg)
        sim.run()
        assert np.all(np.isfinite(sim.global_weights))

    def test_feddrl_impact_factors_adapt(self):
        """Over training the agent's impact factors should depart from the
        uniform/FedAvg allocation — the whole point of adaptive weighting."""
        clients, test, factory = build_population(partition="ce")
        strat = FedDRL(
            clients_per_round=4,
            drl_config=DRLConfig(min_buffer=2, batch_size=4, updates_per_round=2),
            seed=0,
        )
        cfg = FLConfig(rounds=12, clients_per_round=4, local_epochs=1, lr=0.05,
                       batch_size=16, seed=0)
        sim = FederatedSimulation(clients, test, factory, strat, cfg)
        hist = sim.run()
        alphas = np.stack([r.impact_factors for r in hist.records])
        # Not all rounds can be the uniform vector.
        assert np.abs(alphas - 0.25).max() > 0.01


class TestTwoStageWithFL:
    def test_two_stage_pretraining_plugs_into_feddrl(self):
        """Section 3.4.2 end to end: worker engine runs collect FL
        experience, the main agent trains offline, and the result drives a
        FedDRL simulation on another population."""
        cfg = ExperimentConfig(
            method="feddrl", scale="ci", n_clients=6, clients_per_round=3,
            drl_pretrain_rounds=5, drl_offline_updates=10,
        ).with_(n_train=150, n_test=60)
        drl_cfg = DRLConfig(min_buffer=4, batch_size=4, updates_per_round=1)
        main_agent = pretrain_feddrl_agent(cfg, drl_cfg)
        assert len(main_agent.buffer) == cfg.drl_pretrain_workers * 5

        clients, test, factory = build_population(n_clients=6, seed=99)
        strat = FedDRL(clients_per_round=3, agent=main_agent, explore=False,
                       online_training=False)
        sim = FederatedSimulation(
            clients, test, factory, strat,
            FLConfig(rounds=3, clients_per_round=3, local_epochs=1, lr=0.05,
                     batch_size=16, seed=1),
        )
        hist = sim.run()
        assert len(hist.records) == 3
        assert all(r.impact_factors.sum() == pytest.approx(1.0) for r in hist.records)


class TestPaperShapeAtTinyScale:
    """Smoke-level shape checks; the benches under ``benchmarks/`` check
    them at the ``bench`` scale."""

    def test_cluster_skew_hurts_fedavg_vs_iid(self):
        """FedAvg accuracy on CE-partitioned data should not exceed its IID
        accuracy (statistical heterogeneity hurts — Table 3's premise)."""
        accs = {}
        for partition in ("IID", "CE"):
            cfg = ExperimentConfig(
                dataset="mnist", partition=partition, method="fedavg",
                scale="ci", n_clients=10, clients_per_round=5, seed=3,
            ).with_(rounds=8)
            accs[partition] = run_experiment(cfg).best_accuracy
        assert accs["CE"] <= accs["IID"] + 0.05

    def test_all_paper_cells_runnable(self):
        """Every (dataset, partition, method) combination must execute."""
        for dataset in ("mnist", "fashion", "cifar100"):
            for partition in ("PA", "CE", "CN"):
                for method in ("fedavg", "feddrl"):
                    cfg = ExperimentConfig(
                        dataset=dataset, partition=partition, method=method,
                        scale="ci", n_clients=5, clients_per_round=5, seed=0,
                    ).with_(rounds=2, n_train=200, n_test=80)
                    result = run_experiment(cfg)
                    assert 0.0 <= result.best_accuracy <= 1.0
