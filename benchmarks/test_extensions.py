"""Section 3.5 compatibility benches (the paper's extension claims).

The paper asserts FedDRL "is still applicable to other communication
techniques such as sparse data compression [4, 18] or hierarchical
architecture [28]" without evaluating either.  These benches test the
claims: FedDRL's accuracy under top-k sparsified uploads and under a
two-level edge/cloud topology, against its dense flat-topology accuracy.
"""

import pytest

from repro.drl.agent import DRLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import FedDRL
from repro.fl.wire import WireFormat
from repro.harness.config import ExperimentConfig
from repro.harness.runner import (
    build_dataset,
    build_fl_config,
    build_model_factory,
    build_partition,
)
from repro.fl.client import make_clients
from repro.runtime.seeding import STREAM_PARTITION, run_rng

BASE = ExperimentConfig(
    dataset="fashion", partition="CE", method="feddrl",
    n_clients=10, clients_per_round=10, scale="bench", seed=0,
)


def build_pieces(cfg):
    train, test = build_dataset(cfg)
    parts = build_partition(cfg, train.y, run_rng(cfg.seed, STREAM_PARTITION))
    clients = make_clients(train, parts)
    return clients, test, build_model_factory(cfg, train)


def drl_cfg(**kw):
    return DRLConfig(min_buffer=8, batch_size=16, updates_per_round=8,
                     gamma=0.9, noise_scale=0.05, noise_decay=0.99, **kw)


@pytest.mark.benchmark(group="extensions")
def test_feddrl_under_sparse_compression(benchmark, once):
    """FedDRL with top-k sparsified uploads vs dense uploads."""

    def run():
        results = {}
        for mode, k_fraction in (("dense", None), ("top10pct", 0.10)):
            cfg = BASE.with_(rounds=40)
            clients, test, factory = build_pieces(cfg)
            wire = None
            if k_fraction is not None:
                wire = WireFormat("topk", cfg.seed, topk_frac=k_fraction,
                                  error_feedback=False)
            strat = FedDRL(clients_per_round=10, drl_config=drl_cfg(), seed=13)
            sim = FederatedSimulation(clients, test, factory, strat,
                                      build_fl_config(cfg), wire=wire)
            results[mode] = sim.run().best_accuracy()
        return results

    results = once(benchmark, run)
    print(f"\nExtension: sparse uploads — {results}")
    # Compatibility: the pipeline still learns under 10x compression.
    # Naive top-k (no error feedback, which [18] adds) costs measurable
    # accuracy; the printed results show the gap.
    assert results["top10pct"] >= results["dense"] - 0.25
    assert results["top10pct"] > 0.4  # far above the 0.1 chance level


@pytest.mark.benchmark(group="extensions")
def test_feddrl_hierarchical_topology(benchmark, once):
    """Cloud-level FedDRL over edge FedAvg aggregates (H-FL topology)."""

    def run():
        cfg = BASE.with_(rounds=40)
        clients, test, factory = build_pieces(cfg)
        cloud = FedDRL(clients_per_round=5,  # = n_edges
                       drl_config=drl_cfg(), seed=13)
        sim = FederatedSimulation(clients, test, factory, cloud,
                                  build_fl_config(cfg),
                                  topology="hier", n_edges=5)
        hier = sim.run().best_accuracy()

        clients2, test2, factory2 = build_pieces(cfg)
        flat_strat = FedDRL(clients_per_round=10, drl_config=drl_cfg(), seed=13)
        flat_sim = FederatedSimulation(clients2, test2, factory2, flat_strat,
                                       build_fl_config(cfg))
        flat = flat_sim.run().best_accuracy()
        return {"hierarchical": hier, "flat": flat}

    results = once(benchmark, run)
    print(f"\nExtension: hierarchical topology — {results}")
    assert results["hierarchical"] >= results["flat"] - 0.15
