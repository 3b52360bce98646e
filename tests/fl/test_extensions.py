"""Tests for the Section 3.5 extension modules: compression, hierarchy,
client selection."""

import numpy as np
import pytest

from repro.fl.client import ClientUpdate
from repro.fl.hierarchical import assign_edges, edge_aggregate
from repro.fl.selection import UniformSelection
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg, FedDRL
from repro.fl.wire import HEADER_NBYTES, WireFormat, roundtrip


def dense_update(dim=50, seed=0, cid=0, n=10):
    rng = np.random.default_rng(seed)
    return ClientUpdate(cid, rng.normal(size=dim), 1.0, 0.5, n)


def topk_wire(k, dim):
    """Top-k uploads without error feedback (the bare sparsifier)."""
    return WireFormat("topk", base_seed=0, topk_frac=k / dim, error_feedback=False)


class TestCompression:
    def test_topk_keeps_largest_deltas(self):
        g = np.zeros(6)
        u = ClientUpdate(0, np.array([0.1, -5.0, 0.2, 3.0, 0.0, -0.3]), 1.0, 0.5, 10)
        indices, values = roundtrip("topk", u.weights - g, None, 2 / 6)
        assert indices.tolist() == [1, 3]
        assert values.tolist() == [-5.0, 3.0]

    def test_roundtrip_exact_when_k_equals_dim(self):
        g = np.random.default_rng(1).normal(size=30)
        u = dense_update(30, seed=2)
        restored, _ = topk_wire(30, 30).transmit(u, 0, g)
        np.testing.assert_allclose(restored.weights, u.weights)

    def test_lossy_reconstruction_error_decreases_with_k(self):
        g = np.zeros(100)
        u = dense_update(100, seed=3)
        errs = []
        for k in (5, 20, 80):
            restored, _ = topk_wire(k, 100).transmit(u, 0, g)
            errs.append(float(np.linalg.norm(restored.weights - u.weights)))
        assert errs[0] > errs[1] > errs[2]

    def test_metadata_preserved(self):
        g = np.zeros(10)
        u = dense_update(10, seed=4, cid=7, n=42)
        restored, _ = topk_wire(3, 10).transmit(u, 0, g)
        assert restored.client_id == 7
        assert restored.n_samples == 42
        assert restored.loss_before == u.loss_before

    def test_compression_ratio(self):
        """Exact bytes: dense float64 arena over k (uint32 index, float64
        value) pairs, each behind one payload header."""
        wire = topk_wire(10, 1000)
        wire.transmit(dense_update(1000, seed=5), 0, np.zeros(1000))
        assert wire.stats.compression_ratio() == pytest.approx(
            (HEADER_NBYTES + 1000 * 8) / (HEADER_NBYTES + 10 * (4 + 8))
        )

    def test_compress_round(self):
        g = np.zeros(40)
        wire = topk_wire(4, 40)
        restored = [
            wire.transmit(dense_update(40, seed=i, cid=i), 0, g)[0] for i in range(3)
        ]
        assert [u.client_id for u in restored] == [0, 1, 2]
        assert all(np.count_nonzero(u.weights) == 4 for u in restored)
        assert wire.stats.uploads == 3
        assert wire.stats.bytes_up == 3 * (HEADER_NBYTES + 4 * (4 + 8))

    def test_compressed_clients_in_simulation(self, tiny_clients, tiny_data, tiny_model_factory):
        """The full loop runs with lossy uploads and still learns."""
        _, test = tiny_data
        dim = tiny_model_factory(np.random.default_rng(0)).get_flat_weights().size
        wire = topk_wire(50, dim)
        cfg = FLConfig(rounds=6, clients_per_round=4, local_epochs=1, lr=0.05,
                       batch_size=16, seed=0)
        sim = FederatedSimulation(tiny_clients, test, tiny_model_factory, FedAvg(),
                                  cfg, wire=wire)
        hist = sim.run()
        assert hist.best_accuracy() > 0.3
        assert wire.stats.uploads == 6 * 4
        assert hist.wire_compression_ratio() > 1.0


class TestHierarchical:
    def test_edge_aggregate_is_fedavg(self):
        ups = [dense_update(10, seed=i, cid=i, n=10 * (i + 1)) for i in range(3)]
        agg = edge_aggregate(ups, edge_id=0)
        n = np.array([10.0, 20.0, 30.0])
        expected = (n / n.sum()) @ np.stack([u.weights for u in ups])
        np.testing.assert_allclose(agg.weights, expected)
        assert agg.n_samples == 60

    def test_assign_edges_round_robin(self):
        edges = assign_edges([5, 2, 9, 0], n_edges=2)
        assert set(edges.values()) <= {0, 1}
        assert sorted(edges) == [0, 2, 5, 9]

    def hier_sim(self, clients, test, factory, strategy, n_edges, k, rounds=1):
        cfg = FLConfig(rounds=rounds, clients_per_round=k, local_epochs=1, lr=0.05,
                       batch_size=16, seed=0)
        return FederatedSimulation(clients, test, factory, strategy, cfg,
                                   topology="hier", n_edges=n_edges)

    def test_aggregator_two_levels(self, tiny_clients, tiny_data, tiny_model_factory):
        """Edge FedAvg then cloud FedAvg: every client is recorded with
        cloud alpha x within-edge share, which for FedAvg is its flat
        sample share."""
        _, test = tiny_data
        sim = self.hier_sim(tiny_clients, test, tiny_model_factory, FedAvg(),
                            n_edges=3, k=6)
        rec = sim.run().records[0]
        assert sim.global_weights.shape == sim.model.get_flat_weights().shape
        assert len(rec.participants) == 6
        np.testing.assert_allclose(
            rec.impact_factors, rec.client_sizes / rec.client_sizes.sum()
        )

    def test_thin_round_caps_edge_count(self, tiny_clients, tiny_data, tiny_model_factory):
        """Fewer participants than edges: the fold populates one edge per
        distinct client instead of refusing the round."""
        _, test = tiny_data
        sim = self.hier_sim(tiny_clients, test, tiny_model_factory, FedAvg(),
                            n_edges=5, k=2, rounds=2)
        for rec in sim.run().records:
            assert len(rec.participants) == 2
            assert rec.impact_factors.sum() == pytest.approx(1.0)

    def test_hierarchical_strategy_in_simulation(self, tiny_clients, tiny_data, tiny_model_factory):
        """Hierarchical FedDRL (Sec. 3.5 claim): cloud FedDRL over 2 edges."""
        from repro.drl.agent import DRLConfig

        _, test = tiny_data
        cloud = FedDRL(clients_per_round=2,  # = n_edges
                       drl_config=DRLConfig(min_buffer=2, batch_size=2, updates_per_round=1),
                       seed=0)
        sim = self.hier_sim(tiny_clients, test, tiny_model_factory, cloud,
                            n_edges=2, k=4, rounds=5)
        hist = sim.run()
        assert len(hist.records) == 5
        # Cloud agent collected transitions over edge pseudo-clients.
        assert len(cloud.agent.buffer) == 4
        for rec in hist.records:
            assert rec.impact_factors.sum() == pytest.approx(1.0)


class TestSelection:
    def test_uniform_distinct(self):
        sel = UniformSelection(np.random.default_rng(0))
        for t in range(5):
            picked = sel.select(10, 4, t)
            assert len(set(picked)) == 4

    def test_selection_validation(self):
        with pytest.raises(ValueError):
            UniformSelection(np.random.default_rng(0)).select(3, 5, 0)
