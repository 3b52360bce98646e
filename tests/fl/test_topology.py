"""First-class hierarchical topology in both engines (Section 3.5).

``topology="hier"`` folds each synchronous round — or each async buffer
window — into per-edge FedAvg pseudo-updates before the cloud strategy
(and any robust defense) runs.  FedAvg is associative over sample
counts, so the hier path must agree with flat aggregation numerically;
records keep client-level participants/losses with the *effective*
per-client impact factors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.robust import RobustAggregator
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.fl.async_.server import AsyncFederatedServer
from repro.runtime import VirtualClock


def sync_sim(clients, factory, test, topology="flat", rounds=4, **kw):
    cfg = FLConfig(rounds=rounds, clients_per_round=len(clients),
                   local_epochs=1, lr=0.05, batch_size=16, seed=0)
    return FederatedSimulation(clients, test, factory, FedAvg(), cfg,
                               topology=topology, **kw)


def async_server(clients, factory, test, topology="flat", **kw):
    clock = VirtualClock("lognormal", len(clients), seed=23)
    cfg = FLConfig(rounds=4, clients_per_round=4, local_epochs=1, lr=0.05,
                   batch_size=16, seed=0)
    return AsyncFederatedServer(
        clients, test, factory, FedAvg(), cfg, clock=clock,
        buffer_size=3, max_concurrency=4, topology=topology, **kw,
    )


class TestSyncHier:
    def test_matches_flat_for_fedavg(self, tiny_clients, tiny_model_factory,
                                     tiny_data):
        """(edge FedAvg) o (cloud FedAvg) == flat FedAvg, so the hier
        topology must track the flat run to numerical precision."""
        _, test = tiny_data
        flat = sync_sim(tiny_clients, tiny_model_factory, test)
        hier = sync_sim(tiny_clients, tiny_model_factory, test,
                        topology="hier", n_edges=3)
        flat_hist, hier_hist = flat.run(), hier.run()
        np.testing.assert_allclose(
            hier.global_weights, flat.global_weights, atol=1e-10
        )
        assert hier_hist.accuracy_series() == flat_hist.accuracy_series()

    def test_records_keep_client_level_data(self, tiny_clients,
                                            tiny_model_factory, tiny_data):
        _, test = tiny_data
        sim = sync_sim(tiny_clients, tiny_model_factory, test,
                       topology="hier", n_edges=2, rounds=2)
        hist = sim.run()
        for rec in hist.records:
            assert len(rec.participants) == len(tiny_clients)
            assert rec.impact_factors.shape == (len(tiny_clients),)
            assert rec.impact_factors.sum() == pytest.approx(1.0)
            assert rec.client_losses_before.shape == (len(tiny_clients),)

    def test_composes_with_robust_aggregation(self, tiny_clients,
                                              tiny_model_factory, tiny_data):
        """The defense judges edge aggregates; rejected edges expand to
        their member client ids in the record."""
        _, test = tiny_data
        sim = sync_sim(
            tiny_clients, tiny_model_factory, test, topology="hier",
            n_edges=3, rounds=2,
            defense=RobustAggregator("krum", byzantine_fraction=0.3),
        )
        hist = sim.run()
        assert hist.best_accuracy() > 0.25
        participants = set(hist.records[0].participants)
        for rec in hist.records:
            # Krum rejects whole edges; every reported id is a real client.
            assert set(rec.rejected_updates) <= participants

    def test_validation(self, tiny_clients, tiny_model_factory, tiny_data):
        _, test = tiny_data
        with pytest.raises(ValueError, match="topology"):
            sync_sim(tiny_clients, tiny_model_factory, test, topology="ring")
        with pytest.raises(ValueError, match="n_edges"):
            sync_sim(tiny_clients, tiny_model_factory, test,
                     topology="hier", n_edges=0)


class TestAsyncHier:
    def test_runs_and_keeps_client_level_records(self, tiny_clients,
                                                 tiny_model_factory,
                                                 tiny_data):
        _, test = tiny_data
        with async_server(tiny_clients, tiny_model_factory, test,
                          topology="hier", n_edges=2) as server:
            hist = server.run()
        assert len(hist.records) >= 1
        for rec in hist.records:
            assert rec.impact_factors.shape == (len(rec.participants),)
            assert rec.impact_factors.sum() == pytest.approx(1.0)
            for cid in rec.participants:
                assert 0 <= cid < len(tiny_clients)

    def test_tracks_flat_for_fedavg(self, tiny_clients, tiny_model_factory,
                                    tiny_data):
        """Same arrivals, same windows; folding a window into edges and
        re-weighting by folded staleness factors is the same weighted
        mean, so the final weights agree to numerical precision."""
        _, test = tiny_data
        with async_server(tiny_clients, tiny_model_factory, test) as flat:
            flat.run()
        with async_server(tiny_clients, tiny_model_factory, test,
                          topology="hier", n_edges=3) as hier:
            hier.run()
        np.testing.assert_allclose(
            hier.global_weights, flat.global_weights, atol=1e-8
        )

    def test_composes_with_defense_and_delta_mix(self, tiny_clients,
                                                 tiny_model_factory,
                                                 tiny_data):
        _, test = tiny_data
        with async_server(
            tiny_clients, tiny_model_factory, test, topology="hier",
            n_edges=2, server_mix="delta",
            defense=RobustAggregator("median"),
        ) as server:
            hist = server.run()
        assert len(hist.records) >= 1
        assert np.isfinite(server.global_weights).all()

    def test_validation(self, tiny_clients, tiny_model_factory, tiny_data):
        _, test = tiny_data
        with pytest.raises(ValueError, match="topology"):
            async_server(tiny_clients, tiny_model_factory, test,
                         topology="mesh")
