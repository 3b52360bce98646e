"""The one window-aggregation routine both engines run.

Two properties the single path makes testable: a synchronous round *is*
an async flush with neutral window inputs, and a non-finite upload is
refused before it can reach ``global_weights`` — in either engine.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.fl.async_.server import AsyncFederatedServer
from repro.fl.client import ClientUpdate
from repro.fl.robust import RobustAggregator
from repro.fl.simulation import (
    FederatedSimulation,
    FLConfig,
    NonFiniteUpdateError,
    aggregate_window,
)
from repro.fl.strategies import FedAvg
from repro.fl.wire import WIRE_CODECS, WireFormat
from repro.runtime import VirtualClock

TOPOLOGIES = {"flat": None, "hier": 3}
DEFENSES = {
    "mean": lambda: None,
    "krum": lambda: RobustAggregator("krum", byzantine_fraction=0.3),
    "norm_clip": lambda: RobustAggregator("norm_clip"),
}


def make_window(n=7, dim=40, seed=0):
    rng = np.random.default_rng(seed)
    global_weights = rng.normal(size=dim)
    updates = [
        ClientUpdate(
            client_id=cid,
            weights=global_weights + rng.normal(scale=0.1 * (1 + cid), size=dim),
            loss_before=float(rng.uniform(1, 2)),
            loss_after=float(rng.uniform(0, 1)),
            n_samples=int(rng.integers(5, 50)),
        )
        for cid in range(n)
    ]
    return global_weights, updates


class TestSyncIsANeutralFlush:
    """sync == fedbuff(constant staleness, server_mix=1, anchors = current
    global weights).  The flush renormalizes its alphas, so the match is
    to rounding, not to the bit."""

    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("form", ["weight", "delta"])
    def test_same_weights_alphas_and_verdicts(self, topology, defense, form):
        g, updates = make_window()
        common = dict(defense=DEFENSES[defense](), n_edges=TOPOLOGIES[topology])
        sync = aggregate_window(g, FedAvg(), updates, 0, **common)
        flush = aggregate_window(
            g, FedAvg(), updates, 0, **common,
            factors=np.ones(len(updates)), server_mix=1.0,
            anchors=[g] * len(updates) if form == "delta" else None,
        )
        np.testing.assert_allclose(flush.weights, sync.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(flush.alphas, sync.alphas, rtol=0, atol=1e-12)
        assert flush.rejected == sync.rejected
        assert flush.clipped == sync.clipped
        if defense == "krum":
            assert sync.rejected
        if defense == "norm_clip":
            assert sync.clipped

    def test_window_never_writes_the_global_weights(self):
        g, updates = make_window()
        before = g.copy()
        result = aggregate_window(g, FedAvg(), updates, 0)
        assert result.weights is not g
        np.testing.assert_array_equal(g, before)


class PoisonedUpload:
    """Duck-typed attack: one client's upload arrives carrying a NaN."""

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id

    def backdoor_test_set(self, test_set):
        return None

    def is_malicious(self, client_id: int) -> bool:
        return client_id == self.client_id

    def perturb(self, update, anchor):
        if update.client_id != self.client_id:
            return update
        weights = update.weights.copy()
        weights[3] = np.nan
        return replace(update, weights=weights)


class TestNonFiniteUpload:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_routine_names_the_offenders(self, value):
        g, updates = make_window()
        for cid in (2, 5):
            updates[cid].weights[0] = value
        with pytest.raises(NonFiniteUpdateError, match=r"\[2, 5\]") as err:
            aggregate_window(g, FedAvg(), updates, 0)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("defense", ["mean", "krum"])
    @pytest.mark.parametrize("topology", ["flat", "hier"])
    def test_sync_engine_refuses_the_round(self, tiny_clients, tiny_data,
                                           tiny_model_factory, topology, defense):
        _, test = tiny_data
        cfg = FLConfig(rounds=2, clients_per_round=len(tiny_clients),
                       local_epochs=1, lr=0.05, batch_size=16, seed=0)
        sim = FederatedSimulation(
            tiny_clients, test, tiny_model_factory, FedAvg(), cfg,
            attack=PoisonedUpload(4), defense=DEFENSES[defense](),
            topology=topology, n_edges=3,
        )
        before = sim.global_weights.copy()
        with pytest.raises(NonFiniteUpdateError, match=r"\[4\]"):
            sim.run()
        np.testing.assert_array_equal(sim.global_weights, before)
        assert sim.history.records == []

    @pytest.mark.parametrize("codec", WIRE_CODECS)
    def test_every_codec_refuses_the_upload(self, tiny_clients, tiny_data,
                                            tiny_model_factory, codec):
        """A top-k selection never picks the NaN, so the refusal must come
        before encoding, or the server would aggregate a finite upload."""
        _, test = tiny_data
        cfg = FLConfig(rounds=2, clients_per_round=len(tiny_clients),
                       local_epochs=1, lr=0.05, batch_size=16, seed=0)
        sim = FederatedSimulation(
            tiny_clients, test, tiny_model_factory, FedAvg(), cfg,
            attack=PoisonedUpload(4), wire=WireFormat(codec, 0, topk_frac=0.1),
        )
        before = sim.global_weights.copy()
        with pytest.raises(NonFiniteUpdateError, match=r"client\S* \[?4\b"):
            sim.run()
        np.testing.assert_array_equal(sim.global_weights, before)
        assert sim.history.records == []

    @pytest.mark.parametrize("defense", ["mean", "krum"])
    @pytest.mark.parametrize("topology", ["flat", "hier"])
    def test_async_engine_refuses_the_flush(self, tiny_clients, tiny_data,
                                            tiny_model_factory, topology, defense):
        _, test = tiny_data
        cfg = FLConfig(rounds=4, clients_per_round=4, local_epochs=1, lr=0.05,
                       batch_size=16, seed=0)
        clock = VirtualClock("lognormal", len(tiny_clients), seed=23)
        with AsyncFederatedServer(
            tiny_clients, test, tiny_model_factory, FedAvg(), cfg, clock=clock,
            buffer_size=3, max_concurrency=4,
            attack=PoisonedUpload(4), defense=DEFENSES[defense](),
            topology=topology, n_edges=2,
        ) as server:
            # The weights in place after each successful flush.
            installed = [server.global_weights.copy()]
            append = server.history.append

            def spy(record):
                installed.append(server.global_weights.copy())
                append(record)

            server.history.append = spy
            with pytest.raises(NonFiniteUpdateError, match=r"\[4\]"):
                server.run()
            np.testing.assert_array_equal(server.global_weights, installed[-1])
            assert len(server.history.records) == len(installed) - 1
