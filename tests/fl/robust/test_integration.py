"""Attack/defense wiring through the engines, config, and telemetry.

Also covers the aggregation-hardening contract: ``combine_updates``
refuses empty or zero-mass inputs with actionable errors, and the async
engine skips the mix step (instead of NaN-ing the arena) when staleness
decay zeroes a whole buffer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.async_ import AsyncFederatedServer
from repro.fl.client import ClientUpdate
from repro.fl.robust import AttackModel, RobustAggregator
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.fl.strategies.base import combine_updates
from repro.harness import ExperimentConfig, run_experiment
from repro.obs import Tracer
from repro.runtime import VirtualClock


def _update(client_id, weights):
    return ClientUpdate(client_id, np.asarray(weights, float), 1.0, 0.5, 10)


class TestCombineUpdatesHardening:
    def test_empty_update_set(self):
        with pytest.raises(ValueError, match="empty update set"):
            combine_updates([], np.empty(0))

    def test_zero_mass_with_normalize(self):
        updates = [_update(0, [1.0]), _update(1, [3.0])]
        with pytest.raises(ValueError, match="positive total mass"):
            combine_updates(updates, np.zeros(2), normalize=True)

    def test_negative_alphas(self):
        updates = [_update(0, [1.0]), _update(1, [3.0])]
        with pytest.raises(ValueError, match="non-negative"):
            combine_updates(updates, np.array([1.0, -0.5]), normalize=True)


class TestAsyncZeroMassSkip:
    @pytest.fixture(autouse=True)
    def _zero_staleness(self, monkeypatch):
        """Pathological decay that zeroes every update — exercises the
        zero-mass guard in the FedBuff flush."""
        monkeypatch.setattr(
            "repro.fl.async_.server.staleness_factor", lambda policy, s: 0.0
        )

    @pytest.mark.parametrize("server_mix", [0.5, "delta"])
    def test_flush_skips_mix_instead_of_nan(
        self, tiny_data, tiny_clients, tiny_model_factory, server_mix
    ):
        _, test = tiny_data
        clock = VirtualClock("lognormal", len(tiny_clients), seed=23)
        server = AsyncFederatedServer(
            tiny_clients, test, tiny_model_factory, FedAvg(),
            FLConfig(rounds=2, clients_per_round=4, local_epochs=1, lr=0.05,
                     batch_size=16, seed=0),
            clock=clock, buffer_size=3, max_concurrency=4,
            server_mix=server_mix,
        )
        initial = np.array(server.global_weights, copy=True)
        with server:
            history = server.run()
        # Every flush was recorded but none moved the arena.
        assert history.records
        np.testing.assert_array_equal(server.global_weights, initial)
        assert np.all(np.isfinite(server.global_weights))
        for r in history.records:
            np.testing.assert_array_equal(
                r.impact_factors, np.zeros_like(r.impact_factors)
            )

    def test_flush_skips_mix_with_defense(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        _, test = tiny_data
        clock = VirtualClock("lognormal", len(tiny_clients), seed=23)
        server = AsyncFederatedServer(
            tiny_clients, test, tiny_model_factory, FedAvg(),
            FLConfig(rounds=2, clients_per_round=4, local_epochs=1, lr=0.05,
                     batch_size=16, seed=0),
            clock=clock, buffer_size=3, max_concurrency=4,
            defense=RobustAggregator("median"),
        )
        initial = np.array(server.global_weights, copy=True)
        with server:
            server.run()
        np.testing.assert_array_equal(server.global_weights, initial)


class TestConfigValidation:
    def _cfg(self, **kw):
        base = dict(dataset="mnist", scale="ci", method="fedavg")
        base.update(kw)
        return ExperimentConfig(**base)

    def test_defaults_are_honest(self):
        cfg = self._cfg()
        assert cfg.attack == "none" and cfg.aggregator == "mean"
        assert not cfg.robust_active

    def test_vocabulary(self):
        with pytest.raises(ValueError, match="attack"):
            self._cfg(attack="nope")
        with pytest.raises(ValueError, match="aggregator"):
            self._cfg(aggregator="nope")

    def test_malicious_majority_rejected(self):
        with pytest.raises(ValueError, match="majority"):
            self._cfg(attack="sign_flip", malicious_fraction=0.5)

    def test_attack_needs_malicious_clients(self):
        with pytest.raises(ValueError, match="malicious_fraction"):
            self._cfg(attack="sign_flip", malicious_fraction=0.0)

    def test_attack_scale_positive(self):
        with pytest.raises(ValueError, match="attack_scale"):
            self._cfg(attack="sign_flip", attack_scale=0.0)

    def test_robust_active_property(self):
        assert self._cfg(aggregator="median").robust_active
        assert self._cfg(attack="sign_flip").robust_active


class TestSyncEngineIntegration:
    def _run(self, **kw):
        base = dict(
            dataset="mnist", partition="CE", method="fedavg",
            n_clients=8, clients_per_round=8, scale="ci", seed=0, rounds=3,
        )
        base.update(kw)
        return run_experiment(ExperimentConfig(**base))

    def test_defense_slots_into_round_loop(self):
        res = self._run(attack="sign_flip", attack_scale=4.0, aggregator="krum")
        records = res.history.records
        assert all(r.rejected_updates for r in records)
        participants = {c for r in records for c in r.participants}
        rejected = {c for r in records for c in r.rejected_updates}
        assert rejected <= participants
        assert res.extra["attack"] == "sign_flip"
        assert res.extra["aggregator"] == "krum"
        assert res.extra["malicious_clients"]
        assert res.extra["rejected_updates"] > 0

    def test_malicious_selected_matches_attack_model(self):
        res = self._run(attack="label_flip", aggregator="median")
        attack = AttackModel("label_flip", n_clients=8, malicious_fraction=0.2, seed=0)
        for r in res.history.records:
            expected = [c for c in r.participants if attack.is_malicious(c)]
            assert r.malicious_selected == expected

    def test_backdoor_accuracy_recorded(self):
        res = self._run(attack="backdoor", attack_scale=3.0, aggregator="mean")
        series = res.history.backdoor_accuracy_series()
        assert len(series) == len(res.history.records)
        assert "backdoor_accuracy" in res.extra

    def test_honest_run_unchanged_by_robust_layer(self):
        """aggregator='mean' without an attack must reproduce the
        historical undefended arena bit-for-bit."""
        a = self._run()
        b = self._run(aggregator="mean")
        for ra, rb in zip(a.history.records, b.history.records):
            assert ra.test_accuracy == rb.test_accuracy
        assert b.history.records[-1].malicious_selected == []


class TestObsCounters:
    def _counters(self, **kw):
        cfg = ExperimentConfig(
            dataset="mnist", partition="CE", method="fedavg",
            n_clients=8, clients_per_round=8, scale="ci", seed=0, rounds=2,
            **kw,
        )
        tracer = Tracer()
        from repro.harness.runner import build_simulation
        from repro.nn.dtypes import default_dtype

        with default_dtype(cfg.dtype):
            with build_simulation(cfg, tracer=tracer) as sim:
                sim.run()
        return tracer.metrics.sim_totals()["counters"]

    def test_attack_and_defense_metrics(self):
        counters = self._counters(
            attack="sign_flip", attack_scale=4.0, aggregator="multikrum"
        )
        assert counters["sim.attack.malicious_aggregated"] > 0
        assert counters["sim.defense.updates_rejected"] > 0

    def test_norm_clip_counts_clipped(self):
        counters = self._counters(
            attack="scale", attack_scale=8.0, aggregator="norm_clip"
        )
        assert counters["sim.defense.updates_clipped"] > 0
