"""Fleet behavior integrated into both engines.

Acceptance guarantees: (1) fleet scenarios — availability traces, dropout
sets, partial-work draws, and therefore final weights — are bit-identical
across the serial / thread / process backends; (2) the sync loop selects
only online clients, pays for dropped compute, and scales partial work;
(3) the async engine dispatches only to online clients, loses dropped
arrivals without aggregating them, and spreads jobs under the fairness
policy; (4) uniform selection draws only from the available pool.
"""

import numpy as np
import pytest

from repro.fl.async_ import AsyncFederatedServer
from repro.fl.selection import UniformSelection
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.fleet import ColumnarAvailability, FleetSimulator
from repro.harness import ExperimentConfig, run_experiment
from repro.runtime import VirtualClock, make_executor

BACKEND_WORKERS = [("serial", None), ("thread", 2), ("process", 2)]


def make_fleet(n_clients, dropout_prob=0.1, completeness=0.5, seed=31):
    return FleetSimulator(
        n_clients,
        ColumnarAvailability(
            "markov", n_clients, seed, offline_fraction=0.25, churn_rate=0.5
        ),
        seed=seed,
        dropout_prob=dropout_prob,
        completeness=completeness,
    )


def run_sync(clients, model_factory, test_set, backend, workers, **fleet_kw):
    clock = VirtualClock("lognormal", len(clients), seed=23)
    executor = make_executor(backend, clients, model_factory, workers=workers)
    sim = FederatedSimulation(
        clients, test_set, model_factory, FedAvg(),
        FLConfig(rounds=5, clients_per_round=4, local_epochs=1, lr=0.05,
                 batch_size=16, seed=0),
        executor=executor, clock=clock,
        fleet=make_fleet(len(clients), **fleet_kw),
    )
    with sim:
        history = sim.run()
    return history, sim


def run_async_fleet(clients, model_factory, test_set, backend, workers,
                    dispatch="random", server_mix=None, rounds=4,
                    straggler_fraction=0.3, **fleet_kw):
    clock = VirtualClock(
        "lognormal", len(clients), seed=23,
        straggler_fraction=straggler_fraction, straggler_slowdown=8.0,
    )
    executor = make_executor(backend, clients, model_factory, workers=workers)
    server = AsyncFederatedServer(
        clients, test_set, model_factory, FedAvg(),
        FLConfig(rounds=rounds, clients_per_round=4, local_epochs=1, lr=0.05,
                 batch_size=16, seed=0),
        clock=clock, executor=executor, buffer_size=3,
        max_concurrency=4, fleet=make_fleet(len(clients), **fleet_kw),
        dispatch=dispatch, server_mix=server_mix,
    )
    with server:
        history = server.run()
    return history, server


class TestSyncFleet:
    def test_bit_identical_across_backends(self, tiny_clients, tiny_model_factory,
                                           tiny_data):
        """Acceptance: identical availability traces, dropout sets, and
        final weights under every execution backend."""
        _, test = tiny_data
        results = {
            backend: run_sync(tiny_clients, tiny_model_factory, test,
                              backend, workers)
            for backend, workers in BACKEND_WORKERS
        }
        ref_hist, ref_sim = results["serial"]
        ref_trace = [
            (r.online_count, r.connectivity_dropped, r.dropped_clients,
             sorted(r.work_fractions.items()))
            for r in ref_hist.records
        ]
        for backend, (hist, sim) in results.items():
            got = [
                (r.online_count, r.connectivity_dropped, r.dropped_clients,
                 sorted(r.work_fractions.items()))
                for r in hist.records
            ]
            assert got == ref_trace, backend
            assert hist.accuracy_series() == ref_hist.accuracy_series(), backend
            np.testing.assert_array_equal(
                sim.global_weights, ref_sim.global_weights, err_msg=backend
            )

    def test_participants_are_online_and_pool_recorded(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        _, test = tiny_data
        hist, sim = run_sync(tiny_clients, tiny_model_factory, test, "serial", None,
                             dropout_prob=0.0, completeness=1.0)
        fleet = sim.fleet
        t = 0.0
        for r in hist.records:
            online = set(fleet.online_ids(t + r.wait_s))
            assert r.online_count == len(online)
            assert set(r.participants) <= online
            assert len(r.participants) <= 4
            t += r.sim_makespan_s

    def test_dropped_updates_pay_compute_but_not_aggregate(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        _, test = tiny_data
        hist, _ = run_sync(tiny_clients, tiny_model_factory, test, "serial", None,
                           dropout_prob=0.4, completeness=1.0)
        dropped_rounds = [r for r in hist.records if r.connectivity_dropped]
        assert dropped_rounds, "0.4 dropout over 5x4 draws should hit"
        for r in dropped_rounds:
            assert set(r.connectivity_dropped).isdisjoint(r.participants)
            assert len(r.participants) >= 1
            # makespan covers every selected client, dropped included
            assert r.sim_makespan_s > 0
        assert hist.total_connectivity_dropped() == sum(
            len(r.connectivity_dropped) for r in hist.records
        )

    def test_completeness_scales_reported_sizes(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        _, test = tiny_data
        full_hist, _ = run_sync(tiny_clients, tiny_model_factory, test,
                                "serial", None, dropout_prob=0.0, completeness=1.0)
        part_hist, _ = run_sync(tiny_clients, tiny_model_factory, test,
                                "serial", None, dropout_prob=0.0, completeness=0.3)
        assert 0.3 <= part_hist.mean_work_fraction() < 1.0
        assert full_hist.mean_work_fraction() == 1.0
        # Partial clients report proportionally smaller n_samples.
        full_sizes = {c: s for r in full_hist.records
                      for c, s in zip(r.participants, r.client_sizes)}
        shrunk = 0
        for r in part_hist.records:
            for cid, size in zip(r.participants, r.client_sizes):
                if cid in full_sizes and size < full_sizes[cid]:
                    shrunk += 1
        assert shrunk > 0

    def test_fleet_requires_nothing_when_absent(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        """No fleet -> behavior identical to the pre-fleet engine."""
        _, test = tiny_data
        sim = FederatedSimulation(
            tiny_clients, test, tiny_model_factory, FedAvg(),
            FLConfig(rounds=2, clients_per_round=4, local_epochs=1, lr=0.05,
                     batch_size=16, seed=0),
        )
        hist = sim.run()
        for r in hist.records:
            assert r.online_count is None
            assert r.connectivity_dropped == []
            assert r.work_fractions == {}


class TestAsyncFleet:
    def test_bit_identical_across_backends(self, tiny_clients, tiny_model_factory,
                                           tiny_data):
        _, test = tiny_data
        results = {
            backend: run_async_fleet(tiny_clients, tiny_model_factory, test,
                                     backend, workers)
            for backend, workers in BACKEND_WORKERS
        }
        ref_hist, ref_server = results["serial"]
        ref_events = [
            (e.job_idx, e.client_id, e.arrival_time_s, e.staleness, e.dropped)
            for e in ref_hist.events
        ]
        for backend, (hist, server) in results.items():
            events = [
                (e.job_idx, e.client_id, e.arrival_time_s, e.staleness, e.dropped)
                for e in hist.events
            ]
            assert events == ref_events, backend
            np.testing.assert_array_equal(
                server.global_weights, ref_server.global_weights, err_msg=backend
            )

    def test_dispatches_only_to_online_clients(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        _, test = tiny_data
        hist, server = run_async_fleet(tiny_clients, tiny_model_factory, test,
                                       "serial", None, dropout_prob=0.0)
        fleet = server.fleet
        for e in hist.events:
            assert fleet.is_online(e.client_id, e.dispatch_time_s), e

    def test_dropped_arrivals_never_aggregate(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        _, test = tiny_data
        hist, server = run_async_fleet(tiny_clients, tiny_model_factory, test,
                                       "serial", None, dropout_prob=0.3,
                                       rounds=6)
        dropped = [e for e in hist.events if e.dropped]
        assert dropped, "0.3 dropout over 24 jobs should hit"
        assert server.dropped_arrivals == len(dropped)
        aggregated = sum(len(r.participants) for r in hist.records)
        assert aggregated + server.dropped_arrivals + server.discarded_updates \
            == len(hist.events)
        assert hist.total_connectivity_dropped() == len(dropped)

    def test_fairness_dispatch_spreads_jobs(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        _, test = tiny_data
        _, fair = run_async_fleet(tiny_clients, tiny_model_factory, test,
                                  "serial", None, dispatch="fairness",
                                  dropout_prob=0.0, rounds=6,
                                  straggler_fraction=0.0)
        _, rand = run_async_fleet(tiny_clients, tiny_model_factory, test,
                                  "serial", None, dispatch="random",
                                  dropout_prob=0.0, rounds=6,
                                  straggler_fraction=0.0)
        fair_counts = np.array(sorted(fair.jobs_dispatched.values()))
        rand_counts = np.array(sorted(rand.jobs_dispatched.values()))
        assert fair_counts.sum() == rand_counts.sum() == 24
        # The spread is no worse than the uniform draw's: fairness cannot
        # beat availability (an offline client gets nothing), but it must
        # not let fast clients hoard jobs.
        assert fair_counts.max() - fair_counts.min() <= \
            rand_counts.max() - rand_counts.min()
        assert fair_counts.max() <= rand_counts.max()

    def test_delta_mix_runs_and_differs_from_replace(
        self, tiny_clients, tiny_model_factory, tiny_data
    ):
        _, test = tiny_data
        _, delta = run_async_fleet(tiny_clients, tiny_model_factory, test,
                                   "serial", None, server_mix="delta",
                                   dropout_prob=0.0)
        _, replace = run_async_fleet(tiny_clients, tiny_model_factory, test,
                                     "serial", None, server_mix=1.0,
                                     dropout_prob=0.0)
        assert delta.delta_mix and not replace.delta_mix
        assert not np.array_equal(delta.global_weights, replace.global_weights)
        assert np.isfinite(delta.global_weights).all()

    def test_rejects_bad_dispatch_and_mix(self, tiny_clients, tiny_model_factory,
                                          tiny_data):
        _, test = tiny_data
        clock = VirtualClock("lognormal", len(tiny_clients), seed=23)
        cfg = FLConfig(rounds=2, clients_per_round=4, local_epochs=1, lr=0.05,
                       batch_size=16, seed=0)
        common = (tiny_clients, test, tiny_model_factory, FedAvg(), cfg)
        with pytest.raises(ValueError, match="dispatch"):
            AsyncFederatedServer(*common, clock=clock, dispatch="greedy")
        with pytest.raises(ValueError, match="server_mix"):
            AsyncFederatedServer(*common, clock=clock, server_mix="deltas")


class TestSelectorsWithAvailability:
    def test_uniform_picks_only_available(self):
        sel = UniformSelection(np.random.default_rng(0))
        pool = [1, 4, 5, 8]
        for t in range(10):
            picked = sel.select(10, 3, t, available=pool)
            assert set(picked) <= set(pool)
            assert len(set(picked)) == 3

    def test_uniform_legacy_path_unchanged(self):
        a = UniformSelection(np.random.default_rng(3)).select(10, 4, 0)
        b = UniformSelection(np.random.default_rng(3)).select(10, 4, 0)
        assert a == b

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError):
            UniformSelection(np.random.default_rng(0)).select(
                10, 4, 0, available=[1, 2]
            )


class TestFleetExperimentIntegration:
    def make_config(self, **kw):
        base = dict(
            dataset="mnist", partition="CE", method="fedavg",
            n_clients=10, clients_per_round=10, scale="ci", seed=0,
            latency_model="lognormal", straggler_fraction=0.3,
            straggler_slowdown=8.0, availability="markov",
            offline_fraction=0.2, churn_rate=0.5, dropout_prob=0.1,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_config_validation(self):
        # Fleet behaviour evolves over the default homogeneous clock.
        assert ExperimentConfig(availability="markov").fleet_active
        with pytest.raises(ValueError, match="availability"):
            self.make_config(availability="flaky")
        with pytest.raises(ValueError, match="offline_fraction"):
            self.make_config(offline_fraction=1.0)
        with pytest.raises(ValueError, match="dropout_prob"):
            self.make_config(dropout_prob=1.0)
        with pytest.raises(ValueError, match="completeness"):
            self.make_config(completeness=0.0)
        with pytest.raises(ValueError, match="dispatch"):
            self.make_config(dispatch="fairness")  # sync has no dispatch
        with pytest.raises(ValueError, match="feddrl"):
            self.make_config(method="feddrl")
        with pytest.raises(ValueError, match="server_mix"):
            self.make_config(server_mix="gamma")
        cfg = self.make_config()
        assert cfg.fleet_active
        assert not ExperimentConfig().fleet_active

    def test_sync_experiment_bit_identical_across_backends(self):
        results = {}
        for backend, workers in BACKEND_WORKERS:
            cfg = self.make_config(backend=backend, workers=workers,
                                   completeness=0.5, rounds=5)
            results[backend] = run_experiment(cfg)
        ref = results["serial"]
        for backend, result in results.items():
            assert result.history.accuracy_series() == \
                ref.history.accuracy_series(), backend
            assert result.history.online_series() == \
                ref.history.online_series(), backend
            assert result.extra["connectivity_dropped"] == \
                ref.extra["connectivity_dropped"], backend

    def test_fedbuff_fleet_experiment_bit_identical_across_backends(self):
        results = {}
        for backend, workers in BACKEND_WORKERS:
            cfg = self.make_config(
                backend=backend, workers=workers, aggregation="fedbuff",
                buffer_size=5, rounds=5, dispatch="fairness",
                server_mix="delta",
            )
            results[backend] = run_experiment(cfg)
        def arrivals(h):
            return [(e.arrival_time_s, e.client_id) for e in h.events]

        ref = results["serial"]
        for backend, result in results.items():
            assert result.history.accuracy_series() == \
                ref.history.accuracy_series(), backend
            assert arrivals(result.history) == arrivals(ref.history), backend

    def test_fleet_extras_reported(self):
        result = run_experiment(self.make_config(completeness=0.5, rounds=4))
        assert result.extra["availability"] == "markov"
        assert "connectivity_dropped" in result.extra
        assert 0.5 <= result.extra["mean_work_fraction"] <= 1.0
        assert 0 < result.extra["mean_online"] <= 10
