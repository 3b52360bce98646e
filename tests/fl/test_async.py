"""The event-driven async engine: queue, staleness, FedBuff/FedAsync.

The load-bearing guarantees mirror the synchronous ones: arrival order
and aggregation results are pure functions of the experiment seed (so
every execution backend is bit-identical), FedBuff flushes exactly when
the buffer fills, and staleness decay produces the documented weights.
The golden acceptance test pins the protocol's point: under a lognormal
straggler profile, fedbuff matches the synchronous baseline's final
accuracy inside a fraction of the simulated time.
"""

import numpy as np
import pytest

from repro.fl.async_ import (
    STALENESS_POLICIES,
    AsyncFederatedServer,
    EventQueue,
    staleness_factor,
)
from repro.fl.async_.events import ClientJob
from repro.fl.client import ClientUpdate
from repro.fl.simulation import FLConfig
from repro.fl.strategies import FedAvg, FedProx
from repro.fl.strategies.base import combine_updates
from repro.harness import ExperimentConfig, run_experiment
from repro.runtime import VirtualClock, make_executor

BACKEND_WORKERS = [("serial", None), ("thread", 2), ("process", 2)]


def make_job(job_idx, arrival, client_id=0, dispatch=0.0, version=0):
    return ClientJob(
        job_idx=job_idx, client_id=client_id, dispatch_time_s=dispatch,
        duration_s=arrival - dispatch, model_version=version,
        global_weights=np.zeros(1),
    )


class TestEventQueue:
    def test_pops_in_arrival_order(self):
        q = EventQueue()
        for i, t in enumerate([5.0, 1.0, 3.0, 2.0]):
            q.push(make_job(i, t))
        order = [q.pop() for _ in range(4)]
        assert [e.time_s for e in order] == [1.0, 2.0, 3.0, 5.0]
        assert [e.job.job_idx for e in order] == [1, 3, 2, 0]

    def test_ties_break_by_push_order(self):
        q = EventQueue()
        for i in range(5):
            q.push(make_job(i, 1.0))
        assert [q.pop().job.job_idx for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_empty_queue_raises(self):
        q = EventQueue()
        assert not q
        with pytest.raises(IndexError):
            q.pop()


class TestStaleness:
    def test_constant_ignores_staleness(self):
        assert [staleness_factor("constant", s) for s in (0, 1, 50)] == [1.0, 1.0, 1.0]

    def test_polynomial_decay_values(self):
        assert staleness_factor("polynomial", 0) == 1.0
        assert staleness_factor("polynomial", 3) == pytest.approx(0.5)  # (1+3)^-0.5
        assert staleness_factor("polynomial", 8) == pytest.approx(1.0 / 3.0)

    def test_hinge_tolerates_then_decays(self):
        assert [staleness_factor("hinge", s) for s in (0, 4)] == [1.0, 1.0]
        assert staleness_factor("hinge", 6) == pytest.approx(1.0 / 3.0)
        assert staleness_factor("hinge", 14) == pytest.approx(1.0 / 11.0)

    def test_negative_staleness_rejected(self):
        for policy in STALENESS_POLICIES:
            with pytest.raises(ValueError):
                staleness_factor(policy, -1)

    def test_unknown_policy_rejected(self, tiny_data, tiny_clients, tiny_model_factory):
        with pytest.raises(ValueError, match="staleness policy"):
            run_async(tiny_clients, tiny_model_factory, tiny_data, "serial", None,
                      staleness="exponential")


class TestCombineUpdatesNormalize:
    def make_updates(self, k=3, dim=4):
        return [
            ClientUpdate(client_id=i, weights=np.full(dim, float(i + 1)),
                         loss_before=1.0, loss_after=0.5, n_samples=10)
            for i in range(k)
        ]

    def test_normalize_accepts_unnormalized_mass(self):
        ups = self.make_updates()
        alphas = np.array([0.2, 0.3, 0.1])  # sums to 0.6
        out = combine_updates(ups, alphas, normalize=True)
        expected = combine_updates(ups, alphas / alphas.sum())
        np.testing.assert_allclose(out, expected)

    def test_default_still_requires_sum_one(self):
        ups = self.make_updates()
        with pytest.raises(ValueError, match="sum to 1"):
            combine_updates(ups, np.array([0.2, 0.3, 0.1]))

    def test_normalize_rejects_zero_mass(self):
        ups = self.make_updates()
        with pytest.raises(ValueError, match="positive total mass"):
            combine_updates(ups, np.zeros(3), normalize=True)

    def test_normalize_rejects_negative(self):
        ups = self.make_updates()
        with pytest.raises(ValueError, match="non-negative"):
            combine_updates(ups, np.array([-0.5, 1.0, 0.5]), normalize=True)


def run_async(tiny_clients, tiny_model_factory, tiny_data, backend, workers,
              buffer_size=3, rounds=4, strategy=None, **server_kw):
    _, test = tiny_data
    clock = VirtualClock(
        "lognormal", len(tiny_clients), seed=23,
        straggler_fraction=0.3, straggler_slowdown=8.0,
    )
    executor = make_executor(backend, tiny_clients, tiny_model_factory, workers=workers)
    server = AsyncFederatedServer(
        tiny_clients, test, tiny_model_factory, strategy or FedAvg(),
        FLConfig(rounds=rounds, clients_per_round=4, local_epochs=1, lr=0.05,
                 batch_size=16, seed=0),
        clock=clock, executor=executor, buffer_size=buffer_size,
        max_concurrency=4, **server_kw,
    )
    with server:
        history = server.run()
    return history, server


class TestAsyncDeterminism:
    def test_arrival_order_and_results_identical_across_backends(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        """The acceptance guarantee: async runs are bit-identical across
        serial/thread/process — event timeline included."""
        results = {
            backend: run_async(tiny_clients, tiny_model_factory, tiny_data,
                               backend, workers)
            for backend, workers in BACKEND_WORKERS
        }
        ref_hist, ref_server = results["serial"]
        ref_events = [
            (e.job_idx, e.client_id, e.arrival_time_s, e.staleness)
            for e in ref_hist.events
        ]
        for backend, (hist, server) in results.items():
            events = [
                (e.job_idx, e.client_id, e.arrival_time_s, e.staleness)
                for e in hist.events
            ]
            assert events == ref_events, backend
            assert hist.accuracy_series() == ref_hist.accuracy_series(), backend
            np.testing.assert_array_equal(
                server.global_weights, ref_server.global_weights, err_msg=backend
            )

    def test_rerun_is_reproducible(self, tiny_data, tiny_clients, tiny_model_factory):
        a = run_async(tiny_clients, tiny_model_factory, tiny_data, "thread", 3)
        b = run_async(tiny_clients, tiny_model_factory, tiny_data, "thread", 3)
        np.testing.assert_array_equal(a[1].global_weights, b[1].global_weights)

    def test_client_kwargs_reach_async_workers(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        hist, _ = run_async(tiny_clients, tiny_model_factory, tiny_data,
                            "process", 2, strategy=FedProx(mu=0.1), rounds=2)
        assert len(hist.events) == 8


class TestFedBuffMechanics:
    def test_buffer_flushes_at_m_arrivals(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        hist, server = run_async(tiny_clients, tiny_model_factory, tiny_data,
                                 "serial", None, buffer_size=3, rounds=4)
        total_jobs = 4 * 4
        assert len(hist.events) == total_jobs
        # 5 full buffers of 3, then FedAvg (not fixed-K) flushes the 1 leftover.
        assert [len(r.participants) for r in hist.records] == [3, 3, 3, 3, 3, 1]
        assert server.discarded_updates == 0

    def test_fedasync_aggregates_every_arrival(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        hist, _ = run_async(tiny_clients, tiny_model_factory, tiny_data,
                            "serial", None, buffer_size=1, server_mix=0.6,
                            rounds=2)
        assert len(hist.records) == len(hist.events) == 8
        assert all(len(r.participants) == 1 for r in hist.records)

    def test_staleness_recorded_and_weighted(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        hist, _ = run_async(tiny_clients, tiny_model_factory, tiny_data,
                            "serial", None, staleness="polynomial")
        assert any(e.staleness > 0 for e in hist.events)  # stragglers go stale
        for event in hist.events:
            assert event.staleness == event.arrival_version - event.dispatch_version
            assert event.staleness_factor == pytest.approx(
                staleness_factor("polynomial", event.staleness)
            )
        for record in hist.records:
            assert len(record.staleness) == len(record.participants)
            assert record.impact_factors.sum() == pytest.approx(1.0)

    def test_job_indices_dense_and_dispatches_ordered(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        hist, _ = run_async(tiny_clients, tiny_model_factory, tiny_data,
                            "serial", None)
        assert sorted(e.job_idx for e in hist.events) == list(range(16))
        arrivals = [e.arrival_time_s for e in hist.events]
        assert arrivals == sorted(arrivals)
        for event in hist.events:
            assert event.dispatch_time_s < event.arrival_time_s

    def test_max_concurrency_respected(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        hist, _ = run_async(tiny_clients, tiny_model_factory, tiny_data,
                            "serial", None, rounds=3)
        spans = [(e.dispatch_time_s, e.arrival_time_s) for e in hist.events]
        for _, arrival in spans:
            in_flight = sum(1 for d, a in spans if d < arrival and a >= arrival)
            assert in_flight <= 4

    def test_one_job_per_client_at_a_time(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        hist, _ = run_async(tiny_clients, tiny_model_factory, tiny_data,
                            "serial", None, rounds=3)
        by_client: dict[int, list[tuple[float, float]]] = {}
        for e in hist.events:
            by_client.setdefault(e.client_id, []).append(
                (e.dispatch_time_s, e.arrival_time_s)
            )
        for spans in by_client.values():
            spans.sort()
            for (_, prev_arrival), (next_dispatch, _) in zip(spans, spans[1:]):
                assert next_dispatch >= prev_arrival

    def test_fixed_k_strategy_discards_partial_final_buffer(
        self, tiny_data, tiny_clients, tiny_model_factory
    ):
        from repro.fl.strategies import FedDRL

        strategy = FedDRL(clients_per_round=3, seed=0)
        hist, server = run_async(tiny_clients, tiny_model_factory, tiny_data,
                                 "serial", None, buffer_size=3, rounds=4,
                                 strategy=strategy)
        # 16 jobs, buffer 3: five full flushes, the 1-update tail is dropped
        # (the DRL agent's dimensions demand exactly K=3 updates).
        assert [len(r.participants) for r in hist.records] == [3, 3, 3, 3, 3]
        assert server.discarded_updates == 1

    @pytest.mark.parametrize("buffer_size", [1, 5])
    def test_default_mix_replaces_the_global_model(
        self, tiny_data, tiny_clients, tiny_model_factory, buffer_size
    ):
        # One default for every buffer size; FedAsync's 0.6 is asked for.
        _, test = tiny_data
        clock = VirtualClock("lognormal", len(tiny_clients), seed=23)
        cfg = FLConfig(rounds=2, clients_per_round=4, local_epochs=1,
                       lr=0.05, batch_size=16, seed=0)
        server = AsyncFederatedServer(
            tiny_clients, test, tiny_model_factory, FedAvg(), cfg,
            clock=clock, buffer_size=buffer_size,
        )
        assert server.server_mix == 1.0
        assert server.buffer_size == buffer_size

    def test_rejects_bad_parameters(self, tiny_data, tiny_clients, tiny_model_factory):
        _, test = tiny_data
        clock = VirtualClock("lognormal", len(tiny_clients), seed=23)
        cfg = FLConfig(rounds=2, clients_per_round=4, local_epochs=1,
                       lr=0.05, batch_size=16, seed=0)
        common = (tiny_clients, test, tiny_model_factory, FedAvg(), cfg)
        with pytest.raises(ValueError, match="buffer_size"):
            AsyncFederatedServer(*common, clock=clock, buffer_size=0)
        with pytest.raises(ValueError, match="max_concurrency"):
            AsyncFederatedServer(*common, clock=clock, max_concurrency=99)
        with pytest.raises(ValueError, match="server_mix"):
            AsyncFederatedServer(*common, clock=clock, server_mix=1.5)


class TestAsyncExperimentIntegration:
    def make_config(self, **kw):
        base = dict(
            dataset="mnist", partition="CE", method="fedavg",
            n_clients=10, clients_per_round=10, scale="ci", seed=0,
            latency_model="lognormal", straggler_fraction=0.3,
            straggler_slowdown=8.0,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_config_validation(self):
        # The default homogeneous clock orders the arrivals.
        assert ExperimentConfig(aggregation="fedbuff").latency_model == "homogeneous"
        with pytest.raises(ValueError, match="aggregation"):
            self.make_config(aggregation="bulk")
        with pytest.raises(ValueError, match="staleness"):
            self.make_config(aggregation="fedbuff", staleness="linear")
        with pytest.raises(ValueError, match="deadline"):
            self.make_config(aggregation="fedbuff", deadline_s=5.0)
        with pytest.raises(ValueError, match="aggregation"):
            self.make_config(aggregation="fedasync")
        with pytest.raises(ValueError, match="feddrl weighs"):
            self.make_config(aggregation="fedbuff", buffer_size=1, method="feddrl")
        with pytest.raises(ValueError, match="singleset"):
            ExperimentConfig(method="singleset", aggregation="fedbuff")

    def test_experiment_bit_identical_across_backends(self):
        """Asserted acceptance criterion: async experiment runs are
        bit-identical under serial, thread, and process backends."""
        results = {}
        for backend, workers in BACKEND_WORKERS:
            cfg = self.make_config(aggregation="fedbuff", buffer_size=5,
                                   rounds=6, backend=backend, workers=workers)
            results[backend] = run_experiment(cfg)
        ref = results["serial"]
        def arrivals(h):
            return [(e.arrival_time_s, e.client_id) for e in h.events]

        ref_arrivals = arrivals(ref.history)
        for backend, result in results.items():
            assert result.history.accuracy_series() == ref.history.accuracy_series(), backend
            assert arrivals(result.history) == ref_arrivals, backend
            assert result.best_accuracy == ref.best_accuracy, backend

    def test_golden_fedbuff_vs_sync_convergence(self):
        """Acceptance criterion: under the lognormal straggler profile,
        fedbuff reaches the sync baseline's final accuracy (within 2%)
        in less than half the simulated time.

        Async's advantage is precisely that stragglers never block the
        fleet: in the same simulated-time envelope the devices complete
        far more jobs, so fedbuff runs a 2x job budget here and still
        finishes ~3x earlier in virtual time.
        """
        sync = run_experiment(self.make_config())
        fedbuff = run_experiment(self.make_config(
            aggregation="fedbuff", buffer_size=5, staleness="hinge", rounds=24,
        ))
        sync_final = sync.history.accuracy_series()[-1][1]
        fedbuff_final = fedbuff.history.accuracy_series()[-1][1]
        assert fedbuff_final >= sync_final - 0.02
        makespan_speedup = sync.extra["sim_time_s"] / fedbuff.extra["sim_time_s"]
        assert makespan_speedup >= 2.0
        # accuracy-vs-time series exist for both protocols
        assert fedbuff.history.accuracy_vs_time()[-1][0] == pytest.approx(
            fedbuff.extra["sim_time_s"]
        )
        assert fedbuff.extra["arrivals"] == 24 * 10
