"""Fault injection and recovery: the substrate's robustness guarantees.

The load-bearing property mirrors the backend-equivalence one: a run
that suffers injected crashes / exceptions / hangs — and
recovers — produces a History bit-identical to a clean run, on every
backend.  Faults cost simulated recovery time (a separate clock ledger),
never correctness.
"""

import multiprocessing

import numpy as np
import pytest

from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import (
    ProcessExecutor,
    RoundContext,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultStats,
    InjectedCrash,
    InjectedHang,
    InjectedTaskError,
    RetriesExhausted,
    RetryPolicy,
)

BACKEND_WORKERS = [("serial", None), ("thread", 2), ("process", 2)]

# Heavy enough that ~100 cells see every fault kind at least once.
PLAN_KW = dict(crash_prob=0.1, exception_prob=0.16, hang_prob=0.08, hang_s=0.005)


class TestFaultPlan:
    def test_draw_is_pure(self):
        plan = FaultPlan(seed=7, **PLAN_KW)
        first = [plan.draw(r, c) for r in range(5) for c in range(10)]
        second = [plan.draw(r, c) for r in range(5) for c in range(10)]
        assert first == second

    def test_draw_covers_all_kinds(self):
        plan = FaultPlan(seed=7, **PLAN_KW)
        kinds = {plan.draw(r, c) for r in range(20) for c in range(20)}
        assert set(FAULT_KINDS) <= kinds
        assert None in kinds  # most cells stay clean

    def test_inactive_plan_never_draws(self):
        plan = FaultPlan(seed=7)
        assert not plan.active
        assert all(plan.draw(r, c) is None for r in range(5) for c in range(5))

    def test_rates_roughly_match(self):
        plan = FaultPlan(seed=3, crash_prob=0.25)
        n = 2000
        crashes = sum(plan.draw(0, c) == "crash" for c in range(n))
        assert 0.2 < crashes / n < 0.3

    def test_inject_only_at_attempt_zero(self):
        plan = FaultPlan(seed=3, crash_prob=0.999)
        with pytest.raises(InjectedCrash):
            plan.inject(0, 0, 0)
        plan.inject(0, 0, 1)  # retry is always clean

    def test_inject_exception_types(self):
        plan = FaultPlan(seed=7, **PLAN_KW)
        raised = {}
        for c in range(200):
            kind = plan.draw(0, c)
            if kind is None or kind in raised:
                continue
            with pytest.raises(FaultInjected) as exc_info:
                plan.inject(0, c, 0)
            raised[kind] = type(exc_info.value)
        assert raised == {
            "crash": InjectedCrash,
            "exception": InjectedTaskError,
            "hang": InjectedHang,
        }

    @pytest.mark.parametrize("kw", [
        dict(crash_prob=1.0),
        dict(crash_prob=-0.1),
        dict(crash_prob=0.5, exception_prob=0.5),
        dict(hang_prob=0.1, hang_s=0.0),
    ])
    def test_invalid_plans_rejected(self, kw):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, **kw)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_cap_s=3.0)
        assert [policy.backoff_s(a) for a in range(4)] == [0.5, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("kw", [
        dict(max_retries=-1),
        dict(task_timeout_s=0.0),
        dict(max_pool_rebuilds=-1),
    ])
    def test_invalid_policies_rejected(self, kw):
        with pytest.raises(ValueError):
            RetryPolicy(**kw)


class TestFaultStats:
    def test_record_and_merge(self):
        a = FaultStats()
        a.record_injected("crash", 0.5)
        a.record_injected("crash", 0.5)
        b = FaultStats(rt_retries=3, pool_rebuilds=1, degraded=True)
        b.record_injected("hang", 0.5)
        a.merge(b)
        assert a.injected == {"crash": 2, "hang": 1}
        assert a.total_injected == 3
        assert a.sim_retries == 3
        assert a.sim_backoff_s == pytest.approx(1.5)
        assert a.rt_retries == 3 and a.pool_rebuilds == 1 and a.degraded

    def test_any_and_as_dict(self):
        s = FaultStats()
        assert not s.any()
        s.record_injected("exception", 0.5)
        assert s.any()
        assert s.as_dict()["injected"] == {"exception": 1}


def run_faulted(tiny_data, tiny_clients, tiny_model_factory, backend, workers,
                plan=None, retry=None, rounds=3):
    _, test = tiny_data
    executor = make_executor(backend, tiny_clients, tiny_model_factory,
                             workers=workers, retry=retry)
    sim = FederatedSimulation(
        tiny_clients, test, tiny_model_factory, FedAvg(),
        FLConfig(rounds=rounds, clients_per_round=4, local_epochs=1, lr=0.05,
                 batch_size=16, seed=0),
        executor=executor,
        clock=VirtualClock("homogeneous", len(tiny_clients), seed=0),
        faults=plan,
    )
    with sim:
        hist = sim.run()
        return hist, sim.global_weights, sim.fault_totals, sim.clock


class TestFaultedRunsBitIdentical:
    """The tentpole guarantee: faults never change the History."""

    @pytest.mark.parametrize("backend,workers", BACKEND_WORKERS)
    def test_faulted_matches_clean(self, backend, workers, tiny_data,
                                   tiny_clients, tiny_model_factory):
        clean_hist, clean_weights, _, _ = run_faulted(
            tiny_data, tiny_clients, tiny_model_factory, "serial", None)
        plan = FaultPlan(seed=0, **PLAN_KW)
        hist, weights, totals, clock = run_faulted(
            tiny_data, tiny_clients, tiny_model_factory, backend, workers,
            plan=plan)
        assert totals.total_injected > 0, "plan too light to exercise recovery"
        assert hist.accuracy_series() == clean_hist.accuracy_series()
        assert hist.makespan_series() == clean_hist.makespan_series()
        np.testing.assert_array_equal(weights, clean_weights)
        # Recovery cost lands on the separate ledger, not the makespans.
        assert clock.fault_recovery_s == pytest.approx(totals.sim_backoff_s)
        assert totals.sim_backoff_s > 0

    def test_sim_counters_backend_invariant(self, tiny_data, tiny_clients,
                                            tiny_model_factory):
        plan = FaultPlan(seed=0, **PLAN_KW)
        per_backend = {}
        for backend, workers in BACKEND_WORKERS:
            _, _, totals, _ = run_faulted(
                tiny_data, tiny_clients, tiny_model_factory, backend, workers,
                plan=plan)
            per_backend[backend] = (totals.injected, totals.sim_retries,
                                    totals.sim_backoff_s)
        assert per_backend["thread"] == per_backend["serial"]
        assert per_backend["process"] == per_backend["serial"]


class TestExecutorRecovery:
    def make_ctx(self, tiny_model_factory, plan):
        model = tiny_model_factory(np.random.default_rng(0))
        return RoundContext(
            round_idx=0, global_weights=model.get_flat_weights(),
            epochs=1, lr=0.05, batch_size=16, base_seed=0,
            fault_plan=plan,
        )

    def crashy_plan(self, participants):
        """A plan guaranteed to crash at least one of ``participants``."""
        for seed in range(100):
            plan = FaultPlan(seed=seed, crash_prob=0.4)
            if any(plan.draw(0, c) == "crash" for c in participants):
                return plan
        raise AssertionError("no crashing seed found")

    def test_process_pool_rebuilds_after_real_crash(self, tiny_clients,
                                                    tiny_model_factory):
        """An os._exit mid-task breaks the pool; the executor rebuilds it,
        re-dispatches, and delivers the full round in order."""
        participants = [0, 1, 2, 3, 4, 5]
        plan = self.crashy_plan(participants)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            updates = ex.run_round(self.make_ctx(tiny_model_factory, plan),
                                   participants)
            stats = ex.take_fault_stats()
        assert [u.client_id for u in updates] == participants
        assert stats.injected.get("crash", 0) >= 1
        assert stats.pool_rebuilds >= 1

    def test_process_degrades_to_serial_when_rebuilds_exhausted(
            self, tiny_clients, tiny_model_factory):
        participants = [0, 1, 2, 3, 4, 5]
        plan = self.crashy_plan(participants)
        retry = RetryPolicy(max_pool_rebuilds=0)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2,
                             retry=retry) as ex:
            updates = ex.run_round(self.make_ctx(tiny_model_factory, plan),
                                   participants)
            stats = ex.take_fault_stats()
        assert [u.client_id for u in updates] == participants
        assert stats.degraded

    def test_retries_exhausted_reraises(self, tiny_clients, tiny_model_factory):
        """With zero retries the injected fault becomes the caller's problem."""
        plan = self.crashy_plan(range(6))
        retry = RetryPolicy(max_retries=0)
        with SerialExecutor(tiny_clients, tiny_model_factory, retry=retry) as ex:
            with pytest.raises(FaultInjected):
                ex.run_round(self.make_ctx(tiny_model_factory, plan),
                             [0, 1, 2, 3, 4, 5])

    @pytest.mark.parametrize("backend, workers", [("serial", None), ("thread", 2)])
    @pytest.mark.parametrize("kind, cause", [
        ("exception", InjectedTaskError), ("crash", InjectedCrash),
    ])
    def test_exhausted_budget_is_one_typed_error(
            self, kind, cause, backend, workers, tiny_clients, tiny_model_factory):
        """Once the budget is spent the executor raises RetriesExhausted
        naming the first failing cell and its attempts; the injected fault
        is its cause."""
        participants = [0, 1, 2, 3, 4, 5]
        for seed in range(100):
            plan = FaultPlan(seed=seed, **{f"{kind}_prob": 0.4})
            failing = [c for c in participants if plan.draw(0, c) == kind]
            if failing:
                break
        with make_executor(backend, tiny_clients, tiny_model_factory, workers=workers,
                           retry=RetryPolicy(max_retries=0)) as ex:
            with pytest.raises(RetriesExhausted) as info:
                ex.run_round(self.make_ctx(tiny_model_factory, plan), participants)
        err = info.value
        assert (err.index, err.client_id, err.attempts) == (0, failing[0], 1)
        assert isinstance(err.__cause__, cause)
        assert str(err).startswith(
            f"cell (index=0, client={failing[0]}) failed on all 1 attempt(s)"
        )

    def test_thread_timeout_is_fatal_after_budget(self, tiny_clients,
                                                  tiny_model_factory):
        """A genuinely stuck task (no injected self-termination) exhausts
        the timeout budget and surfaces as TimeoutError."""
        import repro.runtime.executor as executor_mod

        ctx = self.make_ctx(tiny_model_factory, None)
        retry = RetryPolicy(max_retries=1, task_timeout_s=0.2)

        real_train_one = executor_mod._train_one

        def stuck_train_one(client, model, loss, ctx, attempt=0, real_crash=False):
            if client.client_id == 2:
                import time
                time.sleep(5)
            return real_train_one(client, model, loss, ctx, attempt, real_crash)

        executor_mod._train_one = stuck_train_one
        try:
            with ThreadExecutor(tiny_clients, tiny_model_factory, workers=2,
                                retry=retry) as ex:
                with pytest.raises(TimeoutError):
                    ex.run_round(ctx, [0, 1, 2])
                stats = ex.take_fault_stats()
            assert stats.rt_timeouts >= 1
        finally:
            executor_mod._train_one = real_train_one

    @pytest.mark.parametrize("backend,workers", BACKEND_WORKERS)
    def test_real_task_error_is_retried_on_every_backend(
            self, backend, workers, fail_once, tiny_clients, tiny_model_factory):
        """A one-off *real* exception (no plan) is retried and recovered on
        all three backends; with no retry budget all three re-raise it."""
        if backend == "process" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched _train_one reaches the workers by fork")
        participants = [0, 1, 2, 3]
        ctx = self.make_ctx(tiny_model_factory, None)
        with SerialExecutor(tiny_clients, tiny_model_factory) as ex:
            clean = ex.run_round(ctx, participants)

        fail_once(2, OSError)
        with make_executor(backend, tiny_clients, tiny_model_factory,
                           workers=workers) as ex:
            updates = ex.run_round(ctx, participants)
            stats = ex.take_fault_stats()
        assert [u.client_id for u in updates] == participants
        for got, want in zip(updates, clean):
            np.testing.assert_array_equal(got.weights, want.weights)
        # Process: positions [0, 2] share the failed chunk, and every task
        # it carried is re-dispatched.
        assert stats.rt_retries == (2 if backend == "process" else 1)
        assert not stats.injected

        fail_once(3, OSError)
        with make_executor(backend, tiny_clients, tiny_model_factory,
                           workers=workers,
                           retry=RetryPolicy(max_retries=0)) as ex:
            with pytest.raises(OSError, match="one-off failure for client 3"):
                ex.run_round(ctx, participants)

    def test_hang_recovered_within_timeout_budget(self, tiny_clients,
                                                  tiny_model_factory):
        """Injected hangs self-terminate after hang_s and then retry clean,
        even with a per-task timeout armed."""
        participants = [0, 1, 2, 3, 4, 5]
        for seed in range(100):
            plan = FaultPlan(seed=seed, hang_prob=0.4, hang_s=0.01)
            if any(plan.draw(0, c) == "hang" for c in participants):
                break
        retry = RetryPolicy(task_timeout_s=30.0)
        with ThreadExecutor(tiny_clients, tiny_model_factory, workers=2,
                            retry=retry) as ex:
            updates = ex.run_round(self.make_ctx(tiny_model_factory, plan),
                                   participants)
            stats = ex.take_fault_stats()
        assert [u.client_id for u in updates] == participants
        assert stats.injected.get("hang", 0) >= 1


class TestCloseIdempotent:
    """Satellite: close() is safe to call twice, after __exit__, and on a
    half-built executor."""

    @pytest.mark.parametrize("cls,kwargs", [
        (SerialExecutor, {}),
        (ThreadExecutor, {"workers": 2}),
        (ProcessExecutor, {"workers": 2}),
    ])
    def test_double_close(self, cls, kwargs, tiny_clients, tiny_model_factory):
        ex = cls(tiny_clients, tiny_model_factory, **kwargs)
        ex.close()
        ex.close()  # must not raise

    @pytest.mark.parametrize("cls,kwargs", [
        (SerialExecutor, {}),
        (ThreadExecutor, {"workers": 2}),
        (ProcessExecutor, {"workers": 2}),
    ])
    def test_exit_after_close(self, cls, kwargs, tiny_clients, tiny_model_factory):
        with cls(tiny_clients, tiny_model_factory, **kwargs) as ex:
            ex.close()
        ex.close()

    def test_process_close_with_dead_pool(self, tiny_clients, tiny_model_factory):
        """close() on an executor whose pool already broke must not raise."""
        ex = ProcessExecutor(tiny_clients, tiny_model_factory, workers=2)
        ex._pool.shutdown(wait=True)
        ex.close()
        ex.close()


class TestVirtualClockRecoveryLedger:
    def make_clock(self):
        return VirtualClock("homogeneous", 4, seed=0)

    def test_charge_recovery_accumulates(self):
        clock = self.make_clock()
        clock.charge_recovery(1.5)
        clock.charge_recovery(0.5)
        assert clock.fault_recovery_s == pytest.approx(2.0)
        assert clock.elapsed_s == 0.0  # never leaks into the makespan ledger

    def test_charge_recovery_rejects_negative(self):
        with pytest.raises(ValueError):
            self.make_clock().charge_recovery(-1.0)
