"""The process backend's shared-memory round exchange.

Global weights go out through one named block and client updates come
back through a ``(slots, dim)`` arena; a future carries block names, not
arrays.  Everything here runs the process backend at 2 workers against
the serial executor: the exchange may change what crosses the process
boundary, never a bit of an update — and it may leave none of the
blocks it created behind (the ``live_blocks`` fixture counts only those).
"""

import dataclasses
import multiprocessing
import os
import pickle
from functools import partial

import numpy as np
import pytest

import repro.data.shm as shm_mod
import repro.runtime.executor as executor_mod
from repro.nn.dtypes import default_dtype
from repro.nn.models import mlp
from repro.runtime.executor import ProcessExecutor, RoundContext, SerialExecutor
from repro.runtime.faults import FaultPlan, RetryPolicy

PARTICIPANTS = [4, 1, 3, 0, 5, 2]


def make_ctx(model_factory, **kw):
    model = model_factory(np.random.default_rng(0))
    return RoundContext(
        round_idx=0, global_weights=model.get_flat_weights(),
        epochs=1, lr=0.05, batch_size=16, base_seed=0, **kw,
    )


def serial_updates(ctx, clients, model_factory, participants):
    clean = dataclasses.replace(ctx, fault_plan=None)
    with SerialExecutor(clients, model_factory) as ex:
        return ex.run_round(clean, participants)


def assert_same_updates(updates, reference):
    assert [u.client_id for u in updates] == [u.client_id for u in reference]
    for got, want in zip(updates, reference):
        assert got.weights.dtype == want.weights.dtype
        np.testing.assert_array_equal(got.weights, want.weights)
        assert (got.loss_before, got.loss_after, got.n_samples) == (
            want.loss_before, want.loss_after, want.n_samples)


def plan_injecting(kind, participants, **kw):
    """An only-``kind`` plan hitting at least one participant in round 0."""
    for seed in range(100):
        plan = FaultPlan(seed=seed, **{f"{kind}_prob": 0.4}, **kw)
        if any(plan.draw(0, c) == kind for c in participants):
            return plan
    raise AssertionError(f"no seed injects a {kind}")


class TestExchangeMatchesSerial:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_updates_equal_in_both_dtypes(self, dtype, tiny_clients, tiny_model_factory):
        with default_dtype(dtype):
            ctx = make_ctx(tiny_model_factory)
            assert ctx.global_weights.dtype == np.dtype(dtype)
            reference = serial_updates(ctx, tiny_clients, tiny_model_factory, PARTICIPANTS)
            # K = 6 > 2 workers: each first-wave chunk carries three tasks.
            with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
                updates = ex.run_round(ctx, PARTICIPANTS)
                assert ex._exchange.updates.dtype == np.dtype(dtype)
        assert_same_updates(updates, reference)

    def test_updates_survive_the_next_round(self, tiny_clients, tiny_model_factory):
        """Callers hold weight vectors past the round (History, EF
        residuals, the defenses): what they got is a copy, not arena rows."""
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            first = ex.run_round(ctx, PARTICIPANTS)
            kept = [u.weights.copy() for u in first]
            ex.run_round(dataclasses.replace(ctx, round_idx=1), PARTICIPANTS[::-1])
        for update, want in zip(first, kept):
            np.testing.assert_array_equal(update.weights, want)
            assert update.weights.flags.writeable

    def test_participant_count_growing_regrows_the_arena(
        self, tiny_clients, tiny_model_factory, live_blocks
    ):
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            for participants in (PARTICIPANTS[:2], PARTICIPANTS, PARTICIPANTS[:3]):
                reference = serial_updates(ctx, tiny_clients, tiny_model_factory, participants)
                assert_same_updates(ex.run_round(ctx, participants), reference)
                assert ex._exchange.ref.slots >= len(participants)
            # The regrow unlinked what it replaced: the dataset's block pair
            # plus one weights block and one arena, nothing else.
            assert tiny_clients.shared
            assert len(live_blocks()) == 2 + 2
        assert not live_blocks()

    def test_model_size_changing_regrows_the_blocks(self, tiny_clients, tiny_model_factory):
        """dim is read off each round's weights, not fixed at construction."""
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            ex.run_round(ctx, PARTICIPANTS)
            first = ex._exchange.ref
            padded = np.concatenate([ctx.global_weights, np.zeros(3, ctx.global_weights.dtype)])
            wire = ex._wire_context(dataclasses.replace(ctx, global_weights=padded), 2)
            assert wire.global_weights.dim == padded.size
            assert wire.global_weights.weights_name != first.weights_name
            np.testing.assert_array_equal(ex._exchange.weights, padded)

    def test_more_workers_than_cores_over_many_rounds(
        self, tiny_clients, tiny_model_factory
    ):
        """Rows are disjoint by participant position, so concurrent writers
        cannot lose an update: eight rounds at twice the host's cores, a
        different participant order each round, every round serial's."""
        workers = 2 * (os.cpu_count() or 1)
        rng = np.random.default_rng(0)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=workers) as ex, \
                SerialExecutor(tiny_clients, tiny_model_factory) as serial:
            ctx = make_ctx(tiny_model_factory)
            for round_idx in range(8):
                participants = [int(c) for c in rng.permutation(PARTICIPANTS)]
                ctx = dataclasses.replace(ctx, round_idx=round_idx)
                updates = ex.run_round(ctx, participants)
                assert_same_updates(updates, serial.run_round(ctx, participants))
                # Next round's weights: something every update moved.
                ctx = dataclasses.replace(
                    ctx, global_weights=np.mean([u.weights for u in updates], axis=0))

    def test_fedbuff_style_job_rounds(self, tiny_clients, tiny_model_factory):
        """Per-client job indices ride in the context next to the block
        reference and still pick each task's RNG cell."""
        jobs = {cid: 100 + 7 * cid for cid in PARTICIPANTS}
        ctx = make_ctx(tiny_model_factory, job_rounds=jobs, client_batches={4: 1, 0: 2})
        reference = serial_updates(ctx, tiny_clients, tiny_model_factory, PARTICIPANTS)
        plain = serial_updates(
            dataclasses.replace(ctx, job_rounds=None), tiny_clients,
            tiny_model_factory, PARTICIPANTS,
        )
        assert not np.array_equal(reference[1].weights, plain[1].weights)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            # FedBuff dispatches batches of varying size on one executor.
            for participants in (PARTICIPANTS[:1], PARTICIPANTS, PARTICIPANTS[2:4]):
                want = [u for cid in participants for u in reference if u.client_id == cid]
                assert_same_updates(ex.run_round(ctx, participants), want)


class TestWireContext:
    @pytest.mark.parametrize("hidden", [(16,), (512, 256)])
    def test_a_future_carries_names_not_weights(self, hidden, tiny_data, tiny_clients):
        train, _ = tiny_data
        factory = partial(mlp, int(np.prod(train.x.shape[1:])), train.num_classes,
                          hidden=hidden)
        ctx = make_ctx(factory, trace=True, job_rounds={c: c for c in PARTICIPANTS},
                       fault_plan=FaultPlan(seed=1, exception_prob=0.1))
        with ProcessExecutor(tiny_clients, factory, workers=2) as ex:
            wire = ex._wire_context(ctx, len(PARTICIPANTS))
            assert len(pickle.dumps(wire)) < 4096
            assert len(pickle.dumps(ctx)) > ctx.global_weights.nbytes
            # Everything but the weights is the caller's context.
            assert dataclasses.replace(wire, global_weights=None) == dataclasses.replace(
                ctx, global_weights=None)
            np.testing.assert_array_equal(ex._exchange.weights, ctx.global_weights)

    def test_worker_trains_against_a_read_only_view(
        self, monkeypatch, tiny_clients, tiny_model_factory
    ):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched _train_one reaches the workers by fork")
        real_train_one = executor_mod._train_one

        def checking_train_one(client, model, loss, ctx, attempt=0, real_crash=False):
            weights = ctx.global_weights
            if not isinstance(weights, np.ndarray) or weights.flags.writeable:
                raise AssertionError(f"worker got {type(weights).__name__} weights, "
                                     f"writeable={getattr(weights, 'flags', None)}")
            return real_train_one(client, model, loss, ctx, attempt, real_crash)

        monkeypatch.setattr(executor_mod, "_train_one", checking_train_one)
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2,
                             retry=RetryPolicy(max_retries=0)) as ex:
            assert len(ex.run_round(ctx, PARTICIPANTS)) == len(PARTICIPANTS)
            assert ex._exchange is not None


class TestFallback:
    def test_without_shared_memory_weights_are_pickled(
        self, monkeypatch, tiny_clients, tiny_model_factory, live_blocks
    ):
        """Block creation raising (no /dev/shm, a full mount) is how a run
        goes without shared memory: the training set, the weights and the
        updates then travel pickled, bit for bit what the blocks carry."""
        ctx = make_ctx(tiny_model_factory)
        nbytes = ctx.global_weights.nbytes
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            shared = ex.run_round(ctx, PARTICIPANTS)
            assert ex._exchange is not None
        assert not live_blocks()

        def no_shm(shape, dtype):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(shm_mod, "create_array", no_shm)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            updates = ex.run_round(ctx, PARTICIPANTS)
            assert ex._exchange is None and not tiny_clients.shared
            assert not live_blocks()
            # One weight pickle per first-wave chunk, every vector unpickled.
            assert ex.last_ipc_bytes == {
                "out": 2 * nbytes, "in": len(PARTICIPANTS) * nbytes}
        assert_same_updates(updates, shared)

    def test_block_creation_failing_falls_back_for_the_round(
        self, monkeypatch, tiny_clients, tiny_model_factory, live_blocks
    ):
        ctx = make_ctx(tiny_model_factory)
        reference = serial_updates(ctx, tiny_clients, tiny_model_factory, PARTICIPANTS)

        def no_space(shape, dtype):
            raise OSError(28, "No space left on device")

        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            monkeypatch.setattr(shm_mod, "create_array", no_space)
            assert_same_updates(ex.run_round(ctx, PARTICIPANTS), reference)
            assert ex._exchange is None
            # Observed per round, not remembered: space came back.
            monkeypatch.undo()
            assert_same_updates(ex.run_round(ctx, PARTICIPANTS), reference)
            assert ex._exchange is not None
        assert not live_blocks()


class TestLifetime:
    def rebuild_round(self, ex, ctx, plan, tiny_clients, tiny_model_factory):
        """Run one faulted round that rebuilds the pool; return the block
        names before and after, and assert the updates are serial's."""
        reference = serial_updates(ctx, tiny_clients, tiny_model_factory, PARTICIPANTS)
        assert_same_updates(ex.run_round(ctx, PARTICIPANTS), reference)
        old = ex._exchange.ref
        faulted = dataclasses.replace(ctx, fault_plan=plan)
        assert_same_updates(ex.run_round(faulted, PARTICIPANTS), reference)
        stats = ex.take_fault_stats()
        assert stats.pool_rebuilds >= 1 and not stats.degraded
        return old, ex._exchange.ref, reference

    def test_crash_rebuild_allocates_fresh_blocks(
        self, tiny_clients, tiny_model_factory, live_blocks
    ):
        ctx = make_ctx(tiny_model_factory)
        plan = plan_injecting("crash", PARTICIPANTS)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            old, new, reference = self.rebuild_round(
                ex, ctx, plan, tiny_clients, tiny_model_factory)
            stale = {old.weights_name, old.updates_name}
            assert stale.isdisjoint({new.weights_name, new.updates_name})
            assert stale.isdisjoint(live_blocks())
            # The round after the rebuild runs on the new pool and blocks.
            assert_same_updates(ex.run_round(ctx, PARTICIPANTS), reference)
            assert ex._exchange.ref == new
        assert not live_blocks()

    def test_stuck_worker_can_only_reach_a_dropped_arena(
        self, tiny_clients, tiny_model_factory, live_blocks
    ):
        """A hung task outlives its timeout: the pool is terminated and the
        round finishes on fresh blocks, so whatever the orphan writes when
        it wakes lands where nobody reads."""
        ctx = make_ctx(tiny_model_factory)
        plan = plan_injecting("hang", PARTICIPANTS, hang_s=2.0)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2,
                             retry=RetryPolicy(task_timeout_s=0.3)) as ex:
            old, new, reference = self.rebuild_round(
                ex, ctx, plan, tiny_clients, tiny_model_factory)
            assert old.updates_name != new.updates_name
            assert_same_updates(ex.run_round(ctx, PARTICIPANTS), reference)
        assert not live_blocks()

    def test_degrading_drops_the_blocks(self, tiny_clients, tiny_model_factory, live_blocks):
        ctx = make_ctx(tiny_model_factory, fault_plan=plan_injecting("crash", PARTICIPANTS))
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2,
                             retry=RetryPolicy(max_pool_rebuilds=0)) as ex:
            ex.run_round(ctx, PARTICIPANTS)
            assert ex.take_fault_stats().degraded
            assert ex._exchange is None
            # Only the training set's pair is left, for in-parent work.
            assert len(live_blocks()) == 2
        assert not live_blocks()

    def test_close_unlinks_everything_and_is_idempotent(
        self, tiny_clients, tiny_model_factory, live_blocks
    ):
        ex = ProcessExecutor(tiny_clients, tiny_model_factory, workers=2)
        ex.run_round(make_ctx(tiny_model_factory), PARTICIPANTS)
        # One block pair for the training set, one for the round exchange.
        assert len(live_blocks()) == 2 + 2
        ex.close()
        ex.close()
        assert ex._exchange is None and not tiny_clients.shared
        assert not live_blocks()

    def test_constructor_failing_in_new_pool_leaks_nothing(
        self, monkeypatch, tiny_clients, tiny_model_factory, live_blocks
    ):
        def no_pool(self):
            assert self.clients.shared and len(live_blocks()) == 2
            raise OSError("cannot fork")

        monkeypatch.setattr(ProcessExecutor, "_new_pool", no_pool)
        with pytest.raises(OSError, match="cannot fork"):
            ProcessExecutor(tiny_clients, tiny_model_factory, workers=2)
        assert not live_blocks()
