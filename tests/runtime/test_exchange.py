"""The process backend's shared-memory round exchange.

Global weights go out through one named block and client updates come
back as the rows of a fresh ``(n, dim)`` result block per ``run_round``
call, which the returned updates view in place; a future carries block
names, not arrays.  Everything here runs the process backend at 2
workers against the serial executor: the exchange may change what
crosses the process boundary, never a bit of an update — and it may
leave none of the blocks it created behind (the ``live_blocks`` fixture
counts only those).
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
                assert ex._exchange.weights.dtype == np.dtype(dtype)
                assert updates[0].weights.base.dtype == np.dtype(dtype)
        assert_same_updates(updates, reference)

    def test_updates_survive_the_next_round(self, tiny_clients, tiny_model_factory):
        """Callers hold weight vectors past the round (FedBuff's buffer,
        the defenses): what they got are rows of the call's own block,
        which no later call writes."""
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            first = ex.run_round(ctx, PARTICIPANTS)
            kept = [u.weights.copy() for u in first]
            ex.run_round(dataclasses.replace(ctx, round_idx=1), PARTICIPANTS[::-1])
        for update, want in zip(first, kept):
            np.testing.assert_array_equal(update.weights, want)
            assert update.weights.flags.writeable

    def test_each_call_sizes_its_own_result_block(
        self, tiny_clients, tiny_model_factory, live_blocks
    ):
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            for participants in (PARTICIPANTS[:2], PARTICIPANTS, PARTICIPANTS[:3]):
                reference = serial_updates(ctx, tiny_clients, tiny_model_factory, participants)
                updates = ex.run_round(ctx, participants)
                assert_same_updates(updates, reference)
                assert ex._exchange.ref.rows == len(participants)
                assert updates[0].weights.base.shape == (
                    len(participants), ctx.global_weights.size)
                # The call unlinked its result block on return: the
                # dataset's block pair plus one weights block, nothing else.
                assert tiny_clients.shared
                assert len(live_blocks()) == 2 + 1
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
            stale = {old.weights_name, old.results_name}
            assert stale.isdisjoint({new.weights_name, new.results_name})
            assert stale.isdisjoint(live_blocks())
            # The round after the rebuild runs on the new pool and weights
            # block, with a result block of its own.
            assert_same_updates(ex.run_round(ctx, PARTICIPANTS), reference)
            assert ex._exchange.ref.weights_name == new.weights_name
            assert ex._exchange.ref.results_name != new.results_name
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
            assert old.results_name != new.results_name
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
        # One block pair for the training set, the exchange's weights
        # block; the call unlinked its result block when it returned.
        assert len(live_blocks()) == 2 + 1
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


def fedbuff_cfg(backend, **kw):
    """A FedBuff run whose buffers mix rows of several ``run_round`` calls
    on the process backend (the arrival order interleaves dispatch groups)."""
    from repro.harness import ExperimentConfig

    return ExperimentConfig(
        method="fedavg", scale="ci", n_clients=5, clients_per_round=5,
        aggregation="fedbuff", latency_model="lognormal", buffer_size=3,
        backend=backend, workers=2 if backend == "process" else None, **kw,
    ).with_(rounds=6)


def row_blocks(updates) -> set[int]:
    """The distinct 2-D arrays the updates' weight vectors are rows of."""
    return {id(u.weights.base) for u in updates
            if isinstance(u.weights.base, np.ndarray) and u.weights.base.ndim == 2}


class TestRowsInPlace:
    """The parent's updates are rows of the call's result block, not
    copies; aggregation reads them where the workers wrote them."""

    def test_rows_are_one_matrix_per_call_in_participant_order(
        self, tiny_clients, tiny_model_factory
    ):
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            first = ex.run_round(ctx, PARTICIPANTS)
            second = ex.run_round(dataclasses.replace(ctx, round_idx=1), PARTICIPANTS)
        matrix = first[0].weights.base
        assert matrix.shape == (len(PARTICIPANTS), ctx.global_weights.size)
        for pos, update in enumerate(first):
            assert update.weights.base is matrix
            assert np.shares_memory(update.weights, matrix[pos])
            assert (update.weights.__array_interface__["data"][0]
                    == matrix[pos].__array_interface__["data"][0])
        # A call never writes into an earlier call's block.
        assert second[0].weights.base is not matrix
        assert not np.shares_memory(second[0].weights.base, matrix)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_combine_over_rows_equals_the_stacked_product(
        self, dtype, tiny_clients, tiny_model_factory
    ):
        from repro.fl.strategies.base import combine_updates

        with default_dtype(dtype):
            ctx = make_ctx(tiny_model_factory)
            with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
                updates = ex.run_round(ctx, PARTICIPANTS)
        alphas = np.random.default_rng(3).random(len(updates))
        alphas /= alphas.sum()
        stacked = np.stack([u.weights.copy() for u in updates])
        want = alphas.astype(stacked.dtype) @ stacked
        got = combine_updates(updates, alphas)
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want)

    def test_rows_outlive_close_and_a_forced_rebuild(
        self, tiny_clients, tiny_model_factory, live_blocks
    ):
        """The parent's mapping of a result block closes only when its
        last row is garbage: neither a pool rebuild nor ``close`` may
        unmap pages under rows a caller still holds."""
        ctx = make_ctx(tiny_model_factory)
        reference = serial_updates(ctx, tiny_clients, tiny_model_factory, PARTICIPANTS)
        ex = ProcessExecutor(tiny_clients, tiny_model_factory, workers=2)
        held = ex.run_round(ctx, PARTICIPANTS)
        ex._rebuild_pool()
        assert_same_updates(held, reference)
        after_rebuild = ex.run_round(ctx, PARTICIPANTS)
        assert_same_updates(after_rebuild, reference)
        ex.close()
        assert not live_blocks()
        assert_same_updates(held, reference)
        assert_same_updates(after_rebuild, reference)
        # Still writable memory the parent owns, after every unlink.
        held[0].weights += 1
        np.testing.assert_array_equal(held[0].weights, reference[0].weights + 1)

    def test_a_rebuild_mid_call_copies_out_the_rows_it_held(
        self, tiny_clients, tiny_model_factory, live_blocks
    ):
        """Rows collected before a crash rebuild leave the abandoned block
        (an orphaned worker may still write it); the rest are rows of the
        re-staged block.  Either way every update is serial's."""
        ctx = make_ctx(tiny_model_factory,
                       fault_plan=plan_injecting("crash", PARTICIPANTS))
        reference = serial_updates(ctx, tiny_clients, tiny_model_factory, PARTICIPANTS)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            updates = ex.run_round(ctx, PARTICIPANTS)
            assert ex.take_fault_stats().pool_rebuilds >= 1
        assert_same_updates(updates, reference)
        # Nothing views the abandoned block: heap copies, plus rows of
        # the one block the re-dispatch staged.
        assert len(row_blocks(updates)) <= 1
        assert not live_blocks()

    def test_no_psm_entry_after_close(self, tiny_clients, tiny_model_factory, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        names: list[str] = []
        real_create = shm_mod.create_array

        def recording_create(shape, dtype):
            block, array = real_create(shape, dtype)
            names.append(block.name.lstrip("/"))
            return block, array

        monkeypatch.setattr(shm_mod, "create_array", recording_create)
        ctx = make_ctx(tiny_model_factory)
        with ProcessExecutor(tiny_clients, tiny_model_factory, workers=2) as ex:
            # Every call's rows stay referenced through close().
            held = [ex.run_round(dataclasses.replace(ctx, round_idx=r), PARTICIPANTS)
                    for r in range(3)]
        # Training set pair, one weights block, three result blocks.
        assert len(names) == 2 + 1 + 3
        assert all(name.startswith("psm_") for name in names)
        assert not [n for n in names if os.path.exists(os.path.join("/dev/shm", n))]
        assert all(len(updates) == len(PARTICIPANTS) for updates in held)

    def test_fedbuff_buffers_spanning_calls_match_serial(self, monkeypatch):
        import repro.fl.simulation as simulation
        from repro.harness import run_experiment
        from repro.harness.reporting import history_digest

        spans: list[int] = []
        real_combine = simulation.combine_updates

        def spying_combine(updates, alphas, normalize=False):
            spans.append(len(row_blocks(updates)))
            return real_combine(updates, alphas, normalize)

        monkeypatch.setattr(simulation, "combine_updates", spying_combine)
        process = history_digest(run_experiment(fedbuff_cfg("process")).history)
        assert max(spans) >= 2  # some buffer held rows of two or more calls
        monkeypatch.undo()
        assert process == history_digest(run_experiment(fedbuff_cfg("serial")).history)

    def test_fedbuff_resume_with_buffered_rows_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        """A snapshot taken while trained-but-unarrived updates are rows of
        live result blocks pickles their values; the resumed run is the
        uninterrupted one, bit for bit."""
        from repro.harness import run_experiment
        from repro.harness.reporting import history_digest
        from repro.runtime.checkpoint import Checkpointer

        clean = history_digest(run_experiment(fedbuff_cfg("process")).history)
        pending: list[int] = []
        real_step = Checkpointer.step

        class Interrupted(Exception):
            pass

        def step_then_interrupt(self, state_fn):
            pending.append(len(row_blocks(state_fn()["loop"]["computed"].values())))
            saved = real_step(self, state_fn)
            if self.saves >= 3:
                raise Interrupted
            return saved

        ck = str(tmp_path / "run.ckpt")
        monkeypatch.setattr(Checkpointer, "step", step_then_interrupt)
        with pytest.raises(Interrupted):
            run_experiment(fedbuff_cfg("process", checkpoint_path=ck))
        monkeypatch.undo()
        assert any(pending)  # a save held rows of a live result block
        resumed = run_experiment(fedbuff_cfg("process", resume=ck))
        assert history_digest(resumed.history) == clean
