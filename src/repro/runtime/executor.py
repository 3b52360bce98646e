"""Pluggable client-execution backends for one federated round.

The FL loop needs exactly one thing from the execution layer: "run
``local_train`` for these participants against these global weights and
give me their updates in participant order".  :class:`Executor` captures
that contract; three backends implement it:

* :class:`SerialExecutor` — the seed behavior: one shared workspace model,
  clients trained in a simple loop.  Zero overhead, O(1) model memory.
* :class:`ThreadExecutor` — a thread pool over a pool of model replicas.
  NumPy releases the GIL inside its kernels, so medium/large models see
  real concurrency without any pickling.
* :class:`ProcessExecutor` — a process pool with one long-lived model
  replica per worker.  Clients are shipped to the workers **once** at
  pool construction; each round only the flat weight vector crosses the
  process boundary, and participants are dispatched in ``workers`` strided
  chunks so uneven client sizes balance out.

All three produce bit-identical updates for the same experiment seed
because per-client batch schedules *and* forward-time randomness (Dropout
masks) come from :mod:`repro.runtime.seeding`'s ``(round, client)``-keyed
streams, not from shared stateful generators, and a model replica is
fully determined by ``set_flat_weights`` (parameters and buffers alike).
This holds for every model in the zoo, including ``vgg11``'s Dropout
layers.

**Fault tolerance.**  Every backend retries failed tasks under a
:class:`~repro.runtime.faults.RetryPolicy`: a retried attempt re-derives
the *same* ``(round, client)`` RNG cell, so a faulted-and-recovered run
is bit-identical to a clean one.  Injected faults (a seeded
:class:`~repro.runtime.faults.FaultPlan` on the round context) are
accounted in the deterministic ``sim`` domain — the schedule is
pre-computed parent-side from the plan's pure draws, identically on all
backends; real recovery work (pool rebuilds after ``BrokenProcessPool``,
per-task timeouts, collateral re-dispatch) lands in the backend-dependent
``rt`` domain.  The process backend rebuilds its pool on breakage and,
after ``max_pool_rebuilds`` failures, degrades to in-parent serial
execution for the remaining work — results unchanged either way.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.dtypes import get_default_dtype, set_default_dtype
from repro.nn.losses import SoftmaxCrossEntropy
from repro.runtime.faults import FaultInjected, FaultPlan, FaultStats, RetryPolicy
from repro.runtime.seeding import STREAM_FORWARD, client_round_rng

if TYPE_CHECKING:  # imported lazily to keep runtime free of an fl<->runtime cycle
    from repro.fl.client import Client, ClientUpdate

BACKENDS = ("serial", "thread", "process")


def _client_lookup(clients):
    """An id -> Client mapping over either a list or a lazy provider.

    Lazy providers (:class:`repro.fleet.scale.LazyClientPool`) already
    support ``[client_id]`` lookup and must not be iterated (that would
    materialize the whole fleet), so they pass through unchanged;
    materialized lists become the historical dict.
    """
    from repro.fleet.scale import is_client_provider

    if is_client_provider(clients):
        return clients
    return {c.client_id: c for c in clients}


@dataclass(frozen=True)
class RoundContext:
    """Everything a worker needs to train one round's participants.

    ``job_rounds`` overrides the RNG cell's round index per client: the
    asynchronous engine dispatches each client *job* with its own unique
    index (a client may train many times at different virtual moments),
    but a batch of jobs sharing the same global weights still crosses the
    executor boundary as one round.  Synchronous rounds leave it ``None``
    and every participant seeds from ``round_idx``.

    ``client_batches`` caps a client's total gradient steps for the round
    (the fleet simulator's completeness axis); clients absent from the
    mapping run their full ``epochs`` budget.

    ``trace`` asks the backend to measure a wall-time span around each
    client's local training and ship it back with the results (see
    :meth:`Executor.take_worker_spans`); the default leaves the hot path
    untouched.

    ``fault_plan`` injects seeded failures into each cell's *first*
    attempt (see :mod:`repro.runtime.faults`); ``None`` keeps every
    backend on its historical fault-free path.
    """

    round_idx: int
    global_weights: np.ndarray
    epochs: int
    lr: float
    batch_size: int
    base_seed: int
    client_kwargs: dict = field(default_factory=dict)
    job_rounds: dict[int, int] | None = None
    client_batches: dict[int, int] | None = None
    trace: bool = False
    fault_plan: FaultPlan | None = None


def _cell_index(ctx: RoundContext, client_id: int) -> int:
    """The RNG cell's time coordinate for one client: the round index, or
    the client's job index under the async engine's ``job_rounds`` map."""
    if ctx.job_rounds is not None:
        return ctx.job_rounds.get(client_id, ctx.round_idx)
    return ctx.round_idx


def _train_one(
    client: Client, model, loss, ctx: RoundContext,
    attempt: int = 0, real_crash: bool = False,
) -> ClientUpdate:
    """One client's local training with its (round, client)-keyed RNGs.

    Batch shuffling and forward-time randomness (Dropout masks) draw from
    separate streams of the same cell, so both are pure functions of
    ``(seed, round, client)`` — never of the worker or replica that
    happens to serve the client.  An attached fault plan may fail the
    cell's first attempt *before* any training RNG is touched, so the
    retry trains with pristine streams and recovery is bit-identical.
    """
    seed_round = _cell_index(ctx, client.client_id)
    if ctx.fault_plan is not None:
        ctx.fault_plan.inject(
            seed_round, client.client_id, attempt, real_crash=real_crash
        )
    rng = client_round_rng(ctx.base_seed, seed_round, client.client_id)
    forward_rng = client_round_rng(
        ctx.base_seed, seed_round, client.client_id, stream=STREAM_FORWARD
    )
    max_batches = None
    if ctx.client_batches is not None:
        max_batches = ctx.client_batches.get(client.client_id)
    return client.local_train(
        model,
        ctx.global_weights,
        epochs=ctx.epochs,
        lr=ctx.lr,
        batch_size=ctx.batch_size,
        loss=loss,
        rng=rng,
        forward_rng=forward_rng,
        max_batches=max_batches,
        **ctx.client_kwargs,
    )


def _train_one_traced(
    client: Client, model, loss, ctx: RoundContext, worker: str,
    attempt: int = 0, real_crash: bool = False,
) -> tuple[ClientUpdate, dict]:
    """:func:`_train_one` plus a wall-time span measured *in the worker*.

    The span is a plain dict in the ``repro-trace/v1`` schema so it can
    cross the process boundary with the task result and merge into the
    parent's tracer — the obs layer never writes shared state from
    worker processes.  Wall timestamps are epoch seconds, comparable
    across processes; the span carries no simulated-time fields (those
    are derived deterministically on the server side).
    """
    t0 = time.time()
    p0 = time.perf_counter()
    update = _train_one(client, model, loss, ctx, attempt, real_crash)
    seed_round = _cell_index(ctx, client.client_id)
    span = {
        "type": "span",
        "name": "worker.local_train",
        "cat": "runtime",
        "track": f"worker/{worker}",
        "sim_t0": None,
        "sim_dur": None,
        "wall_t0": t0,
        "wall_dur": time.perf_counter() - p0,
        "args": {"client": client.client_id, "round": seed_round},
    }
    return update, span


def _worker_label() -> str:
    """A stable label for the executing worker (process or thread)."""
    return f"pid{os.getpid()}/{threading.current_thread().name}"


class Executor:
    """Runs one round of client training; backends differ only in *how*."""

    name: str = "base"
    # Default recovery policy; backends accept a custom one via `retry=`.
    retry: RetryPolicy = RetryPolicy()

    def run_round(self, ctx: RoundContext, participants: list[int]) -> list[ClientUpdate]:
        """Train ``participants`` against ``ctx``; results in participant order."""
        raise NotImplementedError

    # -- fault accounting -----------------------------------------------------
    def _stats(self) -> FaultStats:
        stats = getattr(self, "_fault_stats", None)
        if stats is None:
            stats = self._fault_stats = FaultStats()
        return stats

    def take_fault_stats(self) -> FaultStats | None:
        """Fault/recovery accounting since the last call, or None.

        Mirrors :meth:`take_worker_spans`: the engine reads (and clears)
        the stats after each ``run_round`` and owns charging the sim
        backoff to the virtual clock and publishing the obs counters.
        """
        stats = getattr(self, "_fault_stats", None)
        self._fault_stats = None
        return stats

    def _prerecord_injections(self, ctx: RoundContext, participants: list[int]) -> None:
        """Account the round's injected-fault schedule, parent-side.

        The plan's draws are pure functions of ``(seed, cell)``, so the
        ``sim.fault.*`` numbers computed here are bit-identical across
        backends — unlike the *observed* failures (a crashed process
        pool takes innocent tasks down with it), which land in the
        ``rt`` domain as they surface.
        """
        plan = ctx.fault_plan
        if plan is None or not plan.active:
            return
        stats = self._stats()
        for cid in participants:
            kind = plan.draw(_cell_index(ctx, cid), cid)
            if kind is not None:
                stats.record_injected(kind, self.retry.backoff_s(0))

    def _run_retrying(self, ctx: RoundContext, cid: int, attempt_fn):
        """Bounded in-process retry around one task.

        ``attempt_fn(attempt)`` runs the work; injected faults retry
        without further accounting (the schedule was pre-recorded), real
        exceptions count one ``rt`` retry each and re-raise once the
        budget is spent.
        """
        policy = self.retry
        attempt = 0
        while True:
            try:
                return attempt_fn(attempt)
            except FaultInjected:
                if attempt >= policy.max_retries:
                    raise
            except Exception:
                if attempt >= policy.max_retries:
                    raise
                self._stats().rt_retries += 1
            attempt += 1

    def map_tasks(self, fn, items: list) -> list:
        """Run an arbitrary task over ``items``, results in item order.

        A generic side-channel for non-FL workloads that want the backend's
        parallelism (DRL pretraining workers, environment rollouts).  The
        base implementation is sequential; pooled backends override it.
        The caller owns determinism: tasks must not share mutable state.
        """
        return [fn(item) for item in items]

    def take_worker_spans(self) -> list[dict]:
        """Worker-side wall spans from the last traced ``run_round``.

        Returns (and clears) the span dicts measured inside workers when
        the round's :attr:`RoundContext.trace` flag was set; empty for
        untraced rounds.  The caller merges them into its tracer via
        :meth:`repro.obs.Tracer.add_worker_spans`.
        """
        spans = getattr(self, "_worker_spans", None)
        if not spans:
            return []
        self._worker_spans = []
        return spans

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """The seed's sequential loop over one shared workspace model."""

    name = "serial"

    def __init__(
        self, clients: list[Client], model_factory, model=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.clients = _client_lookup(clients)
        # The caller may donate its workspace model (the simulation reuses
        # its evaluation model) — training overwrites all state anyway.
        self._model = model if model is not None else model_factory(np.random.default_rng(0))
        self._loss = SoftmaxCrossEntropy()
        if retry is not None:
            self.retry = retry

    def run_round(self, ctx: RoundContext, participants: list[int]) -> list[ClientUpdate]:
        self._prerecord_injections(ctx, participants)
        if not ctx.trace:
            return [
                self._run_retrying(
                    ctx, cid,
                    lambda attempt, cid=cid: _train_one(
                        self.clients[cid], self._model, self._loss, ctx, attempt
                    ),
                )
                for cid in participants
            ]
        label = _worker_label()
        results, spans = [], []
        for cid in participants:
            update, span = self._run_retrying(
                ctx, cid,
                lambda attempt, cid=cid: _train_one_traced(
                    self.clients[cid], self._model, self._loss, ctx, label, attempt
                ),
            )
            results.append(update)
            spans.append(span)
        self._worker_spans = spans
        return results


class ThreadExecutor(Executor):
    """Thread pool over a fixed pool of model replicas.

    A replica is borrowed per task and returned afterwards, so memory is
    O(workers) models regardless of K, and no replica is ever shared
    between two in-flight clients.
    """

    name = "thread"

    def __init__(
        self,
        clients: list[Client] = (),
        model_factory=None,
        workers: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.workers = max(1, workers or (os.cpu_count() or 1))
        self.clients = _client_lookup(clients)
        self._model_factory = model_factory
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fl-client"
        )
        # Model replicas are built lazily on the first run_round, so a
        # map_tasks-only executor (DRL pretraining) never pays for them.
        self._replicas: queue.SimpleQueue | None = None
        if retry is not None:
            self.retry = retry

    def _ensure_replicas(self) -> queue.SimpleQueue:
        if self._replicas is None:
            if self._model_factory is None:
                raise ValueError(
                    "this ThreadExecutor was built without a model_factory; "
                    "it can only serve map_tasks, not run_round"
                )
            self._replicas = queue.SimpleQueue()
            for _ in range(self.workers):
                self._replicas.put(
                    (self._model_factory(np.random.default_rng(0)), SoftmaxCrossEntropy())
                )
        return self._replicas

    def _run(self, cid: int, ctx: RoundContext, attempt: int = 0):
        replicas = self._replicas
        model, loss = replicas.get()
        try:
            if ctx.trace:
                return _train_one_traced(
                    self.clients[cid], model, loss, ctx, _worker_label(), attempt
                )
            return _train_one(self.clients[cid], model, loss, ctx, attempt)
        finally:
            replicas.put((model, loss))

    def _collect(self, future, cid: int, ctx: RoundContext):
        """One future's result, with timeout-aware bounded retry.

        A timed-out task keeps running in its pool thread (threads cannot
        be preempted) until it returns its replica — injected hangs raise
        after ``hang_s``, bounding the stall; the replacement attempt
        simply queues for the next free replica.
        """
        policy = self.retry
        attempt = 0
        while True:
            try:
                return future.result(timeout=policy.task_timeout_s)
            except FaultInjected:
                if attempt >= policy.max_retries:
                    raise
            except FuturesTimeout:
                self._stats().rt_timeouts += 1
                if attempt >= policy.max_retries:
                    raise TimeoutError(
                        f"client {cid} task exceeded {policy.task_timeout_s}s "
                        f"on each of {attempt + 1} attempts"
                    ) from None
            except Exception:
                if attempt >= policy.max_retries:
                    raise
                self._stats().rt_retries += 1
            attempt += 1
            future = self._pool.submit(self._run, cid, ctx, attempt)

    def run_round(self, ctx: RoundContext, participants: list[int]) -> list[ClientUpdate]:
        self._ensure_replicas()
        self._prerecord_injections(ctx, participants)
        futures = [self._pool.submit(self._run, cid, ctx) for cid in participants]
        if not ctx.trace:
            return [self._collect(f, cid, ctx) for f, cid in zip(futures, participants)]
        results, spans = [], []
        for f, cid in zip(futures, participants):
            update, span = self._collect(f, cid, ctx)
            results.append(update)
            spans.append(span)
        self._worker_spans = spans
        return results

    def map_tasks(self, fn, items: list) -> list:
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.shutdown(wait=True)
        except Exception:
            pass


# Per-process worker state, installed once by the pool initializer so each
# round only ships the RoundContext (weights) — never clients or models.
_WORKER_STATE: dict = {}


def _init_worker(clients: list[Client], model_factory, dtype_name: str) -> None:
    # Workers inherit the parent's compute dtype so their model replicas
    # (and every allocation they make) match the parent substrate.
    set_default_dtype(dtype_name)
    _WORKER_STATE["clients"] = {c.client_id: c for c in clients}
    _WORKER_STATE["model"] = model_factory(np.random.default_rng(0))
    _WORKER_STATE["loss"] = SoftmaxCrossEntropy()


def _run_chunk(ctx: RoundContext, chunk: list[tuple[int, int]]):
    clients = _WORKER_STATE["clients"]
    model = _WORKER_STATE["model"]
    loss = _WORKER_STATE["loss"]
    if not ctx.trace:
        return [(pos, _train_one(clients[cid], model, loss, ctx)) for pos, cid in chunk]
    label = _worker_label()
    return [
        (pos, *_train_one_traced(clients[cid], model, loss, ctx, label))
        for pos, cid in chunk
    ]


def _run_one_ft(ctx: RoundContext, pos: int, cid: int, attempt: int):
    """One task on the fault-tolerant path: per-task futures so the parent
    can time out, retry, and re-dispatch at task granularity.

    ``real_crash=True`` lets an injected ``crash`` genuinely kill this
    worker process (``os._exit``), so the parent's ``BrokenProcessPool``
    recovery is exercised by the real failure mode, not a stand-in.
    """
    clients = _WORKER_STATE["clients"]
    model = _WORKER_STATE["model"]
    loss = _WORKER_STATE["loss"]
    if not ctx.trace:
        update = _train_one(clients[cid], model, loss, ctx, attempt, real_crash=True)
        return pos, update, None
    update, span = _train_one_traced(
        clients[cid], model, loss, ctx, _worker_label(), attempt, real_crash=True
    )
    return pos, update, span


class ProcessExecutor(Executor):
    """Process pool with per-worker model replicas and chunked dispatch.

    Client datasets are moved into :mod:`multiprocessing.shared_memory`
    before the clients are shipped to the workers, so each worker maps the
    parent's pages instead of materialising its own copy of every shard
    (pickling a shared dataset transfers block names, not arrays).  Falls
    back to plain pickling transparently when shared memory is
    unavailable; see :mod:`repro.data.shm`.
    """

    name = "process"

    def __init__(
        self, clients: list[Client], model_factory, workers: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        from repro.data.shm import share_clients
        from repro.fleet.scale import is_client_provider

        if is_client_provider(clients):
            raise ValueError(
                "the process backend ships every client to its workers at "
                "pool construction — a lazy client pool would be fully "
                "materialized; use the serial or thread backend"
            )
        self.workers = max(1, workers or (os.cpu_count() or 1))
        if retry is not None:
            self.retry = retry
        self._closed = False
        self._pool = None
        self._shm_pool = None
        self._pool_rebuilds = 0
        self._degraded = False
        # Kept for the degraded in-parent fallback: the original clients
        # (the caller holds them anyway) and a lazily built local model.
        self._fallback_clients = {c.client_id: c for c in clients}
        self._model_factory = model_factory
        self._local = None
        shared_clients, self._shm_pool = share_clients(list(clients))
        self._initargs = (shared_clients, model_factory, get_default_dtype().name)
        try:
            self._pool = self._new_pool()
        except BaseException:
            # Half-built executor: release the shm blocks before surfacing.
            self.close()
            raise

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=self._initargs,
        )

    def _terminate_pool(self) -> None:
        """Tear the pool down without waiting on its (possibly hung) tasks."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", None) or {})
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for pid in procs:
            # Outstanding workers may be stuck mid-task; a terminate is the
            # only preemption a process pool supports.
            try:
                os.kill(pid, 15)
            except (OSError, TypeError):
                pass

    def _rebuild_pool(self, stats: FaultStats) -> None:
        """Replace a broken/stuck pool; degrade to in-parent serial work
        once the lifetime rebuild budget is spent."""
        self._pool_rebuilds += 1
        stats.pool_rebuilds += 1
        self._terminate_pool()
        if self._pool_rebuilds > self.retry.max_pool_rebuilds:
            self._degraded = True
            stats.degraded = True
            return
        self._pool = self._new_pool()

    def _run_local(self, ctx: RoundContext, cid: int, attempt: int):
        """Degraded mode: run one task in the parent, serial-style.

        Injected crashes surface as :class:`InjectedCrash` here (never
        ``os._exit`` — the parent must survive), so the retry loop
        recovers them like any other injected fault.
        """
        if self._local is None:
            self._local = (
                self._model_factory(np.random.default_rng(0)),
                SoftmaxCrossEntropy(),
            )
        model, loss = self._local
        client = self._fallback_clients[cid]
        policy = self.retry
        while True:
            try:
                if ctx.trace:
                    return _train_one_traced(
                        client, model, loss, ctx, _worker_label(), attempt
                    )
                return _train_one(client, model, loss, ctx, attempt), None
            except FaultInjected:
                if attempt >= policy.max_retries:
                    raise
            except Exception:
                if attempt >= policy.max_retries:
                    raise
                self._stats().rt_retries += 1
            attempt += 1

    def run_round(self, ctx: RoundContext, participants: list[int]) -> list[ClientUpdate]:
        self._prerecord_injections(ctx, participants)
        fault_tolerant = (
            (ctx.fault_plan is not None and ctx.fault_plan.active)
            or self.retry.task_timeout_s is not None
        )
        if self._degraded or fault_tolerant:
            return self._run_round_ft(ctx, participants)
        try:
            return self._run_round_chunked(ctx, participants)
        except BrokenProcessPool:
            # A real worker death (no plan involved): rebuild and redo the
            # whole round at task granularity.  Completed chunk results are
            # discarded — recomputing them is bit-identical.
            stats = self._stats()
            stats.rt_retries += len(participants)
            self._rebuild_pool(stats)
            return self._run_round_ft(ctx, participants, first_attempt=1)

    def _run_round_chunked(
        self, ctx: RoundContext, participants: list[int]
    ) -> list[ClientUpdate]:
        indexed = list(enumerate(participants))
        n_chunks = min(self.workers, len(indexed))
        # Strided chunks: client sizes are typically sorted-ish per
        # partition, so striding balances work better than contiguous splits.
        chunks = [indexed[i::n_chunks] for i in range(n_chunks)]
        futures = [self._pool.submit(_run_chunk, ctx, chunk) for chunk in chunks]
        results: list[ClientUpdate | None] = [None] * len(indexed)
        if not ctx.trace:
            for f in futures:
                for pos, update in f.result():
                    results[pos] = update
            return results  # type: ignore[return-value]
        spans: list[dict] = []
        for f in futures:
            for pos, update, span in f.result():
                results[pos] = update
                spans.append(span)
        self._worker_spans = spans
        # IPC accounting for the metrics registry: the broadcast weights
        # cross once per chunk, each update's weight vector comes back
        # once.  Counted parent-side — deterministic for a fixed worker
        # count, and no shared-state writes from the workers.
        self.last_ipc_bytes = {
            "out": int(ctx.global_weights.nbytes) * len(chunks),
            "in": int(sum(u.weights.nbytes for u in results if u is not None)),
        }
        return results  # type: ignore[return-value]

    def _run_round_ft(
        self, ctx: RoundContext, participants: list[int], first_attempt: int = 0
    ) -> list[ClientUpdate]:
        """Per-task dispatch with timeout, retry, pool rebuild, degradation.

        Slower than the chunked path (one future per task instead of one
        per worker), which is why the clean configuration never takes it.
        """
        policy = self.retry
        stats = self._stats()
        n = len(participants)
        results: list[ClientUpdate | None] = [None] * n
        spans: dict[int, dict] = {}
        attempts = [first_attempt] * n
        pending = set(range(n))
        future_pos: dict = {}
        submissions = 0

        def submit(pos: int) -> None:
            nonlocal submissions
            f = self._pool.submit(_run_one_ft, ctx, pos, participants[pos], attempts[pos])
            future_pos[f] = pos
            submissions += 1

        def finish(pos: int, update, span) -> None:
            results[pos] = update
            pending.discard(pos)
            if span is not None:
                spans[pos] = span

        if not self._degraded:
            for pos in range(n):
                submit(pos)

        while future_pos:
            done, _ = wait(
                set(future_pos), timeout=policy.task_timeout_s,
                return_when=FIRST_COMPLETED,
            )
            retry_positions: list[int] = []
            recycle = False
            if not done:
                # Nothing finished inside the timeout window: the pool is
                # stuck (hung worker).  Processes can be preempted, so the
                # recovery is rebuild-and-redispatch.
                stats.rt_timeouts += 1
                recycle = True
            else:
                for f in done:
                    pos = future_pos.pop(f)
                    try:
                        _, update, span = f.result()
                    except FaultInjected:
                        # Pre-counted in the sim domain; just retry.
                        if attempts[pos] >= policy.max_retries:
                            raise
                        attempts[pos] += 1
                        retry_positions.append(pos)
                    except BrokenProcessPool:
                        stats.rt_retries += 1
                        attempts[pos] += 1
                        retry_positions.append(pos)
                        recycle = True
                    except Exception:
                        if attempts[pos] >= policy.max_retries:
                            raise
                        stats.rt_retries += 1
                        attempts[pos] += 1
                        retry_positions.append(pos)
                    else:
                        finish(pos, update, span)
            if recycle:
                # Every outstanding future is doomed (broken pool) or being
                # abandoned (stuck pool): re-dispatch the lot.  Collateral
                # victims are rt-domain retries — backend-dependent by
                # nature, invisible to the sim counters.
                doomed = sorted(set(future_pos.values()))
                future_pos.clear()
                for pos in doomed:
                    attempts[pos] += 1
                stats.rt_retries += len(doomed)
                retry_positions.extend(doomed)
                self._rebuild_pool(stats)
            if self._degraded:
                for pos in sorted(set(retry_positions)):
                    update, span = self._run_local(ctx, participants[pos], attempts[pos])
                    finish(pos, update, span)
                retry_positions = []
            for pos in retry_positions:
                submit(pos)

        # Degraded before (or without) any dispatch: whatever never ran in
        # a worker runs in the parent now.
        for pos in sorted(pending):
            update, span = self._run_local(ctx, participants[pos], attempts[pos])
            finish(pos, update, span)

        if ctx.trace:
            self._worker_spans = [spans[pos] for pos in sorted(spans)]
            self.last_ipc_bytes = {
                "out": int(ctx.global_weights.nbytes) * submissions,
                "in": int(sum(u.weights.nbytes for u in results if u is not None)),
            }
        return results  # type: ignore[return-value]

    def map_tasks(self, fn, items: list) -> list:
        # Tasks must be picklable; closures (e.g. env factories) are not —
        # such callers should use the thread backend's map_tasks instead.
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:
                pass
        # The shm pool stays referenced (callers introspect block counts
        # post-close); the _closed guard makes the release single-shot.
        if self._shm_pool is not None:
            try:
                self._shm_pool.close()
            except Exception:
                pass


def make_executor(
    backend: str,
    clients: list[Client],
    model_factory,
    workers: int | None = None,
    model=None,
    retry: RetryPolicy | None = None,
) -> Executor:
    """Factory for the CLI/harness ``--backend`` flag."""
    if backend == "serial":
        return SerialExecutor(clients, model_factory, model=model, retry=retry)
    if backend == "thread":
        return ThreadExecutor(clients, model_factory, workers=workers, retry=retry)
    if backend == "process":
        return ProcessExecutor(clients, model_factory, workers=workers, retry=retry)
    raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
