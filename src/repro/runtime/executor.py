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
  replica per worker.  The client pool is shipped to the workers
  **once** at pool construction; each round the flat weight
  vector is copied once into a shared-memory block every worker reads,
  the trained vectors come back as the rows of one shared matrix per
  round that the updates then view in place, and a future pickles only
  ids, seeds and block names.  Where a block cannot be created, the
  vectors are pickled instead, with identical results.

All three produce bit-identical updates for the same experiment seed
because per-client batch schedules *and* forward-time randomness (Dropout
masks) come from :mod:`repro.runtime.seeding`'s ``(round, client)``-keyed
streams, not from shared stateful generators, and a model replica is
fully determined by ``set_flat_weights`` (parameters and buffers alike).
This holds for every model in the zoo, including ``vgg11``'s Dropout
layers.

**One task path.**  Every task on every backend is one
:func:`_train_one` call, and every failure — injected or real — goes
through one rule, :meth:`Executor._next_attempt`, under a
:class:`~repro.runtime.faults.RetryPolicy`: a retried attempt re-derives
the *same* ``(round, client)`` RNG cell, so a faulted-and-recovered run
is bit-identical to a clean one.  Injected faults (a seeded
:class:`~repro.runtime.faults.FaultPlan` on the round context) are
accounted in the deterministic ``sim`` domain — the schedule is
pre-computed parent-side from the plan's pure draws, identically on all
backends; real recovery work (task errors, pool rebuilds after
``BrokenProcessPool``, per-task timeouts, collateral re-dispatch) lands
in the backend-dependent ``rt`` domain.

The process backend has one dispatch loop, and the fault-tolerant loop
*is* the fast path: the first wave is ``min(workers, K)`` strided chunks
(one future per worker, uneven client sizes balance out) — or K
single-task futures when a fault plan is active or a task timeout is set,
so that recovery is per task — and whatever fails afterwards is
re-dispatched one task per future.  A chunk that fails costs a re-run of
every task it carried, finished or not (recomputing is bit-identical).  A
dead or stuck pool is rebuilt and, after ``max_pool_rebuilds`` failures,
the executor degrades to in-parent serial execution for the remaining
work — results unchanged either way.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.data import shm
from repro.nn.dtypes import get_default_dtype, set_default_dtype
from repro.nn.losses import SoftmaxCrossEntropy
from repro.runtime.faults import (
    FaultInjected, FaultPlan, FaultStats, RetriesExhausted, RetryPolicy,
)
from repro.runtime.seeding import STREAM_FORWARD, STREAM_MODEL_INIT, client_round_rng, run_rng

if TYPE_CHECKING:  # imported lazily to keep runtime free of an fl<->runtime cycle
    from repro.fl.client import Client, ClientUpdate
    from repro.fleet.scale import LazyClientPool
    from repro.nn.model import Sequential

BACKENDS = ("serial", "thread", "process")


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

    ``trace`` asks :func:`_train_one` to measure a wall-time span around
    each client's local training and ship it back with the result (see
    :meth:`Executor.take_worker_spans`); untraced tasks carry ``None``.

    ``fault_plan`` injects seeded failures into each cell's *first*
    attempt (see :mod:`repro.runtime.faults`).  ``None`` or an inactive
    plan injects nothing; the task path is the same either way — an
    active plan only makes the process backend's first wave per-task
    instead of chunked.
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


def _worker_label() -> str:
    """A stable label for the executing worker (process or thread)."""
    return f"pid{os.getpid()}/{threading.current_thread().name}"


def _train_one(
    client: Client, model, loss, ctx: RoundContext,
    attempt: int = 0, real_crash: bool = False,
) -> tuple[ClientUpdate, dict | None]:
    """One client's local training with its (round, client)-keyed RNGs.

    Batch shuffling and forward-time randomness (Dropout masks) draw from
    separate streams of the same cell, so both are pure functions of
    ``(seed, round, client)`` — never of the worker or replica that
    happens to serve the client.  The forward stream is derived only for
    a model with a stochastic layer; nothing else would read it.  An
    attached fault plan may fail the cell's first attempt *before* any
    training RNG is touched, so the retry trains with pristine streams
    and recovery is bit-identical.

    Returns ``(update, span)``.  Under ``ctx.trace`` the span is a
    wall-time measurement taken *in the worker*: a plain dict in the
    ``repro-trace/v1`` schema, so it can cross the process boundary with
    the task result and merge into the parent's tracer — the obs layer
    never writes shared state from worker processes.  Wall timestamps
    are epoch seconds, comparable across processes; the span carries no
    simulated-time fields (those are derived deterministically on the
    server side).  Untraced, the span is ``None``.
    """
    seed_round = _cell_index(ctx, client.client_id)
    if ctx.trace:
        t0 = time.time()
        p0 = time.perf_counter()
    if ctx.fault_plan is not None:
        ctx.fault_plan.inject(
            seed_round, client.client_id, attempt, real_crash=real_crash
        )
    rng = client_round_rng(ctx.base_seed, seed_round, client.client_id)
    forward_rng = None
    if model.stochastic:
        forward_rng = client_round_rng(
            ctx.base_seed, seed_round, client.client_id, stream=STREAM_FORWARD
        )
    max_batches = None
    if ctx.client_batches is not None:
        max_batches = ctx.client_batches.get(client.client_id)
    update = client.local_train(
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
    if not ctx.trace:
        return update, None
    return update, {
        "type": "span",
        "name": "worker.local_train",
        "cat": "runtime",
        "track": f"worker/{_worker_label()}",
        "sim_t0": None,
        "sim_dur": None,
        "wall_t0": t0,
        "wall_dur": time.perf_counter() - p0,
        "args": {"client": client.client_id, "round": seed_round},
    }


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

    def _next_attempt(self, exc: Exception, attempt: int, ctx: RoundContext, cid: int) -> int:
        """The one retry rule: attempt ``attempt`` of ``cid``'s task failed
        with ``exc``; return the attempt number to re-run it with, or
        raise once the budget is spent — :class:`RetriesExhausted` naming
        the cell for an injected fault, ``exc`` itself for a real one.

        Injected faults retry without further accounting (the schedule
        was pre-recorded), a ``concurrent.futures`` timeout counts one
        ``rt`` timeout, every other exception one ``rt`` retry.  A dead
        pool never spends the task's budget — the victim did nothing
        wrong, and ``max_pool_rebuilds`` bounds that loop instead.
        """
        timed_out = isinstance(exc, FuturesTimeout)
        if timed_out:
            self._stats().rt_timeouts += 1
        if attempt >= self.retry.max_retries and not isinstance(exc, BrokenProcessPool):
            if timed_out:
                raise TimeoutError(
                    f"client {cid} task exceeded {self.retry.task_timeout_s}s "
                    f"on each of {attempt + 1} attempts"
                ) from None
            if isinstance(exc, FaultInjected):
                raise RetriesExhausted(_cell_index(ctx, cid), cid, attempt + 1, exc) from exc
            raise exc
        if not timed_out and not isinstance(exc, FaultInjected):
            self._stats().rt_retries += 1
        return attempt + 1

    def _train_in_parent(
        self, client: Client, model, loss, ctx: RoundContext, attempt: int = 0
    ) -> tuple[ClientUpdate, dict | None]:
        """One task in the calling thread, retried under the one rule.

        Injected crashes surface as :class:`InjectedCrash` here (never
        ``os._exit`` — the parent must survive) and are retried like any
        other injected fault.
        """
        while True:
            try:
                return _train_one(client, model, loss, ctx, attempt)
            except Exception as exc:
                attempt = self._next_attempt(exc, attempt, ctx, client.client_id)

    def _deliver(self, pairs: list[tuple[ClientUpdate, dict | None]]) -> list[ClientUpdate]:
        """Split a round's ``(update, span)`` pairs, both in participant
        order: the updates are returned, the spans (none when untraced)
        wait for :meth:`take_worker_spans`."""
        self._worker_spans = [span for _, span in pairs if span is not None]
        return [update for update, _ in pairs]

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
        self, clients: LazyClientPool, model_factory, model=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.clients = clients
        # The caller may donate its workspace model (the simulation reuses
        # its evaluation model) — training overwrites all state anyway.
        self._model = model if model is not None else _replica(model_factory)
        self._loss = SoftmaxCrossEntropy()
        if retry is not None:
            self.retry = retry

    def run_round(self, ctx: RoundContext, participants: list[int]) -> list[ClientUpdate]:
        self._prerecord_injections(ctx, participants)
        self.clients.ensure(participants)
        return self._deliver([
            self._train_in_parent(self.clients[cid], self._model, self._loss, ctx)
            for cid in participants
        ])


class ThreadExecutor(Executor):
    """Thread pool over a fixed pool of model replicas.

    A replica is borrowed per task and returned afterwards, so memory is
    O(workers) models regardless of K, and no replica is ever shared
    between two in-flight clients.
    """

    name = "thread"

    def __init__(
        self, clients: LazyClientPool, model_factory, workers: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.workers = max(1, workers or (os.cpu_count() or 1))
        self.clients = clients
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fl-client"
        )
        self._replicas: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(self.workers):
            self._replicas.put((_replica(model_factory), SoftmaxCrossEntropy()))
        if retry is not None:
            self.retry = retry

    def _run(self, cid: int, ctx: RoundContext, attempt: int = 0):
        model, loss = self._replicas.get()
        try:
            return _train_one(self.clients[cid], model, loss, ctx, attempt)
        finally:
            self._replicas.put((model, loss))

    def _collect(self, future, cid: int, ctx: RoundContext):
        """One future's result, re-submitted under the one retry rule.

        A timed-out task keeps running in its pool thread (threads cannot
        be preempted) until it returns its replica — injected hangs raise
        after ``hang_s``, bounding the stall; the replacement attempt
        simply queues for the next free replica.
        """
        attempt = 0
        while True:
            try:
                return future.result(timeout=self.retry.task_timeout_s)
            except Exception as exc:
                attempt = self._next_attempt(exc, attempt, ctx, cid)
            future = self._pool.submit(self._run, cid, ctx, attempt)

    def run_round(self, ctx: RoundContext, participants: list[int]) -> list[ClientUpdate]:
        self._prerecord_injections(ctx, participants)
        # Built here, before the threads only read the pool's cache.
        self.clients.ensure(participants)
        futures = [self._pool.submit(self._run, cid, ctx) for cid in participants]
        return self._deliver(
            [self._collect(f, cid, ctx) for f, cid in zip(futures, participants)]
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.shutdown(wait=True)
        except Exception:
            pass


# Per-process worker state, installed once by the pool initializer so each
# round only ships the RoundContext — never clients, models or (unless
# the exchange blocks could not be created) weight vectors.
_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class _ExchangeRef:
    """What a future carries in place of ``ctx.global_weights``: the names
    and geometry of the parent's :class:`_Exchange` blocks — a few hundred
    bytes whatever the model size."""

    weights_name: str
    results_name: str
    dtype: str
    dim: int
    rows: int


class _Exchange:
    """The parent's end of the shared-memory round exchange.

    A ``(dim,)`` weights block the parent fills with the round's global
    weights and every worker reads, made once and kept while dim and
    dtype hold; and, per ``run_round`` call, a fresh ``(rows, dim)``
    result block where the task at participant position ``pos`` writes
    its trained weights into row ``pos`` (a re-dispatched task rewrites
    the same row with the same bits).  The parent's updates *are* those
    rows, so a result block is never reused: its name is unlinked when
    the call returns (:meth:`unlink_results`) and the parent's mapping
    closes when the last row is garbage
    (:func:`~repro.data.shm.create_owned_array`) — which may be several
    calls later, when FedBuff buffers rows.  Blocks are never reused
    across a pool rebuild either (see
    :meth:`ProcessExecutor._rebuild_pool`).
    """

    def __init__(self, dim: int, dtype: np.dtype) -> None:
        self._pool = shm.SharedMemoryPool()
        self._results_pool = shm.SharedMemoryPool()
        wblk, self.weights = shm.create_array((dim,), dtype)
        self._pool.adopt([wblk])
        self._weights_name = wblk.name
        self.results: np.ndarray | None = None
        self.ref: _ExchangeRef | None = None

    def stage(self, weights: np.ndarray, n: int) -> _ExchangeRef:
        """Copy ``weights`` into the weights block and open this call's
        ``(n, dim)`` result block; returns what the futures carry."""
        rblk, self.results = shm.create_owned_array(
            (n, self.weights.size), self.weights.dtype
        )
        self._results_pool.adopt([rblk])
        np.copyto(self.weights, weights)
        self.ref = _ExchangeRef(
            self._weights_name, rblk.name, self.weights.dtype.str, self.weights.size, n
        )
        return self.ref

    def unlink_results(self) -> None:
        """Unlink the current result block's name (idempotent).  Rows
        already handed out stay valid; no worker can attach any more."""
        self.results = None
        self._results_pool.unlink()

    def close(self) -> None:
        """Unlink both blocks (idempotent); the weights view goes first so
        the parent's mapping closes with it."""
        self.unlink_results()
        self.weights = None
        self._pool.close()


def _attached_weights(ref: _ExchangeRef) -> np.ndarray:
    """This worker's read-only view of the weights block ``ref`` names.
    The attachment is cached until another block arrives (a new dim or
    dtype, or a fresh block after a rebuild)."""
    key = (ref.weights_name, ref.dim, ref.dtype)
    cached = _WORKER_STATE.get("weights")
    if cached is not None and cached[0] == key:
        return cached[1]
    if cached is not None:
        del _WORKER_STATE["weights"]
        block = cached[2]
        del cached  # the view dies with the tuple, releasing the buffer
        block.close()
    block, weights = shm.attach_array(ref.weights_name, (ref.dim,), ref.dtype)
    weights.flags.writeable = False
    _WORKER_STATE["weights"] = (key, weights, block)
    return weights


def _replica(model_factory) -> Sequential:
    """A workspace model; every task first overwrites its weights."""
    return model_factory(run_rng(0, STREAM_MODEL_INIT))


def _init_worker(clients, model_factory, dtype_name: str) -> None:
    # Workers inherit the parent's compute dtype so their model replicas
    # (and every allocation they make) match the parent substrate.
    set_default_dtype(dtype_name)
    _WORKER_STATE["clients"] = clients
    _WORKER_STATE["model"] = _replica(model_factory)
    _WORKER_STATE["loss"] = SoftmaxCrossEntropy()


def _run_tasks(ctx: RoundContext, tasks: list[tuple[int, int, int]]):
    """Worker entry: train ``(pos, cid, attempt)`` tasks against one
    unpickled ``ctx`` and return ``(pos, update, span)`` per task.

    A ``ctx`` whose ``global_weights`` is an :class:`_ExchangeRef` trains
    against the shared weights block, and each update leaves its vector
    in row ``pos`` of the call's result block (attached for this call
    only) and travels back with ``weights=None``; when ``ctx`` carries
    the array itself, every vector is pickled.

    ``real_crash=True`` lets an injected ``crash`` genuinely kill this
    worker process (``os._exit``), so the parent's ``BrokenProcessPool``
    recovery is exercised by the real failure mode, not a stand-in.
    """
    clients = _WORKER_STATE["clients"]
    model = _WORKER_STATE["model"]
    loss = _WORKER_STATE["loss"]
    block = rows = None
    if isinstance(ctx.global_weights, _ExchangeRef):
        ref = ctx.global_weights
        block, rows = shm.attach_array(ref.results_name, (ref.rows, ref.dim), ref.dtype)
        ctx = replace(ctx, global_weights=_attached_weights(ref))
    results = []
    try:
        for pos, cid, attempt in tasks:
            update, span = _train_one(
                clients[cid], model, loss, ctx, attempt, real_crash=True
            )
            if rows is not None:
                # The replica shares the parent's dtype and the flat
                # weights' dim, so the row holds the vector bit for bit.
                rows[pos] = update.weights
                update.weights = None
            results.append((pos, update, span))
    finally:
        if block is not None:
            rows = None
            block.close()
    # The pool rebuilds its clients bit-identically on demand; a worker
    # keeps none of them resident between calls.
    clients.release()
    return results


class ProcessExecutor(Executor):
    """Process pool with per-worker model replicas and one dispatch loop.

    The client pool's training set is moved into
    :mod:`multiprocessing.shared_memory` once, in place
    (:meth:`repro.fleet.scale.LazyClientPool.share`), before the pool is
    shipped to the workers, so each worker maps the parent's pages instead
    of materialising its own copy, and builds its tasks' clients over them.
    :meth:`close` unlinks those blocks with the exchange's.

    The round exchange goes the same way (:class:`_Exchange`): the parent
    copies the global weights into a ``(dim,)`` block once per round, and
    the task at participant position ``pos`` leaves its trained vector in
    row ``pos`` of the call's own ``(n, dim)`` result block.  Each returned
    update's ``weights`` is that row, a view: the call's updates are the
    consecutive, in-order rows of one matrix, which
    :func:`~repro.fl.strategies.base.combine_updates` multiplies in place.
    The weights block is created by the first round that reaches the pool,
    regrown when dim or dtype change, replaced by a fresh one whenever the
    pool is rebuilt, and unlinked by :meth:`close`; a result block is
    unlinked when its call returns and unmapped when its last row is
    garbage.

    Both fall back to plain pickling where block creation raises — the
    only path that runs there, chosen by what the executor observes;
    results are identical either way.

    ``last_ipc_bytes`` is what the last ``run_round`` moved between
    processes: ``out``, ``global_weights.nbytes`` for each staging into
    the weights block (one per round; a pool rebuild re-stages into its
    fresh block) however many futures and retries read it — or, pickled,
    once per submitted future; ``in``, the row bytes received in the
    result block (or unpickled), the same count either way.  Both are 0
    for a round run wholly in the parent.
    """

    name = "process"

    def __init__(
        self, clients: LazyClientPool, model_factory, workers: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.workers = max(1, workers or (os.cpu_count() or 1))
        if retry is not None:
            self.retry = retry
        self._closed = False
        self._pool = None
        self._exchange: _Exchange | None = None
        self._pool_rebuilds = 0
        self._degraded = False
        # The degraded in-parent fallback trains the same pool's clients
        # on a lazily built local model.
        self.clients = clients
        self._model_factory = model_factory
        self._local = None
        clients.share()
        self._initargs = (clients, model_factory, get_default_dtype().name)
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

    def _drop_exchange(self) -> None:
        exchange, self._exchange = self._exchange, None
        if exchange is not None:
            exchange.close()

    def _wire_context(self, ctx: RoundContext, n: int) -> RoundContext:
        """The context this round's futures carry: ``ctx`` with its weights
        staged in the shared block and replaced by the block reference,
        and a fresh ``(n, dim)`` result block opened for the call.

        The weights block is built on first use from the weights' own dim
        and dtype and rebuilt when those change.  Where a block cannot be
        created the answer is ``ctx`` itself — the weights and the
        updates are then pickled.
        """
        weights = ctx.global_weights
        exchange = self._exchange
        if exchange is not None and (
            exchange.weights.shape != weights.shape
            or exchange.weights.dtype != weights.dtype
        ):
            self._drop_exchange()
        try:
            if self._exchange is None:
                self._exchange = _Exchange(weights.size, weights.dtype)
            return replace(ctx, global_weights=self._exchange.stage(weights, n))
        except Exception:
            return ctx

    def _rebuild_pool(self) -> None:
        """Replace a broken/stuck pool; degrade to in-parent serial work
        once the lifetime rebuild budget is spent.

        The exchange blocks go with the pool: a stuck worker that outlives
        ``_terminate_pool`` still holds the old mappings, and must only
        ever scribble on a result block nobody reads any more — so the
        caller first copies out the rows it already holds.
        """
        stats = self._stats()
        self._pool_rebuilds += 1
        stats.pool_rebuilds += 1
        self._terminate_pool()
        self._drop_exchange()
        if self._pool_rebuilds > self.retry.max_pool_rebuilds:
            self._degraded = True
            stats.degraded = True
            return
        self._pool = self._new_pool()

    def run_round(self, ctx: RoundContext, participants: list[int]) -> list[ClientUpdate]:
        self._prerecord_injections(ctx, participants)
        timeout = self.retry.task_timeout_s
        n = len(participants)
        pairs: list = [None] * n
        attempts = [0] * n
        in_flight: dict[Future, list[int]] = {}
        # What crosses the process boundary, counted parent-side as it
        # moves (deterministic for a fixed worker count and fault
        # schedule): out, the weights staged into the shared block — or,
        # without one, pickled into each future; in, the update vectors
        # received as result-block rows or unpickled.
        ipc = self.last_ipc_bytes = {"out": 0, "in": 0}
        wire: RoundContext | None = None  # staged by the first submit
        rows: np.ndarray | None = None  # the staged call's result block

        def submit(positions: list[int]) -> None:
            nonlocal wire, rows
            tasks = [(pos, participants[pos], attempts[pos]) for pos in positions]
            if wire is None:
                wire = self._wire_context(ctx, n)
                if wire is not ctx:
                    rows = self._exchange.results
                    ipc["out"] += ctx.global_weights.nbytes
            try:
                future = self._pool.submit(_run_tasks, wire, tasks)
                if wire is ctx:
                    ipc["out"] += ctx.global_weights.nbytes
            except BrokenProcessPool as exc:
                # A worker died while the pool sat idle: fail the future
                # here so the loop below recovers it like any other.
                future = Future()
                future.set_exception(exc)
            in_flight[future] = positions

        try:
            if not self._degraded:
                # First wave.  Strided chunks, one per worker: client sizes
                # are typically sorted-ish per partition, so striding
                # balances work better than contiguous splits.  With a
                # fault plan or a task timeout armed, failures are expected
                # and recovery (timeout, retry) is per task, so every task
                # gets its own future from the start.
                per_task = timeout is not None or (
                    ctx.fault_plan is not None and ctx.fault_plan.active
                )
                n_first = n if per_task else min(self.workers, n)
                for i in range(n_first):
                    submit(list(range(i, n, n_first)))

            while in_flight:
                done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
                failed: list[tuple[list[int], Exception]] = []
                for future in done:
                    positions = in_flight.pop(future)
                    try:
                        for pos, update, span in future.result():
                            if update.weights is None:
                                # A view: the row is the update.
                                update.weights = rows[pos]
                            ipc["in"] += update.weights.nbytes
                            pairs[pos] = (update, span)
                    except Exception as exc:
                        failed.append((positions, exc))
                if not done:
                    # Nothing finished inside the timeout window: the pool
                    # is stuck (hung worker).  Processes can be preempted,
                    # so the recovery is the dead pool's.
                    self._stats().rt_timeouts += 1
                if not done or any(isinstance(exc, BrokenProcessPool) for _, exc in failed):
                    # Every outstanding future is doomed (broken pool) or
                    # being abandoned (stuck pool): rebuild and re-dispatch
                    # the lot.  Collateral victims are rt-domain retries —
                    # backend-dependent by nature, invisible to the sim
                    # counters.
                    collateral = BrokenProcessPool("pool recycled with the task in flight")
                    failed.extend((positions, collateral) for positions in in_flight.values())
                    in_flight.clear()
                    if rows is not None:
                        # The rows held so far leave the block the rebuild
                        # abandons: an orphaned worker may still write it.
                        for pair in pairs:
                            if pair is not None:
                                pair[0].weights = pair[0].weights.copy()
                    self._rebuild_pool()
                    wire = rows = None  # fresh blocks: the next submit re-stages
                # Every task a failed future carried is re-run on its own,
                # finished chunk-mates included — recomputing is
                # bit-identical.
                for positions, exc in failed:
                    for pos in positions:
                        attempts[pos] = self._next_attempt(
                            exc, attempts[pos], ctx, participants[pos]
                        )
                        if not self._degraded:
                            submit([pos])

            # Degraded (in this round or an earlier one): whatever has no
            # result runs in the parent, serial-style.
            missing = [pos for pos in range(n) if pairs[pos] is None]
            if missing:
                self.clients.ensure([participants[pos] for pos in missing])
                if self._local is None:
                    self._local = (_replica(self._model_factory), SoftmaxCrossEntropy())
            for pos in missing:
                model, loss = self._local
                pairs[pos] = self._train_in_parent(
                    self.clients[participants[pos]], model, loss, ctx, attempts[pos]
                )
        finally:
            if self._exchange is not None:
                self._exchange.unlink_results()

        return self._deliver(pairs)

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
        self._drop_exchange()
        self.clients.close()


def make_executor(
    backend: str,
    clients: LazyClientPool,
    model_factory,
    workers: int | None = None,
    retry: RetryPolicy | None = None,
) -> Executor:
    """Factory for the CLI/harness ``--backend`` flag."""
    if backend == "serial":
        return SerialExecutor(clients, model_factory, retry=retry)
    if backend == "thread":
        return ThreadExecutor(clients, model_factory, workers=workers, retry=retry)
    if backend == "process":
        return ProcessExecutor(clients, model_factory, workers=workers, retry=retry)
    raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
