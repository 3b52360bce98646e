"""The event-queue scheduler: buffered asynchronous FL (FedBuff).

Where the barrier scheduler (:class:`~repro.fl.simulation.FederatedSimulation`)
waits for every round's slowest participant, this one keeps up to
``max_concurrency`` client jobs in flight and reacts to *arrivals* in
virtual-time order.  It supplies the three scheduler hooks of
:meth:`~repro.fl.simulation.FederatedEngine.run`, the one engine loop:

* **who is dispatched** — every free slot goes to an idle online client,
  by a uniform draw or the fairness policy (fewest jobs served first), as
  a job against the *current* global weights;
* **when a window closes** — arrivals pop from the :class:`EventQueue`
  and are buffered with their staleness (how many aggregations happened
  since the job was dispatched) until ``buffer_size`` updates are in
  (FedAsync is ``buffer_size=1`` with ``server_mix=0.6``); the
  budget's partial final buffer closes one last window, unless the
  strategy needs a fixed participation level (FedDRL), which discards it;
* **which inputs the window gets** — per-update staleness factors that
  weigh and renormalize the impact factors, a ``server_mix`` step scaled
  by the window's alpha mass (FedAsync's adaptive alpha, generalized to
  buffers), and under ``server_mix="delta"`` each update's dispatch
  weights as its anchor.

The total local-work budget matches the synchronous loop — ``rounds ×
clients_per_round`` jobs — so sync-vs-async comparisons hold compute
constant and differ only in protocol.

**Determinism.**  Job durations come from the virtual clock's ``(job,
client)``-keyed jitter streams, dispatch choices from a dedicated
sequential RNG consumed in event order, and batch/forward RNGs from the
same ``(job, client)`` cells the synchronous rounds use — so the whole
event timeline, and therefore every aggregation, is bit-identical across
the serial / thread / process backends.  Actual training is *lazy and
batched*: a job's update is materialized only when its arrival is
popped, at which point every in-flight job dispatched against the same
model version trains through one :class:`~repro.runtime.executor`
round-trip — that is where parallel backends earn their keep.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.async_.events import ClientJob, EventQueue
from repro.fl.async_.staleness import STALENESS_POLICIES, staleness_factor
from repro.fl.client import ClientUpdate
# The window path lives in repro.fl.simulation and calls the last four
# through that module's globals; they stay bound here, and run / close stay
# in this class body, only because the frozen benchmark
# (benchmarks/e2e/spans.py) also rebinds them in this namespace.
from repro.fl.simulation import (  # noqa: F401
    EventRecord,
    FederatedEngine,
    FLConfig,
    History,
    combine_updates,
    evaluate_loss,
    fold_edges,
    top1_accuracy,
)
from repro.fl.strategies.base import Strategy
from repro.fleet.scale import LazyClientPool
from repro.fleet.simulator import FleetSimulator
from repro.obs.trace import CAT_FLEET, CAT_IDLE, Tracer
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import Executor
from repro.runtime.faults import FaultPlan
from repro.runtime.seeding import STREAM_DISPATCH, run_rng

# How free concurrency slots are assigned to idle online clients:
# "random" — uniform choice (the historical behavior); "fairness" — the
# client with the fewest dispatched jobs goes first, so fast devices no
# longer collect proportionally more jobs just by finishing sooner.
DISPATCH_POLICIES = ("random", "fairness")

# server_mix="delta": FedBuff's original update form — the global model
# moves by the weighted mean client *delta* (w_trained - w_dispatched)
# instead of toward the weighted mean client model, so a stale update
# contributes its own progress rather than dragging the model toward the
# old weights it started from.
DELTA_MIX = "delta"


class AsyncFederatedServer(FederatedEngine):
    """Buffered-asynchronous FL over a fixed client population: the
    event-queue scheduler.

    Every flush is one window whose staleness factors weigh the impact
    factors and scale the ``server_mix`` step; under ``server_mix="delta"``
    each update is anchored on the weights its job was dispatched with."""

    engine = "async"
    window_label = "aggregation"
    window_counter = "sim.aggregations"
    window_span = "agg_window"
    window_histogram = "sim.window.span_s"

    def __init__(
        self,
        clients: LazyClientPool,
        test_set: ArrayDataset | None,
        model_factory,
        strategy: Strategy,
        config: FLConfig,
        clock: VirtualClock,
        executor: Executor | None = None,
        buffer_size: int = 5,
        max_concurrency: int | None = None,
        staleness: str = "polynomial",
        server_mix: float | str | None = None,
        fleet: FleetSimulator | None = None,
        dispatch: str = "random",
        tracer: Tracer | None = None,
        attack=None,
        defense=None,
        faults: FaultPlan | None = None,
        topology: str = "flat",
        n_edges: int = 2,
        wire=None,
    ) -> None:
        super().__init__(
            clients, test_set, model_factory, strategy, config, executor,
            clock, fleet, tracer, attack, defense, faults, topology, n_edges, wire,
        )
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if max_concurrency is None:
            max_concurrency = config.clients_per_round
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if max_concurrency > len(clients):
            raise ValueError(
                f"max_concurrency={max_concurrency} exceeds population "
                f"{len(clients)} (a client holds at most one job at a time)"
            )
        self.delta_mix = isinstance(server_mix, str)
        if self.delta_mix:
            if server_mix != DELTA_MIX:
                raise ValueError(
                    f"server_mix must be a float in (0, 1] or {DELTA_MIX!r}, "
                    f"got {server_mix!r}"
                )
            server_mix = 1.0  # the delta step's learning rate eta
        elif server_mix is None:
            # The buffer already averages its models: replace the global one.
            server_mix = 1.0
        if not 0.0 < server_mix <= 1.0:
            raise ValueError("server_mix must be in (0, 1]")
        if dispatch not in DISPATCH_POLICIES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_POLICIES}, got {dispatch!r}"
            )
        if staleness not in STALENESS_POLICIES:
            raise ValueError(
                f"staleness policy must be one of {STALENESS_POLICIES}, got {staleness!r}"
            )
        self.buffer_size = buffer_size
        self.max_concurrency = max_concurrency
        self.staleness = staleness
        self.server_mix = float(server_mix)
        # Total local-work budget: identical to the synchronous loop's.
        self.total_jobs = config.rounds * config.clients_per_round
        self.dispatch = dispatch
        # Dispatch choices are consumed strictly in event order, so one
        # sequential stream is deterministic under every backend.
        self._dispatch_rng = run_rng(config.seed, STREAM_DISPATCH)
        self.discarded_updates = 0
        # Arrivals whose upload was lost to fleet connectivity dropout.
        self.dropped_arrivals = 0
        # Simulated time each client went idle (its last arrival), so the
        # tracer can draw the gap before its next dispatch.
        self._idle_since: dict[int, float] = {}
        # The event loop's mutable state lives in one dict so a
        # checkpointer can snapshot it between aggregation flushes.
        self._loop: dict | None = None

    # See the comment on the repro.fl.simulation import above.
    def run(self) -> History:
        return super().run()

    def close(self) -> None:
        super().close()

    @property
    def jobs_dispatched(self) -> dict[int, int]:
        """Dict view of the columnar jobs-served counts (checkpoint/API
        compatible with the pre-columnar per-client dict)."""
        return dict(enumerate(self.fleet_state.jobs_served.tolist()))

    @jobs_dispatched.setter
    def jobs_dispatched(self, counts: dict[int, int]) -> None:
        self.fleet_state.jobs_served[:] = 0
        for cid, n in counts.items():
            self.fleet_state.jobs_served[int(cid)] = int(n)

    # -- who is dispatched ---------------------------------------------------
    def _pick_client(self, idle: np.ndarray, now: float) -> int | None:
        """One idle client to dispatch to, or None when nobody is reachable.

        ``idle`` is a boolean column over client ids.  With a fleet
        attached the candidate pool is the *online* idle clients; the
        fairness policy hands the slot to the candidate with the fewest
        dispatched jobs (ties by id) instead of a uniform draw, so
        slow-but-reachable devices keep getting work.
        """
        if self.fleet is not None:
            pool = self.fleet.online_ids(now, idle)
        else:
            pool = np.flatnonzero(idle)
        if pool.size == 0:
            return None
        if self.dispatch == "fairness":
            # One partial sort over the jobs-served column — same winner
            # as the historical min((jobs, id)) scan.
            return int(self.fleet_state.fairest(pool, 1)[0])
        return int(pool[self._dispatch_rng.integers(pool.size)])

    def _dispatch_until_full(self, st: dict) -> None:
        """Fill free concurrency slots with jobs against the current model.

        Only *online* clients receive jobs; when every idle client is
        offline the slots stay open and are retried at the next arrival
        (or, if nothing is in flight, after a wait for the fleet).
        """
        now, idle, in_flight = st["now"], st["idle"], st["in_flight"]
        while (
            st["next_job"] < self.total_jobs
            and len(in_flight) < self.max_concurrency
        ):
            cid = self._pick_client(idle, now)
            if cid is None:
                break
            job_idx = st["next_job"]
            batches = self._local_batches(cid)
            if self.fleet is not None:
                batches = self.fleet.batch_budget(job_idx, cid, batches)
            job = ClientJob(
                job_idx=job_idx,
                client_id=cid,
                dispatch_time_s=now,
                duration_s=self.clock.client_time(
                    job_idx, cid, batches, self._up_nbytes, self._down_nbytes
                ),
                model_version=st["version"],
                global_weights=self.global_weights,
                n_batches=batches,
            )
            st["queue"].push(job)
            in_flight[job_idx] = job
            idle[cid] = False
            self.fleet_state.record_jobs([cid])
            self._broadcast(1)  # every dispatch ships the current model
            st["next_job"] += 1
            if self.tracer is not None:
                idle_t0 = self._idle_since.pop(cid, None)
                if idle_t0 is not None and now > idle_t0:
                    self.tracer.span(
                        "between_jobs", CAT_IDLE, track=f"client/{cid}",
                        sim_t0=idle_t0, sim_dur=now - idle_t0, client=cid,
                    )

    # -- lazy batched training ---------------------------------------------
    def _materialize(
        self,
        job: ClientJob,
        in_flight: dict[int, ClientJob],
        computed: dict[int, ClientUpdate],
    ) -> ClientUpdate:
        """Train ``job`` (and, in one executor batch, every in-flight job
        dispatched against the same model version)."""
        if job.job_idx not in computed:
            group = [
                j for j in in_flight.values()
                if j.model_version == job.model_version and j.job_idx not in computed
            ]
            client_batches = None
            if self.fleet is not None:
                client_batches = {j.client_id: j.n_batches for j in group}
            updates = self._train(
                "executor.batch", job.job_idx, job.global_weights,
                [j.client_id for j in group],
                client_batches=client_batches,
                job_rounds={j.client_id: j.job_idx for j in group},
                version=job.model_version, jobs=len(group),
            )
            for j, update in zip(group, updates):
                computed[j.job_idx] = update
        return computed.pop(job.job_idx)

    # -- when a window closes ------------------------------------------------
    def _next_window(self) -> dict | None:
        """Process arrivals in virtual-time order until ``buffer_size``
        updates are buffered and hand them out as one window (see
        :meth:`_flush`); after the last arrival, the partial final buffer
        is the last window.  None once all ``total_jobs`` have arrived.

        Loop state persists on ``self._loop``, so a checkpointer can
        snapshot it between windows and a restored server continues
        mid-timeline, bit-identical to never having stopped.
        """
        if self._loop is None:
            self._loop = self._init_loop_state()
        st = self._loop
        if not st["primed"]:
            # The first wave, or the refill after the last flush (which a
            # snapshot taken between the two resumes with).
            self._dispatch_until_full(st)
            st["primed"] = True
        while st["queue"] or st["next_job"] < self.total_jobs:
            if not st["queue"]:
                # Budget remains but every idle client was offline at the
                # last dispatch point: wait (advance simulated time) until
                # someone churns back online, then re-enqueue work.
                st["now"], _ = self._wait_for_online(st["now"])
                self._dispatch_until_full(st)
                if not st["queue"]:
                    break  # pathological availability; give up cleanly
                continue
            self._arrive(st)
            if len(st["buffer"]) >= self.buffer_size:
                return self._flush(st)
            self._dispatch_until_full(st)
        if st["buffer"] and getattr(self.strategy, "fixed_k", False):
            # FedDRL's agent has a hard K: the partial final buffer is
            # discarded, not flushed.
            self.discarded_updates += len(st["buffer"])
            st["buffer"] = []
        return self._flush(st) if st["buffer"] else None

    def _arrive(self, st: dict) -> None:
        """Pop the earliest arrival: buffer its upload with its staleness,
        or lose it to connectivity dropout, and record the event."""
        event = st["queue"].pop()
        st["now"] = now = event.time_s
        job = event.job
        # Connectivity: the job finished (its time was paid) but its
        # upload may be lost mid-round; a lost update is never
        # materialized (unless an earlier group trained it) or buffered.
        dropped = self.fleet is not None and self.fleet.drops(
            job.job_idx, job.client_id
        )
        payload_bytes = 0
        if dropped:
            update = None
            st["computed"].pop(job.job_idx, None)
            self.dropped_arrivals += 1
        else:
            # Anchored on the weights this job was dispatched with — the
            # same anchor delta-form mixing uses.
            update, payload_bytes = self._upload(
                self._materialize(job, st["in_flight"], st["computed"]),
                job.job_idx, job.global_weights,
            )
            st["window_bytes_up"] += payload_bytes
        del st["in_flight"][job.job_idx]
        st["idle"][job.client_id] = True

        staleness = st["version"] - job.model_version
        factor = staleness_factor(self.staleness, staleness)
        self.history.append_event(EventRecord(
            job_idx=job.job_idx,
            client_id=job.client_id,
            dispatch_time_s=job.dispatch_time_s,
            arrival_time_s=now,
            dispatch_version=job.model_version,
            arrival_version=st["version"],
            staleness=staleness,
            staleness_factor=factor,
            dropped=dropped,
            payload_bytes=payload_bytes,
        ))
        if not dropped:
            st["buffer"].append((job, update, staleness, factor))
        if self.tracer is not None:
            # The finished job's client-side spans.
            self._trace_client_phases(
                job.client_id, job.dispatch_time_s, job.duration_s,
                job.n_batches, {"job": job.job_idx}, staleness=staleness,
            )
            self._idle_since[job.client_id] = now
            m = self.tracer.metrics
            m.inc("sim.jobs.arrived")
            if dropped:
                self.tracer.instant("connectivity_drop", CAT_FLEET,
                                    track=f"client/{job.client_id}", sim_t=now,
                                    job=job.job_idx, client=job.client_id)
                m.inc("sim.updates.dropped_connectivity")
            m.set_gauge("sim.jobs.in_flight", len(st["in_flight"]))
            m.set_gauge("sim.buffer.depth", len(st["buffer"]))
            if self.fleet is not None:
                m.set_gauge("sim.fleet.online", len(self.fleet.online_ids(now)))

    def _flush(self, st: dict) -> dict:
        """The buffer as one window: its updates, their staleness factors,
        anchors (delta mix) and ``server_mix`` step, and its record fields.
        Advances the model version; the refill dispatch against the new
        weights waits for the next :meth:`_next_window`."""
        buffer, now = st["buffer"], st["now"]
        factors = np.array([f for _, _, _, f in buffer])
        window = dict(
            updates=[u for _, u, _, _ in buffer],
            index=st["version"],
            anchors=(
                [job.global_weights for job, _, _, _ in buffer]
                if self.delta_mix else None
            ),
            factors=factors,
            server_mix=self.server_mix,
            sim_span=(st["last_agg_t"], now),
            sim_makespan_s=now - st["last_agg_t"],
            staleness=[s for _, _, s, _ in buffer],
            staleness_factors=[float(f) for f in factors],
            # The window's wire bytes (all 0 without a wire): uploads of
            # the buffered arrivals, and one broadcast per job dispatched
            # since the window opened.
            payload_bytes_up=st["window_bytes_up"],
            payload_bytes_down=(
                (st["next_job"] - st["window_job0"]) * (self._down_nbytes or 0)
            ),
            dense_bytes_up=len(buffer) * (self._down_nbytes or 0),
        )
        if self.tracer is not None:
            for s in window["staleness"]:
                self.tracer.metrics.observe("sim.staleness", s)
        st.update(
            buffer=[], version=st["version"] + 1, last_agg_t=now,
            window_bytes_up=0, window_job0=st["next_job"], primed=False,
        )
        return window

    def _init_loop_state(self) -> dict:
        """The event loop's mutable state, fresh.  One dict so a snapshot
        captures all of it (queue, slots, buffer, cursors) at once."""
        return {
            "queue": EventQueue(),
            "idle": np.ones(len(self.clients), dtype=bool),  # no job in flight
            "in_flight": {},   # job_idx -> ClientJob
            "computed": {},    # job_idx -> ClientUpdate (trained, unpopped)
            "buffer": [],      # (job, update, staleness, factor)
            "version": 0,
            "last_agg_t": 0.0,
            "now": 0.0,
            "next_job": 0,
            "primed": False,   # False while a dispatch wave is owed
            # Wire byte accounting for the current aggregation window:
            # bytes uploaded by buffered arrivals, and the job cursor at
            # the window's start (dispatches since then are its
            # broadcasts).
            "window_bytes_up": 0,
            "window_job0": 0,
        }

    # -- checkpoint/resume ---------------------------------------------------
    def _state_view(self) -> dict:
        """Borrowed engine state, the event loop mid-timeline: the
        pending arrival heap (in-flight jobs carry their dispatch-version
        weights), slot and buffer state, the model-version counter, the
        dispatch RNG, and the fairness/drop tallies, with the shared
        ledgers."""
        return self._borrow_state(
            loop=self._loop,
            dispatch_rng_state=self._dispatch_rng.bit_generator.state,
            jobs_dispatched=self.jobs_dispatched,
            discarded_updates=self.discarded_updates,
            dropped_arrivals=self.dropped_arrivals,
            idle_since=self._idle_since,
        )

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` dict; run() then continues."""
        self._restore(state)
        self._loop = state["loop"]
        self._dispatch_rng.bit_generator.state = state["dispatch_rng_state"]
        self.jobs_dispatched = state["jobs_dispatched"]
        self.discarded_updates = state["discarded_updates"]
        self.dropped_arrivals = state["dropped_arrivals"]
        self._idle_since = state["idle_since"]
