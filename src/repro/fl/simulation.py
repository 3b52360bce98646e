"""The engine loop, the window-aggregation step and the barrier scheduler.

One server step — Algorithm 2's impact factors followed by eq. (4) — is
implemented once, in :func:`aggregate_window`, over a *window* of client
updates, and one loop drives it: :meth:`FederatedEngine.run` takes the
next window from the scheduler, closes it (aggregate, record, evaluate,
trace) and lets the checkpointer snapshot.  A scheduler is a subclass
that decides who is dispatched, when a window closes and which
aggregation inputs (``anchors`` / ``factors`` / ``server_mix``) it gets:
:class:`FederatedSimulation` (here) runs a barrier — the selector picks K
participants, all train, the window closes when the last one (or the
deadline) is in — and :class:`~repro.fl.async_.server.AsyncFederatedServer`
dispatches by policy and closes a window every M arrivals in virtual-time
order.  Everything else (construction, executor dispatch, the upload
path, waiting for an online client, records, evaluation, the window
trace, checkpoint ledgers) lives once in :class:`FederatedEngine`.

Per-window records capture everything the paper's figures need — test
accuracy (Fig. 5/7/8), per-client inference-loss statistics (Fig. 6),
impact factors, and the server-side timing split (Fig. 9).

Client execution is delegated to a pluggable :class:`repro.runtime`
backend (serial / thread / process — all bit-identical for a given seed
thanks to ``(round, client)``-keyed batch RNGs), and an optional
:class:`~repro.runtime.clock.VirtualClock` overlays simulated device
latency: per-round makespans are recorded alongside the real timings, and
a ``drop``-policy deadline excludes straggler updates from aggregation.

An optional :class:`~repro.fleet.FleetSimulator` adds *dynamic* fleet
behavior on top: the selection pool is filtered to clients online at the
round's simulated start (the server waits, advancing the clock, if nobody
is), selected clients may run only part of their local batch budget, and
a client's finished update may drop mid-round — its compute time still
counts toward the makespan, but the update never reaches aggregation.
"""

from __future__ import annotations

import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.client import Client, ClientUpdate
from repro.fl.hierarchical import fold_edges
from repro.fl.strategies.base import Strategy, combine_updates
from repro.fleet.columnar import FleetState
from repro.fleet.scale import is_client_provider
from repro.fleet.simulator import FleetSimulator
from repro.nn.losses import SoftmaxCrossEntropy, evaluate_loss
from repro.nn.metrics import top1_accuracy
from repro.nn.model import Sequential
from repro.obs.trace import (
    CAT_AGGREGATION,
    CAT_COMM,
    CAT_COMPUTE,
    CAT_FLEET,
    CAT_IDLE,
    CAT_QUEUE_WAIT,
    CAT_RUNTIME,
    CAT_WINDOW,
    Tracer,
)
from repro.runtime.clock import VirtualClock, n_local_batches
from repro.runtime.executor import Executor, RoundContext, SerialExecutor
from repro.runtime.faults import FaultPlan, FaultStats, absorb_fault_stats


@dataclass
class FLConfig:
    """Simulation hyper-parameters (paper Section 4.1 defaults)."""

    rounds: int = 50
    clients_per_round: int = 10
    local_epochs: int = 5
    lr: float = 0.01
    batch_size: int = 10
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds <= 0 or self.clients_per_round <= 0:
            raise ValueError("rounds and clients_per_round must be positive")
        if self.local_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("local_epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")


@dataclass
class RoundRecord:
    """Everything observed in one communication round."""

    round_idx: int
    participants: list[int]
    impact_factors: np.ndarray
    client_losses_before: np.ndarray
    client_losses_after: np.ndarray
    client_sizes: np.ndarray
    impact_time_s: float
    aggregation_time_s: float
    test_accuracy: float | None = None
    test_loss: float | None = None
    # Virtual-clock fields (None / empty when no clock is attached).
    sim_makespan_s: float | None = None
    dropped_clients: list[int] = field(default_factory=list)
    # Async-aggregation fields (empty for synchronous rounds): per-update
    # staleness in model versions and the decay factor applied to each.
    staleness: list[int] = field(default_factory=list)
    staleness_factors: list[float] = field(default_factory=list)
    # Fleet-simulator fields (None / empty when no fleet is attached):
    # clients online at the round's simulated start, simulated seconds the
    # server waited for an online client, updates lost to mid-round
    # dropout (compute paid, upload lost), and each participant's sampled
    # work fraction (1.0 = full local budget).
    online_count: int | None = None
    wait_s: float = 0.0
    connectivity_dropped: list[int] = field(default_factory=list)
    work_fractions: dict[int, float] = field(default_factory=dict)
    # Adversarial-fleet fields (empty / None without an attack or defense,
    # see repro.fl.robust): malicious clients among the aggregated
    # participants, updates the robust aggregator rejected (Krum family)
    # or norm-clipped, and accuracy on the backdoor attack-task test set
    # (the attack success rate).
    malicious_selected: list[int] = field(default_factory=list)
    rejected_updates: list[int] = field(default_factory=list)
    clipped_updates: list[int] = field(default_factory=list)
    backdoor_accuracy: float | None = None
    # Wire-subsystem fields (zero without a wire format, see
    # repro.fl.wire): exact serialized bytes moved this round/flush —
    # uploads actually transmitted, global-model broadcasts, and what the
    # same uploads would have cost uncompressed (the dense baseline the
    # compression ratio is measured against).
    payload_bytes_up: int = 0
    payload_bytes_down: int = 0
    dense_bytes_up: int = 0


@dataclass
class EventRecord:
    """One client-update *arrival* in an asynchronous run.

    Synchronous rounds have no per-update timeline (the barrier collapses
    a round into one instant); the async engine appends one of these per
    arrival so figures can plot against simulated time at event
    granularity, alongside the per-aggregation :class:`RoundRecord` list.
    """

    job_idx: int
    client_id: int
    dispatch_time_s: float
    arrival_time_s: float
    dispatch_version: int
    arrival_version: int
    staleness: int
    staleness_factor: float
    # Fleet connectivity: the job finished but its upload was lost; it was
    # never buffered or aggregated (compute time was still paid).
    dropped: bool = False
    # Exact serialized size of this arrival's upload (0 without a wire
    # format, and for dropped arrivals — a lost upload moves no bytes).
    payload_bytes: int = 0


@dataclass
class History:
    """Accumulated round records with the paper's summary views.

    ``records`` holds one entry per aggregation (a synchronous round or an
    async buffer flush); ``events`` holds one entry per client-update
    arrival and is populated only by the asynchronous engine.
    """

    records: list[RoundRecord] = field(default_factory=list)
    events: list[EventRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def append_event(self, event: EventRecord) -> None:
        self.events.append(event)

    # -- series used by the figure benches -----------------------------------
    def accuracy_series(self) -> list[tuple[int, float]]:
        """(round, accuracy) pairs for evaluated rounds (Fig. 5)."""
        return [
            (r.round_idx, r.test_accuracy)
            for r in self.records
            if r.test_accuracy is not None
        ]

    def best_accuracy(self) -> float:
        """The paper's headline number: best top-1 accuracy over training."""
        accs = [r.test_accuracy for r in self.records if r.test_accuracy is not None]
        if not accs:
            raise ValueError("no evaluated rounds in history")
        return max(accs)

    def loss_mean_series(self) -> list[float]:
        """Per-round mean of client inference losses (Fig. 6 top row)."""
        return [float(np.mean(r.client_losses_before)) for r in self.records]

    def loss_var_series(self) -> list[float]:
        """Per-round variance of client inference losses (Fig. 6 bottom row)."""
        return [float(np.var(r.client_losses_before)) for r in self.records]

    def mean_impact_time(self) -> float:
        """Average impact-factor computation time in seconds (Fig. 9 'DRL')."""
        return float(np.mean([r.impact_time_s for r in self.records]))

    def mean_aggregation_time(self) -> float:
        """Average eq.-(4) aggregation time in seconds (Fig. 9 'Aggregation')."""
        return float(np.mean([r.aggregation_time_s for r in self.records]))

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round reaching ``target`` accuracy, or None (Fig. 10)."""
        for r in self.records:
            if r.test_accuracy is not None and r.test_accuracy >= target:
                return r.round_idx
        return None

    def makespan_series(self) -> list[float]:
        """Per-round simulated makespans (virtual-clock runs only)."""
        return [r.sim_makespan_s for r in self.records if r.sim_makespan_s is not None]

    def total_sim_time(self) -> float:
        """Total simulated training time across all clocked rounds."""
        return float(np.sum(self.makespan_series()))

    def total_dropped(self) -> int:
        """Updates discarded by the virtual clock's deadline policy."""
        return sum(len(r.dropped_clients) for r in self.records)

    def accuracy_vs_time(self) -> list[tuple[float, float]]:
        """(cumulative simulated seconds, accuracy) for evaluated records.

        The natural x-axis for comparing synchronous and asynchronous
        protocols: equal round/aggregation counts cost very different
        amounts of simulated time once stragglers enter the picture.
        """
        t = 0.0
        out = []
        for r in self.records:
            if r.sim_makespan_s is not None:
                t += r.sim_makespan_s
            if r.test_accuracy is not None:
                out.append((float(t), r.test_accuracy))
        return out

    def arrival_series(self) -> list[tuple[float, int]]:
        """(arrival time, client id) per async event, in arrival order."""
        return [(e.arrival_time_s, e.client_id) for e in self.events]

    # -- fleet-behavior views -------------------------------------------------
    def online_series(self) -> list[tuple[int, int]]:
        """(round, online count) pairs for fleet-simulated rounds."""
        return [
            (r.round_idx, r.online_count)
            for r in self.records
            if r.online_count is not None
        ]

    def mean_online(self) -> float:
        """Average online-client count over fleet-simulated rounds."""
        counts = [r.online_count for r in self.records if r.online_count is not None]
        return float(np.mean(counts)) if counts else 0.0

    def total_connectivity_dropped(self) -> int:
        """Updates lost to fleet mid-round dropout: synchronous records'
        drop lists plus asynchronous dropped arrivals."""
        return sum(len(r.connectivity_dropped) for r in self.records) + sum(
            1 for e in self.events if e.dropped
        )

    def mean_work_fraction(self) -> float:
        """Average sampled completeness over all partial-work participants
        (1.0 when the fleet never truncated anyone)."""
        fractions = [f for r in self.records for f in r.work_fractions.values()]
        return float(np.mean(fractions)) if fractions else 1.0

    def mean_staleness(self) -> float:
        """Average staleness (in model versions) over all async arrivals."""
        if not self.events:
            return 0.0
        return float(np.mean([e.staleness for e in self.events]))

    # -- wire-subsystem views -------------------------------------------------
    def total_bytes_up(self) -> int:
        """Exact client→server bytes moved over the whole run."""
        return sum(r.payload_bytes_up for r in self.records)

    def total_bytes_down(self) -> int:
        """Exact server→client broadcast bytes over the whole run."""
        return sum(r.payload_bytes_down for r in self.records)

    def total_dense_bytes_up(self) -> int:
        """What the same uploads would have cost uncompressed."""
        return sum(r.dense_bytes_up for r in self.records)

    def wire_compression_ratio(self) -> float:
        """Dense-baseline upload bytes over actual upload bytes (1.0 when
        no wire format was attached or nothing moved)."""
        up = self.total_bytes_up()
        if up <= 0:
            return 1.0
        return self.total_dense_bytes_up() / up

    def payload_bytes_series(self) -> list[tuple[int, int, int]]:
        """(round, bytes up, bytes down) per record that moved bytes —
        the x-axis data for accuracy-vs-bytes plots."""
        return [
            (r.round_idx, r.payload_bytes_up, r.payload_bytes_down)
            for r in self.records
            if r.payload_bytes_up or r.payload_bytes_down
        ]

    def accuracy_vs_bytes(self) -> list[tuple[int, float]]:
        """(cumulative upload bytes, accuracy) for evaluated records."""
        total = 0
        out = []
        for r in self.records:
            total += r.payload_bytes_up
            if r.test_accuracy is not None:
                out.append((total, r.test_accuracy))
        return out

    # -- adversarial-fleet views ----------------------------------------------
    def backdoor_accuracy_series(self) -> list[tuple[int, float]]:
        """(round, backdoor-task accuracy) per evaluated record — the
        attack success rate over training (backdoor attacks only)."""
        return [
            (r.round_idx, r.backdoor_accuracy)
            for r in self.records
            if r.backdoor_accuracy is not None
        ]

    def final_backdoor_accuracy(self) -> float | None:
        """The last evaluated attack success rate, or None (no backdoor)."""
        series = self.backdoor_accuracy_series()
        return series[-1][1] if series else None

    def total_rejected(self) -> int:
        """Updates the robust aggregator rejected outright (Krum family)."""
        return sum(len(r.rejected_updates) for r in self.records)

    def total_clipped(self) -> int:
        """Updates whose delta norm the robust aggregator clipped."""
        return sum(len(r.clipped_updates) for r in self.records)

    def total_malicious_aggregated(self) -> int:
        """Malicious participations that reached aggregation (a client
        counts once per round/flush it was aggregated in)."""
        return sum(len(r.malicious_selected) for r in self.records)


class NonFiniteUpdateError(ValueError):
    """An upload carried NaN/inf weights.

    Raised before the window writes anything to ``global_weights`` — under
    the mean rule one such upload would silently poison the whole arena,
    and distance-based defenses give no guarantee on NaN rows.
    """


@dataclass
class WindowResult:
    """Outcome of one :func:`aggregate_window` call."""

    weights: np.ndarray        # the new global weights
    alphas: np.ndarray         # effective per-client impact factors
    rejected: list[int]        # client ids the defense rejected outright ...
    clipped: list[int]         # ... or norm-clipped
    impact_time_s: float       # strategy.impact_factors (Fig. 9 'DRL')
    aggregation_time_s: float  # combine + mix (Fig. 9 'Aggregation')


def _coalesce_voices(rows: np.ndarray, alphas, ids: list[int]):
    """One vote per client per window.

    A fast client can land several updates in one async buffer, so
    row-wise robust statistics would let a 20%-malicious fleet occupy half
    a flush simply by responding quickly.  Each client's rows are merged
    (alpha-weighted, summing its alpha mass) so every estimator sees one
    voice per participant; for the mean rule this is a no-op by
    associativity.  Windows of distinct voices — every sync round, every
    hier window (edges are distinct) — pass through untouched.
    """
    grouped: dict[int, list[int]] = {}
    for pos, cid in enumerate(ids):
        grouped.setdefault(cid, []).append(pos)
    if len(grouped) == len(ids):
        return rows, alphas, ids
    voices, masses = [], []
    for positions in grouped.values():
        a = alphas[positions]
        mass = float(a.sum())
        if mass > 0:
            voices.append((a / mass).astype(rows.dtype, copy=False) @ rows[positions])
        else:
            voices.append(rows[positions].mean(axis=0))
        masses.append(mass)
    return np.stack(voices), np.asarray(masses), list(grouped)


def aggregate_window(
    global_weights: np.ndarray,
    strategy: Strategy,
    updates: list[ClientUpdate],
    index: int,
    *,
    defense=None,
    n_edges: int | None = None,
    anchors: list[np.ndarray] | None = None,
    factors: np.ndarray | None = None,
    server_mix: float | None = None,
) -> WindowResult:
    """The one server step both engines run.

    fold (hier) → ``strategy.impact_factors`` × staleness factors →
    coalesce one voice per client → combine (weighted mean | delta mean |
    ``defense.combine``) → mix → ``strategy.on_round_end`` → effective
    per-client alphas and verdict → client-id expansion.  ``global_weights``
    is never written; the caller installs ``result.weights``.

    Everything that distinguishes a synchronous round from an async flush
    is a window input:

    * ``n_edges`` — fold the window into that many edge FedAvg
      pseudo-updates first (staleness factors and anchors fold with the
      same sample weights); the strategy and any defense then run over
      the edges exactly as they run over clients.  ``None`` is flat.
    * ``anchors`` — per-update dispatch weights: rows become
      ``w_i - anchor_i`` (FedBuff's delta form), so a stale update
      contributes its own progress.  ``None`` means every anchor is the
      current global weights — the weight form.
    * ``factors`` — per-update staleness factors multiplied into the
      impact factors, which are then renormalized; a window they zero
      out skips the mix (normalizing a zero-mass vector would NaN the
      arena) but is still recorded.  ``None`` means no multiply, no
      renormalization, and the strict sum-to-1 check on the strategy's
      alphas.
    * ``server_mix`` — the step toward the combination, scaled by the
      window's total alpha mass and capped at 1 (FedAsync's adaptive
      alpha, generalized to buffers).  ``None`` replaces the model.

    A sync round passes none of the four.  ``defense`` rules act on
    deltas (translation-equivariant for median/Krum, essential for norm
    clipping); the combined delta is re-anchored on ``global_weights``.
    """
    bad = [u.client_id for u in updates if not np.isfinite(u.weights).all()]
    if bad:
        raise NonFiniteUpdateError(
            f"non-finite weights uploaded by client(s) {bad}; the window was "
            "not aggregated"
        )
    t0 = time.perf_counter()
    agg, shares, members = updates, None, None
    if n_edges is not None:
        agg, factors, anchors, shares, members = fold_edges(
            updates, n_edges, factors=factors, anchors=anchors
        )
    alphas = strategy.impact_factors(agg, index)
    t1 = time.perf_counter()
    weighted = factors is not None
    if weighted:
        alphas = np.asarray(alphas, dtype=float) * factors
    # Unweighted alphas already sum to 1 (combine_updates checks it).
    total = float(alphas.sum()) if weighted else 1.0
    new_weights, info = global_weights, None
    if total > 0:
        step = 1.0 if server_mix is None else min(1.0, server_mix * total)
        if anchors is not None:
            rows = np.stack([u.weights - a for u, a in zip(agg, anchors)])
        elif defense is not None:
            rows = np.stack([u.weights for u in agg]) - global_weights
        if defense is not None:
            voices, voice_alphas, voice_ids = _coalesce_voices(
                rows, alphas, [u.client_id for u in agg]
            )
            combined, info = defense.combine(voices, voice_alphas)
            new_weights = global_weights + step * combined
        elif anchors is not None:
            normalized = np.asarray(alphas, dtype=float)
            normalized = normalized / normalized.sum()
            new_weights = global_weights + step * (
                normalized.astype(rows.dtype, copy=False) @ rows
            )
        else:
            combined = combine_updates(agg, alphas, normalize=weighted)
            new_weights = combined if server_mix is None else (
                (1.0 - step) * global_weights + step * combined
            )
    t2 = time.perf_counter()
    strategy.on_round_end(agg, index)

    if not total > 0:
        record_alphas = np.zeros(len(updates))
    elif shares is not None:
        # Effective per-client factors implied by (edge FedAvg) x (cloud
        # alphas): cloud weight times within-edge sample share.
        edge_alphas = np.asarray(alphas, dtype=float)
        record_alphas = np.empty(len(updates))
        for e, positions in enumerate(members):
            for p in positions:
                record_alphas[p] = edge_alphas[e] * shares[p]
        mass = record_alphas.sum()
        record_alphas = record_alphas / mass if mass > 0 else np.zeros(len(updates))
    elif weighted:
        record_alphas = alphas / total
    else:
        record_alphas = np.asarray(alphas)

    def clients_of(verdict: list[int]) -> list[int]:
        # A voice is a client (flat) or an edge standing for every client
        # folded into it (hier).
        if members is None:
            return [voice_ids[i] for i in verdict]
        return [updates[p].client_id for i in verdict for p in members[voice_ids[i]]]

    return WindowResult(
        weights=new_weights,
        alphas=record_alphas,
        rejected=clients_of(info.rejected) if info is not None else [],
        clipped=clients_of(info.clipped) if info is not None else [],
        impact_time_s=t1 - t0,
        aggregation_time_s=t2 - t1,
    )


class FederatedEngine:
    """The engine loop and everything the two schedulers share around it.

    :meth:`run` is the only window loop.  A subclass is a scheduler: its
    :meth:`_next_window` decides who is dispatched, when a window closes
    and which ``anchors`` / ``factors`` / ``server_mix`` the window gets —
    :class:`FederatedSimulation` a barrier,
    :class:`~repro.fl.async_.server.AsyncFederatedServer` an event queue.
    Construction, executor dispatch, the upload path, waiting for an
    online client, the window's record / evaluation / trace, the
    checkpoint ledgers and teardown exist once, here.
    """

    engine = ""            # snapshot tag
    window_label = ""      # what the trace calls a window
    window_counter = ""    # the sim.* counter of closed windows
    window_span = ""       # the trace's span over a clocked window ...
    window_histogram = ""  # ... and the sim.* histogram of its length

    def __init__(
        self, clients, test_set, model_factory, strategy, config, executor,
        clock, fleet, tracer, attack, defense, faults, topology, n_edges, wire,
    ) -> None:
        if len(clients) == 0:
            raise ValueError("need at least one client")
        if topology not in ("flat", "hier"):
            raise ValueError(f"topology must be 'flat' or 'hier', got {topology!r}")
        if topology == "hier" and n_edges <= 0:
            raise ValueError("n_edges must be positive")
        self.clients = clients
        self.topology = topology
        self.n_edges = n_edges
        # Lazy providers (repro.fleet.scale) materialize participants per
        # executor batch; a plain list is the historical eager population.
        self._lazy = is_client_provider(clients)
        self.test_set = test_set
        self.strategy = strategy
        self.config = config
        # The evaluation model also seeds the initial global weights; the
        # serial backend reuses it as its workspace (memory stays O(1) in N).
        self.model: Sequential = model_factory(np.random.default_rng(config.seed))
        self.global_weights = self.model.get_flat_weights()
        if executor is None:
            executor = SerialExecutor(clients, model_factory, model=self.model)
        self.executor = executor
        self.clock = clock
        self.fleet = fleet
        # Adversarial fleet (repro.fl.robust): `attack` perturbs malicious
        # clients' uploads relative to the weights they were dispatched
        # (their data was already poisoned at build time); `defense`
        # replaces the weighted mean with a robust combination rule.
        self.attack = attack
        self.defense = defense
        # Wire subsystem (repro.fl.wire.WireFormat): uploads pass through
        # delta → error feedback → encode → decode before aggregation.  The
        # a-priori payload sizes are pure functions of the arena shape, so
        # the clock charges comm time before any encoding happens.
        self.wire = wire
        self._up_nbytes: int | None = None
        self._down_nbytes: int | None = None
        if wire is not None:
            dim, dtype = self.global_weights.shape[0], self.global_weights.dtype
            self._up_nbytes = wire.upload_nbytes(dim, dtype)
            self._down_nbytes = wire.download_nbytes(dim, dtype)
        self.backdoor_test = None
        if attack is not None and test_set is not None:
            self.backdoor_test = attack.backdoor_test_set(test_set)
        # Observability is opt-in: tracer=None keeps every hot-path call
        # site at one `is not None` branch and allocates nothing.
        self.tracer = tracer
        if tracer is not None and fleet is not None:
            fleet.metrics = tracer.metrics
        # Fault tolerance (repro.runtime.faults): an optional seeded fault
        # plan rides with every executor batch; recovery accounting
        # accumulates here.  The checkpointer (attached by the harness)
        # snapshots full run state between windows.
        self.faults = faults
        self.fault_totals = FaultStats()
        self.checkpointer = None
        self.history = History()
        self._loss = SoftmaxCrossEntropy()
        # Columnar per-client state: shard sizes answered without touching
        # (possibly lazy) Client objects, the availability engine's
        # whole-fleet view, and the jobs-served column.
        self.fleet_state = FleetState(
            len(clients),
            config.seed,
            availability=fleet.availability if fleet is not None else None,
            shard_sizes=(
                clients.shard_sizes if self._lazy
                else np.array([c.n_samples for c in clients], dtype=np.int64)
            ),
        )

    def _local_batches(self, cid: int) -> int:
        """A client's full local-training budget, in batches."""
        cfg = self.config
        return n_local_batches(
            self.fleet_state.n_samples(cid), cfg.local_epochs, cfg.batch_size
        )

    def _broadcast(self, n: int) -> int:
        """Charge ``n`` dense global-model downloads to the wire ledger;
        returns the bytes they moved (0 without a wire)."""
        if self.wire is None:
            return 0
        return self.wire.record_downloads(
            n, self.global_weights.shape[0], self.global_weights.dtype
        )

    def _wait_for_online(self, now: float) -> tuple[float, np.ndarray]:
        """Advance simulated time from ``now`` slot by slot until some
        client is online; returns that time and the online pool, and
        traces the wait."""
        online_t, pool = self.fleet.wait_for_online(now, min_count=1)
        if self.tracer is not None and online_t > now:
            self.tracer.span("fleet.wait", CAT_QUEUE_WAIT, track="server",
                             sim_t0=now, sim_dur=online_t - now)
        return online_t, pool

    def _upload(
        self, update: ClientUpdate, index: int, anchor: np.ndarray
    ) -> tuple[ClientUpdate, int]:
        """One upload's trip to the server, relative to the weights the
        client was dispatched (``anchor``): poisoned on the device if the
        client is malicious — timing is unchanged, it looks like any other
        on the wire — then through the wire format.  Both draw from their
        own ``(index, client)`` RNG cell, so no schedule can reorder them.
        Returns the server-side update and the exact payload bytes."""
        if self.attack is not None:
            update = self.attack.perturb(update, index, anchor)
        if self.wire is None:
            return update, 0
        return self.wire.transmit(update, index, anchor)

    def _wall_span(self, name: str, **args):
        """A wall-time span around a block; a no-op without a tracer."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.wall_span(name, CAT_RUNTIME, **args)

    def _train(
        self, span: str, index: int, weights: np.ndarray, ids: list[int],
        client_batches: dict[int, int] | None = None,
        job_rounds: dict[int, int] | None = None, **span_args,
    ) -> list[ClientUpdate]:
        """Broadcast ``weights`` + local training via the execution backend.

        Updates come back in ``ids`` order regardless of the backend's
        physical schedule, and each client's batch RNG is keyed on its
        ``(round | job, client)`` cell, so every backend is bit-identical.
        """
        cfg = self.config
        ctx = RoundContext(
            round_idx=index,
            global_weights=weights,
            epochs=cfg.local_epochs,
            lr=cfg.lr,
            batch_size=cfg.batch_size,
            base_seed=cfg.seed,
            client_kwargs=self.strategy.client_kwargs(),
            job_rounds=job_rounds,
            client_batches=client_batches,
            trace=self.tracer is not None,
            fault_plan=self.faults,
        )
        if self._lazy:
            # Materialize the batch parent-side, release after: the
            # resident Client set stays O(batch), not O(N).
            self.clients.ensure(ids)
        with self._wall_span(span, **span_args):
            updates = self.executor.run_round(ctx, ids)
        tr = self.tracer
        absorb_fault_stats(
            self.executor, self.fault_totals, self.clock,
            None if tr is None else tr.metrics,
        )
        if tr is not None:
            tr.add_worker_spans(self.executor.take_worker_spans())
            # Process backend only: the weights staged into its shared
            # block (once per round, not per future) and the update
            # vectors copied back out of the arena; 0 / 0 for a round run
            # in the parent.
            ipc = getattr(self.executor, "last_ipc_bytes", None)
            if ipc is not None:
                tr.metrics.inc("rt.ipc.bytes_out", ipc["out"])
                tr.metrics.inc("rt.ipc.bytes_in", ipc["in"])
        if self._lazy:
            self.clients.release(ids)
        return updates

    # -- the engine loop -------------------------------------------------------
    def run(self) -> History:
        """Close windows until the scheduler has none left (Algorithm 2,
        line 3) — the one window loop.

        After each window the attached checkpointer (if any) may snapshot,
        so a kill at any instant loses at most ``checkpoint_every``
        windows of work and a restored engine continues at the
        scheduler's cursor.  The final record is always evaluated,
        whatever ``eval_every`` is.
        """
        while (window := self._next_window()) is not None:
            self._close_window(**window)
            del window  # free its updates before the next window trains
            if self.checkpointer is not None:
                self.checkpointer.step(self._state_view)
        records = self.history.records
        if records and records[-1].test_accuracy is None:
            self._evaluate(records[-1])
        self.strategy.close()
        return self.history

    def _next_window(self) -> dict | None:
        """The scheduler's hook: dispatch, collect and hand out the next
        window as :meth:`_close_window`'s keyword arguments, advancing its
        cursor past it; None once the run is over."""
        raise NotImplementedError

    def _close_window(
        self, updates: list[ClientUpdate], index: int, anchors=None,
        factors=None, server_mix=None, sim_span=None, **record_fields,
    ) -> RoundRecord:
        """Close one window: run :func:`aggregate_window` over it (see
        there for ``anchors`` / ``factors`` / ``server_mix``), install the
        new weights, and append the window's record — the fields every
        window has plus the scheduler's ``record_fields`` — evaluated
        every ``eval_every`` windows and traced over ``sim_span``, its
        simulated (start, end) (None without a clock)."""
        wall_t0 = time.time()
        result = aggregate_window(
            self.global_weights, self.strategy, updates, index,
            defense=self.defense,
            n_edges=self.n_edges if self.topology == "hier" else None,
            anchors=anchors, factors=factors, server_mix=server_mix,
        )
        self.global_weights = result.weights
        ids = [u.client_id for u in updates]
        record = RoundRecord(
            round_idx=index,
            participants=ids,
            impact_factors=result.alphas,
            client_losses_before=np.array([u.loss_before for u in updates]),
            client_losses_after=np.array([u.loss_after for u in updates]),
            client_sizes=np.array([u.n_samples for u in updates]),
            impact_time_s=result.impact_time_s,
            aggregation_time_s=result.aggregation_time_s,
            malicious_selected=(
                [cid for cid in ids if self.attack.is_malicious(cid)]
                if self.attack is not None else []
            ),
            rejected_updates=result.rejected,
            clipped_updates=result.clipped,
            **record_fields,
        )
        if index % self.config.eval_every == 0:
            self._evaluate(record)
        if self.tracer is not None:
            self._trace_window(record, wall_t0, sim_span)
        self.history.append(record)
        return record

    def _trace_window(
        self, record: RoundRecord, wall_t0: float, sim_span: tuple | None
    ) -> None:
        """The server-side spans and ``sim.*`` counters every window emits
        (tracer != None only), and on a clocked run the window span over
        ``sim_span``: window spans tile the simulated timeline, so their
        durations sum to ``History.total_sim_time()``.  The wall fields
        are this host's real cost."""
        tr = self.tracer
        label = {self.window_label: record.round_idx}
        tr.span("impact_factors", CAT_AGGREGATION, track="server",
                wall_t0=wall_t0, wall_dur=record.impact_time_s, **label)
        tr.span("aggregate", CAT_AGGREGATION, track="server",
                wall_t0=wall_t0 + record.impact_time_s,
                wall_dur=record.aggregation_time_s,
                **label, updates=len(record.participants))
        m = tr.metrics
        m.inc(self.window_counter)
        m.inc("sim.updates.aggregated", len(record.participants))
        if self.attack is not None:
            m.inc("sim.attack.malicious_aggregated", len(record.malicious_selected))
        if self.defense is not None:
            m.inc("sim.defense.updates_rejected", len(record.rejected_updates))
            m.inc("sim.defense.updates_clipped", len(record.clipped_updates))
        m.set_gauge("rt.fleet.state_bytes", self.fleet_state.nbytes)
        if self.wire is not None:
            m.inc("sim.wire.bytes_up", record.payload_bytes_up)
            m.inc("sim.wire.bytes_down", record.payload_bytes_down)
            m.set_gauge(
                "sim.wire.compression_ratio", self.wire.stats.compression_ratio()
            )
        for name, value in self.strategy.window_metrics().items():
            m.set_gauge(name, value)
        if sim_span is not None:
            t0, t1 = sim_span
            tr.span(self.window_span, CAT_WINDOW, track="server",
                    sim_t0=t0, sim_dur=record.sim_makespan_s,
                    **label, updates=len(record.participants))
            m.observe(self.window_histogram, record.sim_makespan_s)
            tr.maybe_snapshot(t1)

    def _trace_client_phases(
        self, cid: int, start: float, duration: float, batches: int,
        key: dict, **train_args,
    ) -> None:
        """One finished job's download / local_train / upload spans.

        ``duration`` is decomposed into the device profile's shares — pure
        arithmetic on already-drawn times, so tracing consumes no RNG and
        the simulated fields are bit-identical across backends.
        """
        tr = self.tracer
        download, compute, upload = self.clock.decompose(
            cid, batches, duration, self._up_nbytes, self._down_nbytes
        )
        down_args: dict = {}
        up_args: dict = {}
        if self.wire is not None:
            down_args = {"bytes": self._down_nbytes}
            up_args = {"bytes": self._up_nbytes}
        track = f"client/{cid}"
        tr.span("download", CAT_COMM, track=track, sim_t0=start,
                sim_dur=download, **key, client=cid, **down_args)
        tr.span("local_train", CAT_COMPUTE, track=track,
                sim_t0=start + download, sim_dur=compute,
                **key, client=cid, batches=batches, **train_args)
        tr.span("upload", CAT_COMM, track=track,
                sim_t0=start + download + compute, sim_dur=upload,
                **key, client=cid, **up_args)
        tr.metrics.inc("sim.comm.payload_s", download + upload)

    def _evaluate(self, record: RoundRecord) -> None:
        """Score the current global weights on the test set into ``record``
        (nothing to score without one)."""
        if self.test_set is None:
            return
        # One span covers the arena broadcast (set_flat_weights) plus the
        # forward passes it feeds.
        with self._wall_span("evaluate", **{self.window_label: record.round_idx}):
            self.model.set_flat_weights(self.global_weights)
            record.test_loss, record.test_accuracy = evaluate_loss(
                self.model, self._loss, self.test_set.x, self.test_set.y,
                with_accuracy=True,
            )
            if self.backdoor_test is not None:
                # Attack-task accuracy: how often the triggered samples land
                # on the attacker's target class (the attack success rate).
                record.backdoor_accuracy = top1_accuracy(
                    self.model, self.backdoor_test.x, self.backdoor_test.y
                )

    # -- checkpoint/resume ---------------------------------------------------
    def _borrow_state(self, **scheduler_state) -> dict:
        """The scheduler's own state plus everything the engines share
        (weights, History, strategy, fault / wire / clock ledgers), by
        *reference*: valid only until the engine next advances.  The
        checkpointer pickles it at once, between windows."""
        return {
            "engine": self.engine,
            **scheduler_state,
            "global_weights": self.global_weights,
            "history": self.history,
            "strategy": self.strategy,
            "fault_totals": self.fault_totals,
            "wire": None if self.wire is None else self.wire.snapshot(),
            "clock": None if self.clock is None else {
                "elapsed_s": self.clock.elapsed_s,
                "fault_recovery_s": self.clock.fault_recovery_s,
                "timings": self.clock.timings,
            },
        }

    def snapshot_state(self) -> dict:
        """Full engine state as a self-contained dict: everything a fresh
        process needs to continue bit-identically, deep-copied (a pickle
        round trip of :meth:`_state_view` — what a checkpoint file
        restores to), never aliasing live state."""
        return pickle.loads(pickle.dumps(self._state_view()))

    def _restore(self, state: dict) -> None:
        """Inverse of :meth:`_borrow_state` for the shared part."""
        if state.get("engine") != self.engine:
            raise ValueError(
                f"cannot restore {state.get('engine')!r} state into the "
                f"{self.engine} engine"
            )
        weights = np.asarray(state["global_weights"])
        if weights.shape != self.global_weights.shape:
            raise ValueError(
                f"snapshot holds {weights.size} global weights, this "
                f"{self.engine} engine's model has {self.global_weights.size}"
            )
        # Cast to the current compute dtype (dtype is fingerprinted at the
        # harness level, but direct callers may legitimately move).
        self.global_weights = weights.astype(self.global_weights.dtype, copy=False)
        self.history = state["history"]
        self.strategy = state["strategy"]
        self.fault_totals = state["fault_totals"]
        # Old snapshots predate the wire subsystem: .get keeps them loadable.
        wire_state = state.get("wire")
        if wire_state is not None and self.wire is not None:
            self.wire.restore(wire_state)
        clock_state = state.get("clock")
        if clock_state is not None and self.clock is not None:
            self.clock.elapsed_s = clock_state["elapsed_s"]
            self.clock.fault_recovery_s = clock_state["fault_recovery_s"]
            self.clock.timings = clock_state["timings"]

    def close(self) -> None:
        """Release the execution backend's workers, a lazy client pool's
        shared blocks and the strategy's side process (idempotent)."""
        self.strategy.close()
        self.executor.close()
        if self._lazy:
            self.clients.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FederatedSimulation(FederatedEngine):
    """Synchronous FL over a fixed client population: the barrier scheduler.

    Round t is window t: the selector picks K participants among the
    clients online at the round's simulated start, all train on the
    current weights, and the window closes on the slowest of them (or at
    a ``drop`` deadline) with no anchors, no staleness factors and a
    replace-form mix."""

    engine = "sync"
    window_label = "round"
    window_counter = "sim.rounds"
    window_span = "round"
    window_histogram = "sim.round.makespan_s"

    def __init__(
        self,
        clients: list[Client],
        test_set: ArrayDataset | None,
        model_factory,
        strategy: Strategy,
        config: FLConfig,
        selector=None,
        executor: Executor | None = None,
        clock: VirtualClock | None = None,
        fleet: FleetSimulator | None = None,
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
        if config.clients_per_round > len(clients):
            raise ValueError(
                f"clients_per_round={config.clients_per_round} exceeds population "
                f"{len(clients)}"
            )
        if selector is None:
            from repro.fl.selection import UniformSelection

            selector = UniformSelection(np.random.default_rng(config.seed + 17))
        self.selector = selector
        self._next_round = 0

    # benchmarks/e2e/spans.py times __init__, run and close where each
    # engine class defines them; run and close are FederatedEngine's.
    def run(self) -> History:
        return super().run()

    def close(self) -> None:
        super().close()

    # -- who is dispatched ---------------------------------------------------
    def sample_participants(
        self, round_idx: int = 0, available: list[int] | None = None
    ) -> list[int]:
        """Pick K distinct clients via the selection policy (Algorithm 2,
        line 4 uses uniform sampling; see :mod:`repro.fl.selection`).

        With a fleet attached, ``available`` is the online pool and K is
        capped at its size — a smaller round beats stalling on devices
        that cannot be reached.
        """
        k = self.config.clients_per_round
        if available is not None:
            k = min(k, len(available))
        return self.selector.select(len(self.clients), k, round_idx, available=available)

    def run_round(self, round_idx: int) -> RoundRecord:
        """Run round ``round_idx`` as one window: the public one-round
        step, outside :meth:`run`'s cursor and checkpoints."""
        return self._close_window(**self._round_window(round_idx))

    # -- when a window closes: at the round's barrier ------------------------
    def _next_window(self) -> dict | None:
        t = self._next_round
        if t >= self.config.rounds:
            return None
        self._next_round = t + 1
        return self._round_window(t)

    def _round_window(self, t: int) -> dict:
        """Round ``t`` as one window.  The selector picks K of the clients
        online at the round's simulated start (the server waits, advancing
        the clock, while nobody is); all train on the current weights, a
        fleet may cut their local work short, and the window closes on the
        slowest.  A ``drop`` deadline excludes the stragglers' updates, and
        fleet dropout loses an update after its compute time entered the
        makespan — but one update always survives (a real server would
        re-request rather than lose the round)."""
        clock, fleet = self.clock, self.fleet
        sim0 = None if clock is None else clock.elapsed_s
        pool, wait_s, online_count, budgets = None, 0.0, None, None
        if fleet is not None:
            now = float(t) if sim0 is None else sim0
            online_t, pool = self._wait_for_online(now)
            wait_s, online_count = online_t - now, len(pool)
            if wait_s > 0 and clock is not None:
                clock.advance(wait_s)
        participants = self.sample_participants(t, available=pool)
        if fleet is not None and fleet.completeness < 1.0:
            budgets = {
                cid: fleet.batch_budget(t, cid, self._local_batches(cid))
                for cid in participants
            }
        updates = self._train(
            "executor.round", t, self.global_weights, participants,
            client_batches=budgets, round=t, participants=len(participants),
        )
        # Uploads arrive parent-side, in participant order.  Error feedback
        # is updated even for uploads a deadline later drops: the
        # client-side encoding already happened.
        sent = [self._upload(u, t, self.global_weights) for u in updates]
        updates = [u for u, _ in sent]
        payload_down = self._broadcast(len(participants))
        timing, batches = None, {}
        if clock is not None:
            batches = {cid: self._local_batches(cid) for cid in participants}
            batches.update(budgets or {})
            timing = clock.observe_round(
                t, participants, batches, self._up_nbytes, self._down_nbytes
            )
            late = set(timing.dropped)
            updates = [u for u in updates if u.client_id not in late]
        lost: list[int] = []
        if fleet is not None and fleet.dropout_prob > 0.0:
            lost = [u.client_id for u in updates if fleet.drops(t, u.client_id)]
            if len(lost) == len(updates):
                lost = lost[1:]  # keep the first participant's update
            gone = set(lost)
            updates = [u for u in updates if u.client_id not in gone]
        self.selector.observe(
            [u.client_id for u in updates],
            np.array([u.loss_before for u in updates]),
        )
        if self.tracer is not None:
            self._trace_barrier(t, timing, batches, lost, online_count,
                                start=None if sim0 is None else sim0 + wait_s)
        return dict(
            updates=updates,
            index=t,
            sim_span=None if timing is None else (sim0, clock.elapsed_s),
            # The round's simulated cost includes any time the server spent
            # waiting for an online client before it could even select.
            sim_makespan_s=None if timing is None else timing.makespan_s + wait_s,
            dropped_clients=[] if timing is None else timing.dropped,
            online_count=online_count,
            wait_s=wait_s,
            connectivity_dropped=lost,
            work_fractions={} if budgets is None else {
                cid: fleet.work_fraction(t, cid) for cid in participants
            },
            payload_bytes_up=sum(nbytes for _, nbytes in sent),
            payload_bytes_down=payload_down,
            # What the same uploads would have cost uncompressed.
            dense_bytes_up=len(sent) * (self._down_nbytes or 0),
        )

    def _trace_barrier(
        self, t: int, timing, batches: dict[int, int], lost: list[int],
        online_count: int | None, start: float | None,
    ) -> None:
        """Round ``t``'s drop counters and client-side spans (tracer !=
        None only): each participant's download / local_train / upload
        from ``start``, then its deadline or connectivity drop, or its
        wait at the barrier.  They derive from the virtual clock's timings
        — pure functions of the seed — so they are bit-identical across
        backends; without a clock there are none."""
        tr = self.tracer
        m = tr.metrics
        m.inc("sim.updates.dropped_deadline",
              0 if timing is None else len(timing.dropped))
        m.inc("sim.updates.dropped_connectivity", len(lost))
        if online_count is not None:
            m.set_gauge("sim.fleet.online", online_count)
        if timing is None:
            return
        key = {"round": t}
        late, gone = set(timing.dropped), set(lost)
        for cid, total in timing.client_times_s.items():
            self._trace_client_phases(cid, start, total, batches[cid], key)
            track = f"client/{cid}"
            if cid in late:
                tr.instant("deadline_drop", CAT_FLEET, track=track,
                           sim_t=start + min(total, timing.deadline_s or total),
                           **key, client=cid)
            elif cid in gone:
                tr.instant("connectivity_drop", CAT_FLEET, track=track,
                           sim_t=start + total, **key, client=cid)
            elif timing.makespan_s > total:
                tr.span("barrier.wait", CAT_IDLE, track=track,
                        sim_t0=start + total, sim_dur=timing.makespan_s - total,
                        **key, client=cid)

    # -- checkpoint/resume ---------------------------------------------------
    def _state_view(self) -> dict:
        """Borrowed engine state: the shared ledgers plus the round cursor
        and the selector."""
        return self._borrow_state(next_round=self._next_round, selector=self.selector)

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` dict; run() then continues.
        (Older snapshots also carry an ``rng_state`` of an engine RNG that
        nothing drew from.)"""
        self._restore(state)
        self._next_round = state["next_round"]
        self.selector = state["selector"]
