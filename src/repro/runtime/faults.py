"""Deterministic fault injection and retry policy for the executors.

A :class:`FaultPlan` decides, purely as a function of ``(seed, round|job,
client)`` through the dedicated ``STREAM_FAULTS`` stream, whether a
task's *first* attempt fails — and how:

* ``crash``     — the worker process dies mid-task (``os._exit``) on the
  process backend, exercising ``BrokenProcessPool`` recovery; in-process
  backends raise :class:`InjectedCrash` instead.
* ``exception`` — the task raises :class:`InjectedTaskError`.
* ``hang``      — the task sleeps ``hang_s`` wall seconds and then raises
  :class:`InjectedHang`.  With a per-task timeout configured, the parent
  recovers sooner; without one, the raise bounds the stall.

Injecting *only at attempt 0* is what keeps the ``sim.fault.*`` counters
bit-identical across serial / thread / process: a broken process pool
takes innocent in-flight tasks down with it, and those collateral
re-dispatches (attempt > 0) are backend-dependent — so they are counted
in the ``rt.*`` domain and never draw from the fault stream.  It also
guarantees termination: with ``max_retries >= 1`` every cell's second
attempt is fault-free.

The retried attempt re-derives the same ``(round, client)`` training
RNGs, so a faulted-and-recovered run produces a History bit-identical to
a clean run.  The retry backoff is *simulated* recovery time: it is
charged to :meth:`repro.runtime.clock.VirtualClock.charge_recovery` (a
ledger separate from ``elapsed_s``, so round makespans — and therefore
the History — do not shift) and never wall-slept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.seeding import STREAM_FAULTS, client_round_rng

FAULT_KINDS = ("crash", "exception", "hang")


class FaultInjected(RuntimeError):
    """Base class for all injected (simulated) faults.

    Executors catch this separately from real exceptions: injected
    faults belong to the deterministic ``sim.fault.*`` domain, real ones
    to ``rt.fault.*``.
    """

    kind = "injected"


class InjectedCrash(FaultInjected):
    """A worker-process crash, surfaced in-process (serial/thread)."""

    kind = "crash"


class InjectedTaskError(FaultInjected):
    """A deterministic task failure (bad input, poisoned state, ...)."""

    kind = "exception"


class InjectedHang(FaultInjected):
    """A stall: the task slept ``hang_s`` before raising this."""

    kind = "hang"


class RetriesExhausted(FaultInjected):
    """An injected fault outlived the retry budget: cell ``(index,
    client_id)`` failed on all ``attempts`` attempts (``max_retries=0``
    leaves one).  The injected fault is its ``__cause__``."""

    def __init__(self, index: int, client_id: int, attempts: int, cause: FaultInjected):
        super().__init__(
            f"cell (index={index}, client={client_id}) failed on all {attempts} "
            f"attempt(s) of its retry budget: {cause}"
        )
        self.index, self.client_id, self.attempts = index, client_id, attempts


_FAULT_EXC = {
    "crash": InjectedCrash,
    "exception": InjectedTaskError,
    "hang": InjectedHang,
}


@dataclass(frozen=True)
class FaultPlan:
    """Per-cell fault probabilities, drawn from ``STREAM_FAULTS``.

    One uniform draw per ``(index, client)`` cell is compared against the
    stacked probability thresholds (crash, then exception, then hang), so
    the injected-fault schedule is a pure function of the plan and the
    cell — independent of backend, worker count, and completion order.  Probabilities must sum below 1.

    The plan is a frozen dataclass of floats so it pickles into
    :class:`~repro.runtime.executor.RoundContext` and crosses the
    process boundary unchanged.
    """

    seed: int
    crash_prob: float = 0.0
    exception_prob: float = 0.0
    hang_prob: float = 0.0
    hang_s: float = 0.05

    def __post_init__(self) -> None:
        for name in ("crash_prob", "exception_prob", "hang_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        total = self.crash_prob + self.exception_prob + self.hang_prob
        if total >= 1.0:
            raise ValueError(f"fault probabilities must sum below 1 (got {total})")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")

    @property
    def active(self) -> bool:
        return self.crash_prob + self.exception_prob + self.hang_prob > 0.0

    def draw(self, index: int, client_id: int) -> str | None:
        """The fault kind injected for this cell, or None.

        Pure in ``(seed, index, client_id)``; calling it any number of
        times returns the same answer and perturbs nothing.
        """
        if not self.active:
            return None
        u = float(client_round_rng(self.seed, index, client_id, STREAM_FAULTS).random())
        threshold = 0.0
        for kind in FAULT_KINDS:
            threshold += getattr(self, f"{kind}_prob")
            if u < threshold:
                return kind
        return None

    def inject(
        self, index: int, client_id: int, attempt: int, *, real_crash: bool = False
    ) -> None:
        """Raise (or die) if this cell's first attempt is scheduled to fail.

        Called at the top of a task, before any training RNG is touched.
        ``real_crash=True`` (process workers) turns a ``crash`` into an
        actual ``os._exit`` so the parent sees a genuinely broken pool;
        in-process callers get :class:`InjectedCrash` instead.  A ``hang``
        sleeps ``hang_s`` wall seconds first, so a configured task
        timeout can fire before the raise.
        """
        if attempt != 0:
            return
        kind = self.draw(index, client_id)
        if kind is None:
            return
        if kind == "crash" and real_crash:
            import os

            os._exit(13)
        if kind == "hang":
            import time

            time.sleep(self.hang_s)
        raise _FAULT_EXC[kind](
            f"injected {kind} for cell (index={index}, client={client_id})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How the parent-side dispatch loop reacts to task failures.

    ``backoff_s(attempt)`` is capped exponential backoff — *simulated*
    recovery seconds, charged to the virtual clock's recovery ledger,
    never slept.  ``task_timeout_s`` bounds how long a pooled backend
    waits on one task before declaring it stuck (None = wait forever;
    injected hangs still self-terminate after ``hang_s``).
    ``max_pool_rebuilds`` bounds process-pool reconstruction before the
    executor degrades to in-parent serial execution for the rest of the
    round.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    task_timeout_s: float | None = None
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive when given")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    def backoff_s(self, attempt: int) -> float:
        """Simulated recovery delay before re-running attempt ``attempt + 1``."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))


@dataclass
class FaultStats:
    """One round's (or one run's, when merged) fault/recovery accounting.

    Split into two determinism domains, mirroring the obs layer's
    contract: the ``sim_*`` fields and ``injected`` counts derive from
    the fault plan's seeded draws and are bit-identical across backends;
    the ``rt_*`` fields count real-world recovery work (collateral
    re-dispatch after a pool break, genuine timeouts) and may vary per
    host, backend, and worker count.
    """

    injected: dict[str, int] = field(default_factory=dict)
    sim_retries: int = 0
    sim_backoff_s: float = 0.0
    rt_retries: int = 0
    rt_timeouts: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False

    def record_injected(self, kind: str, backoff_s: float) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.sim_retries += 1
        self.sim_backoff_s += backoff_s

    def merge(self, other: "FaultStats") -> None:
        for kind, n in other.injected.items():
            self.injected[kind] = self.injected.get(kind, 0) + n
        self.sim_retries += other.sim_retries
        self.sim_backoff_s += other.sim_backoff_s
        self.rt_retries += other.rt_retries
        self.rt_timeouts += other.rt_timeouts
        self.pool_rebuilds += other.pool_rebuilds
        self.degraded = self.degraded or other.degraded

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def any(self) -> bool:
        return bool(
            self.injected or self.rt_retries or self.rt_timeouts
            or self.pool_rebuilds or self.degraded
        )

    def as_dict(self) -> dict:
        return {
            "injected": dict(self.injected),
            "total_injected": self.total_injected,
            "sim_retries": self.sim_retries,
            "sim_backoff_s": self.sim_backoff_s,
            "rt_retries": self.rt_retries,
            "rt_timeouts": self.rt_timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
        }


def absorb_fault_stats(executor, totals: FaultStats, clock, metrics=None) -> None:
    """Drain one dispatch's executor fault stats into the run's ledgers.

    Both engines call this after every ``run_round``: the stats merge
    into ``totals``, the *simulated* backoff is charged to the virtual
    clock's recovery ledger (never ``elapsed_s`` — makespans must not
    shift), and the obs counters are published split by determinism
    domain (``sim.fault.*`` bit-identical across backends, ``rt.fault.*``
    backend-dependent).
    """
    stats = executor.take_fault_stats()
    if stats is None or not stats.any():
        return
    totals.merge(stats)
    if stats.sim_backoff_s:
        clock.charge_recovery(stats.sim_backoff_s)
    if metrics is None:
        return
    for kind, n in sorted(stats.injected.items()):
        metrics.inc(f"sim.fault.injected_{kind}", n)
    if stats.sim_retries:
        metrics.inc("sim.fault.retries", stats.sim_retries)
    if stats.sim_backoff_s:
        metrics.inc("sim.fault.backoff_s", stats.sim_backoff_s)
    if stats.rt_retries:
        metrics.inc("rt.fault.retries", stats.rt_retries)
    if stats.rt_timeouts:
        metrics.inc("rt.fault.timeouts", stats.rt_timeouts)
    if stats.pool_rebuilds:
        metrics.inc("rt.fault.pool_rebuilds", stats.pool_rebuilds)
    if stats.degraded:
        metrics.set_gauge("rt.fault.degraded", 1.0)
