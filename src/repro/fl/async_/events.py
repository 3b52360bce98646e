"""The arrival-ordered event queue at the heart of the async engine.

A :class:`ClientJob` is one unit of local training: client ``client_id``
dispatched at virtual time ``dispatch_time_s`` against model version
``model_version``, finishing ``duration_s`` later.  Jobs are pushed onto
an :class:`EventQueue` keyed by finish time; the server pops them in
arrival order and reacts (buffer, aggregate, redispatch).

Determinism: finish times are pure functions of ``(seed, job, client)``
(see :meth:`repro.runtime.clock.VirtualClock.client_time`), and exact
ties — possible with a jitter-free homogeneous latency model — break by
push order, which the single-threaded event loop fixes independently of
the execution backend.  The queue never consults the wall clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ClientJob:
    """One dispatched unit of client work, in flight until its arrival."""

    job_idx: int          # unique per dispatch; keys the (job, client) RNG cell
    client_id: int
    dispatch_time_s: float
    duration_s: float
    model_version: int    # aggregation count when the job was dispatched
    global_weights: np.ndarray = field(repr=False, compare=False, hash=False)
    # Local batch budget for the job: the full epochs*ceil(n/B) count, or a
    # smaller fleet-completeness sample (0 = legacy "unspecified": the
    # worker derives the full budget from the round context).
    n_batches: int = 0

    @property
    def arrival_time_s(self) -> float:
        return self.dispatch_time_s + self.duration_s


@dataclass(frozen=True)
class ArrivalEvent:
    """A job's completed arrival at the server, as popped from the queue."""

    time_s: float
    job: ClientJob


class EventQueue:
    """Min-heap of in-flight jobs ordered by virtual finish time.

    Ties in finish time resolve by insertion order (a monotonically
    increasing sequence number), so arrival order is fully deterministic
    even when two devices finish at the same simulated instant.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ClientJob]] = []
        self._seq = 0

    def push(self, job: ClientJob) -> None:
        heapq.heappush(self._heap, (job.arrival_time_s, self._seq, job))
        self._seq += 1

    def pop(self) -> ArrivalEvent:
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        time_s, _, job = heapq.heappop(self._heap)
        return ArrivalEvent(time_s=time_s, job=job)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
