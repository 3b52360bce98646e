"""``repro.fl.async_`` — event-driven asynchronous aggregation.

Replaces the synchronous per-round barrier with an arrival-ordered event
queue over :class:`~repro.runtime.clock.VirtualClock` finish times: up to
``max_concurrency`` client jobs train concurrently against whatever
global model existed when they were dispatched, and the server aggregates
whenever ``buffer_size`` updates have *arrived* in virtual time (FedBuff;
``buffer_size=1`` is FedAsync), weighting each update by the staleness
decay :func:`staleness_factor` names (``constant`` / ``polynomial`` /
``hinge``) composed with the configured
:class:`~repro.fl.strategies.Strategy`.

Event order is a pure function of the experiment seed — job latencies
come from ``(job, client)``-keyed streams, ties break by dispatch order —
so async runs are bit-identical across the serial / thread / process
execution backends, exactly like synchronous rounds.
"""

from repro.fl.async_.events import ArrivalEvent, ClientJob, EventQueue
from repro.fl.async_.server import (
    DELTA_MIX,
    DISPATCH_POLICIES,
    AsyncFederatedServer,
)
from repro.fl.async_.staleness import (
    STALENESS_POLICIES,
    staleness_factor,
)

__all__ = [
    "DELTA_MIX",
    "DISPATCH_POLICIES",
    "STALENESS_POLICIES",
    "ArrivalEvent",
    "AsyncFederatedServer",
    "ClientJob",
    "EventQueue",
    "staleness_factor",
]
