"""``repro.fleet`` — dynamic client behavior over the virtual clock.

The runtime's :class:`~repro.runtime.clock.VirtualClock` makes devices
*slow*; this package makes them *unreliable*: availability churn (clients
going on- and offline as simulated time advances), mid-round dropout
(updates lost after their compute time was paid), and partial local work
(clients running a sampled fraction of their batch budget).  All behavior
draws from dedicated ``(index, client)``-keyed seed streams, so fleet
scenarios are bit-identical across every execution backend.

Availability has one engine, :class:`ColumnarAvailability`
(:mod:`repro.fleet.columnar`), built by CLI name — ``always`` or
``markov`` (:data:`AVAILABILITY_MODELS`) — which advances the whole
fleet's online column per slot.  The same module's :class:`FleetState`
stores the other per-client attributes as columns, and
:mod:`repro.fleet.scale` keeps million-client populations virtual,
materializing only each round's sampled participants.  The package sits
below :mod:`repro.fl`: importing it first, on its own, works.
"""

from repro.fleet.columnar import AVAILABILITY_MODELS, ColumnarAvailability, FleetState
from repro.fleet.scale import LazyClientPool, StridedPartition
from repro.fleet.simulator import FleetSimulator

__all__ = [
    "AVAILABILITY_MODELS",
    "ColumnarAvailability",
    "FleetSimulator",
    "FleetState",
    "LazyClientPool",
    "StridedPartition",
]
