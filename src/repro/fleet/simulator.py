"""The deterministic fleet-behavior simulator over the virtual clock.

Where :class:`~repro.runtime.clock.VirtualClock` models *static* device
heterogeneity (how fast a device is), :class:`FleetSimulator` models the
*dynamic* behavior of an unreliable edge fleet along FLGo's three
remaining axes:

* **availability** — a :class:`~repro.fleet.columnar.ColumnarAvailability`
  engine evolves the whole fleet's online/offline column as simulated
  time advances; offline clients cannot be selected (synchronous) or
  dispatched to (asynchronous).
* **connectivity** — per-``(round | job, client)`` mid-round dropout: a
  dropped client *completes* its local work (its compute time is paid and
  counted toward the round makespan / arrival timeline) but the update is
  lost in transit and never aggregated.
* **completeness** — clients may run only a sampled fraction of their
  local batch budget, with the reported ``n_samples`` and the simulated
  compute time scaled accordingly (FedProx-style partial work).

Every stochastic choice draws from a dedicated ``(index, client)``-keyed
stream (:data:`~repro.runtime.seeding.STREAM_AVAILABILITY` /
``STREAM_DROPOUT`` / ``STREAM_COMPLETENESS``), so a fleet scenario's
entire behavior trace — who was online when, who dropped, who ran partial
work — is a pure function of the experiment seed and therefore
bit-identical across the serial / thread / process execution backends.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.columnar import ColumnarAvailability
from repro.runtime.seeding import (
    STREAM_COMPLETENESS,
    STREAM_DROPOUT,
    client_round_rng,
)


class FleetSimulator:
    """Time-stepped client-state simulator for one federated population."""

    def __init__(
        self,
        n_clients: int,
        availability: ColumnarAvailability,
        seed: int,
        dropout_prob: float = 0.0,
        completeness: float = 1.0,
        slot_s: float = 1.0,
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if availability.n_clients != n_clients:
            raise ValueError(
                f"availability model covers {availability.n_clients} clients, "
                f"fleet has {n_clients}"
            )
        if not 0.0 <= dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if not 0.0 < completeness <= 1.0:
            raise ValueError("completeness must be in (0, 1]")
        if slot_s <= 0:
            raise ValueError("slot_s must be positive")
        self.n_clients = n_clients
        self.availability = availability
        self.seed = seed
        self.dropout_prob = dropout_prob
        self.completeness = completeness
        self.slot_s = slot_s
        # Optional observability hook (a repro.obs.MetricsRegistry): the
        # engines attach it when tracing is on.  The fleet records only
        # ``sim.*`` metrics — counts of its own deterministic decisions —
        # so totals stay bit-identical across execution backends.
        self.metrics = None

    # -- availability --------------------------------------------------------
    def slot(self, time_s: float) -> int:
        """The availability slot covering simulated time ``time_s``."""
        return max(0, int(time_s // self.slot_s))

    def is_online(self, client_id: int, time_s: float) -> bool:
        return self.availability.online(client_id, self.slot(time_s))

    def online_ids(self, time_s: float, ids=None) -> np.ndarray:
        """The online subset of ``ids`` (default: all clients) at ``time_s``;
        ``ids`` is an id array or a boolean column over the fleet.

        Returns a sorted int64 id array; callers thread it straight into
        the uniform selection so a million-client pool never materializes
        Python ints.
        """
        return self.availability.online_ids(self.slot(time_s), ids)

    def wait_for_online(
        self,
        time_s: float,
        min_count: int = 1,
        ids=None,
        max_slots: int = 100_000,
    ) -> tuple[float, np.ndarray]:
        """Advance time slot-by-slot until ``min_count`` of ``ids`` are online.

        Returns ``(new_time, online_ids)``; a real server facing an empty
        fleet waits rather than aborting the round.  If the availability
        model starves the pool for ``max_slots`` consecutive slots
        (pathological), the wait is abandoned and the full candidate set
        is returned at the original time so the run can always terminate.
        """
        online = self.online_ids(time_s, ids)
        t = time_s
        for _ in range(max_slots):
            if online.size >= min_count:
                if self.metrics is not None and t > time_s:
                    self.metrics.inc("sim.fleet.wait_s", t - time_s)
                    self.metrics.inc("sim.fleet.waits")
                return t, online
            t = (self.slot(t) + 1) * self.slot_s
            online = self.online_ids(t, ids)
        if online.size >= min_count:
            return t, online
        if ids is None:
            pool = np.arange(self.n_clients, dtype=np.int64)
        else:
            pool = np.sort(np.asarray(ids, dtype=np.int64))
        return time_s, pool

    # -- connectivity --------------------------------------------------------
    def drops(self, index: int, client_id: int) -> bool:
        """Did this client's upload drop mid-round?  ``index`` is the round
        (synchronous) or job (asynchronous) the work belongs to."""
        if self.dropout_prob <= 0.0:
            return False
        rng = client_round_rng(self.seed, index, client_id, STREAM_DROPOUT)
        dropped = float(rng.random()) < self.dropout_prob
        if self.metrics is not None and dropped:
            self.metrics.inc("sim.fleet.drops")
        return dropped

    # -- completeness --------------------------------------------------------
    def work_fraction(self, index: int, client_id: int) -> float:
        """Fraction of the local batch budget this client actually runs,
        drawn uniformly from ``[completeness, 1]`` per ``(index, client)``."""
        if self.completeness >= 1.0:
            return 1.0
        rng = client_round_rng(self.seed, index, client_id, STREAM_COMPLETENESS)
        return self.completeness + (1.0 - self.completeness) * float(rng.random())

    def batch_budget(self, index: int, client_id: int, full_batches: int) -> int:
        """The (>=1) number of local batches after the completeness draw."""
        if full_batches <= 0:
            raise ValueError("full_batches must be positive")
        fraction = self.work_fraction(index, client_id)
        if self.metrics is not None and self.completeness < 1.0:
            self.metrics.observe("sim.fleet.work_fraction", fraction)
        return max(1, int(round(fraction * full_batches)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetSimulator(n_clients={self.n_clients}, "
            f"availability={self.availability.name!r}, "
            f"dropout_prob={self.dropout_prob}, "
            f"completeness={self.completeness})"
        )
