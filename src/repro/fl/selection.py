"""Client selection: Algorithm 2, line 4 picks K clients uniformly.

The paper puts all of its method into the impact factors; active client
selection appears only as related work (Section 1), so uniform sampling
is the one policy :class:`~repro.fl.simulation.FederatedSimulation` uses.

When a fleet simulator is attached, the simulation passes the
*available* (online) client ids and the K picks come from that pool;
with ``available=None`` (no fleet) every client is a candidate.
"""

from __future__ import annotations

import numpy as np


def _candidate_pool(n_clients: int, k: int, available) -> np.ndarray:
    """The round's candidate ids (sorted), validated against K.

    ``available`` may be a list or an id array straight from the fleet's
    online mask; selection operates on id arrays end to end so a
    million-client pool never round-trips through Python objects.
    """
    if available is None:
        pool = np.arange(n_clients)
    else:
        pool = np.asarray(available, dtype=np.int64)
        if pool.size > 1 and not (pool[1:] >= pool[:-1]).all():
            pool = np.sort(pool)
    if k > pool.size:
        raise ValueError("cannot select more clients than are available")
    return pool


class UniformSelection:
    """Algorithm 2, line 4: uniformly random K of N without replacement."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def select(
        self, n_clients: int, k: int, round_idx: int,
        available: list[int] | None = None,
    ) -> list[int]:
        pool = _candidate_pool(n_clients, k, available)
        if available is None:
            # Keep the historical draw (choice on an int) bit-identical.
            return list(self.rng.choice(n_clients, k, replace=False))
        return [int(c) for c in self.rng.choice(pool, k, replace=False)]
