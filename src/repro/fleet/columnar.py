"""Columnar fleet state: per-client attributes as numpy columns.

Modelling availability per client per slot in Python — one
``SeedSequence``/``Generator`` pair per ``(slot, client)`` cell — is
faithful, but its cost scales with *fleet size*: a million-client fleet
spends ~10 s of object churn per slot before any training happens.

This module stores the whole fleet as columns and advances availability
for every client at once through :class:`repro.runtime.vecrng.CellBatchKernel`,
whose draws are bit-identical to that per-cell derivation; golden-hash
tests pin the masks against a per-cell reimplementation over
``np.random`` itself.

Two layers:

* :class:`ColumnarAvailability` — *the* availability model, built by CLI
  name (:data:`AVAILABILITY_MODELS`): ``mask(slot)`` returns the whole
  fleet's online column and ``online(cid, slot)`` reads one bit of it.
  ``always`` keeps every client online; the ``markov`` chain advances
  sequentially and keeps packed checkpoints so backward queries replay
  a bounded window instead of the whole history.
* :class:`FleetState` — the columns a simulated fleet carries around:
  shard sizes (so ``n_samples`` never needs a ``Client`` object), the
  jobs-served column that fairness dispatch reads and writes, and the
  availability engine.  ``nbytes`` reports resident state so scale tests
  can assert the million-client footprint.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.seeding import STREAM_AVAILABILITY
from repro.runtime.vecrng import CellBatchKernel

__all__ = ["AVAILABILITY_MODELS", "ColumnarAvailability", "FleetState"]

AVAILABILITY_MODELS = ("always", "markov")

# Replay bound for backward markov queries: a packed snapshot of the
# fleet's on/off column every this-many slots.
_CHECKPOINT_EVERY = 256
# Per-slot mask memo.  Small fleets keep every queried slot resident
# (scalar-style access patterns iterate clients in the outer loop and
# slots in the inner one, which would otherwise recompute the column per
# client); huge fleets stay within a fixed byte budget, which still
# covers a round's handful of repeated same-slot queries.
_MASK_CACHE_MIN_SLOTS = 8
_MASK_CACHE_BYTES = 16 << 20


def ids_within(mask: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
    """Sorted client ids set in the boolean column ``mask``, optionally
    restricted to ``ids`` — an id array, or a second boolean column over
    the fleet (one AND, no sort: the async dispatcher's idle column)."""
    if ids is None:
        return np.flatnonzero(mask)
    ids = np.asarray(ids)
    if ids.dtype == np.bool_:
        return np.flatnonzero(mask & ids)
    ids = ids.astype(np.int64, copy=False)
    if ids.size > 1 and not (ids[1:] >= ids[:-1]).all():
        ids = np.sort(ids)
    return ids[mask[ids]]


class ColumnarAvailability:
    """Whole-fleet availability masks, by model name.

    * ``always`` — every client online in every slot.
    * ``markov`` — a two-state on/off chain per client, slot 0 drawn from
      the stationary distribution, then ``P(on -> off) = churn_rate *
      offline_fraction`` and ``P(off -> on) = churn_rate * (1 -
      offline_fraction)``: the long-run offline fraction is
      ``offline_fraction`` whatever ``churn_rate`` is, and sessions last
      ``~1 / churn_rate`` slots.  A ``churn_rate`` too high for either
      probability to stay <= 1 is scaled down as a whole, preserving the
      stationary distribution.

    Every slot's mask draws from its ``(slot, client)`` availability
    cells, so a trace is identical no matter which slots are queried
    first: the chain advances sequentially and keeps packed checkpoints,
    so a backward query replays a bounded window instead of the whole
    history.
    """

    def __init__(
        self,
        name: str,
        n_clients: int,
        seed: int,
        offline_fraction: float = 0.2,
        churn_rate: float = 0.5,
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if not 0.0 <= offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        if churn_rate <= 0.0:
            raise ValueError("churn_rate must be positive")
        if name not in AVAILABILITY_MODELS:
            raise ValueError(f"unknown availability model {name!r}")
        self.name = name
        self.n_clients = n_clients
        self.seed = seed
        self.offline_fraction = offline_fraction
        self._always: np.ndarray | None = None
        self._kernel: CellBatchKernel | None = None
        if name == "always":
            self._always = np.ones(n_clients, dtype=bool)
        else:
            ids = np.arange(n_clients, dtype=np.uint32)
            self._kernel = CellBatchKernel(seed, ids, n_prefix=1, n_suffix=1)
        self._mask_cache: dict[int, np.ndarray] = {}
        self._max_cached_masks = max(
            _MASK_CACHE_MIN_SLOTS, _MASK_CACHE_BYTES // n_clients
        )
        max_rate = 1.0 / max(offline_fraction, 1.0 - offline_fraction)
        rate = min(churn_rate, max_rate)
        self.p_on_to_off = rate * offline_fraction
        self.p_off_to_on = rate * (1.0 - offline_fraction)
        self._state: np.ndarray | None = None  # on/off column at _slot
        self._slot = -1
        self._checkpoints: dict[int, np.ndarray] = {}  # slot -> packbits

    # ---------------------------------------------------------------- draws

    def _markov_step(self, state: np.ndarray | None, slot: int) -> np.ndarray:
        """One transition of the whole-fleet on/off column into ``slot``."""
        u = self._kernel.uniforms((slot,), (STREAM_AVAILABILITY,))
        if slot == 0 or state is None:
            return u >= self.offline_fraction
        return np.where(state, u >= self.p_on_to_off, u < self.p_off_to_on)

    def _markov_mask(self, slot: int) -> np.ndarray:
        if slot == self._slot and self._state is not None:
            return self._state
        if slot > self._slot and self._state is not None:
            state, start = self._state, self._slot
        else:
            # Backward (or first) query: replay from the nearest packed
            # checkpoint at or below the target slot.
            starts = [s for s in self._checkpoints if s <= slot]
            if starts:
                start = max(starts)
                state = np.unpackbits(
                    self._checkpoints[start], count=self.n_clients
                ).astype(bool)
            else:
                start = 0
                state = self._markov_step(None, 0)
                self._checkpoints.setdefault(0, np.packbits(state))
                self._cache_put(0, state)
        for t in range(start + 1, slot + 1):
            state = self._markov_step(state, t)
            if t % _CHECKPOINT_EVERY == 0:
                self._checkpoints.setdefault(t, np.packbits(state))
            self._cache_put(t, state)
        if slot >= self._slot:
            self._state, self._slot = state, slot
        return state

    # ---------------------------------------------------------------- masks

    def _cache_put(self, slot: int, mask: np.ndarray) -> None:
        if slot not in self._mask_cache:
            if len(self._mask_cache) >= self._max_cached_masks:
                self._mask_cache.pop(next(iter(self._mask_cache)))
            self._mask_cache[slot] = mask

    def mask(self, slot: int) -> np.ndarray:
        """Boolean online column for ``slot``; do not mutate the result."""
        if slot < 0:
            raise ValueError("slot must be non-negative")
        if self._always is not None:
            return self._always
        cached = self._mask_cache.get(slot)
        if cached is None:
            cached = self._markov_mask(slot)
            self._cache_put(slot, cached)
        return cached

    def online(self, client_id: int, slot: int) -> bool:
        return bool(self.mask(slot)[client_id])

    def online_ids(self, slot: int, ids: np.ndarray | None = None) -> np.ndarray:
        """Sorted online client ids, optionally restricted to ``ids``."""
        return ids_within(self.mask(slot), ids)

    @property
    def nbytes(self) -> int:
        """Resident bytes of columns, caches, and kernel scratch."""
        total = sum(m.nbytes for m in self._mask_cache.values())
        total += sum(c.nbytes for c in self._checkpoints.values())
        for column in (self._always, self._state):
            if column is not None:
                total += column.nbytes
        if self._kernel is not None:
            total += self._kernel.nbytes
        return total


class FleetState:
    """Columnar per-client state for a (possibly huge) simulated fleet.

    Everything a fleet-scale experiment needs to know about a client
    without instantiating it: whether it is online (availability
    engine), how many samples it holds (``shard_sizes``), and how many
    jobs it has served (``jobs_served``, the column fairness dispatch
    reads and writes).  ``Client`` objects are materialized lazily — per
    sampled participant, per round — by :mod:`repro.fleet.scale`.
    """

    def __init__(
        self,
        n_clients: int,
        availability: ColumnarAvailability | None = None,
        shard_sizes: np.ndarray | None = None,
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        self.n_clients = n_clients
        # "always" draws nothing, so its seed is immaterial.
        self.availability = availability or ColumnarAvailability("always", n_clients, 0)
        if self.availability.n_clients != n_clients:
            raise ValueError("availability engine sized for a different fleet")
        if shard_sizes is None:
            shard_sizes = np.zeros(n_clients, dtype=np.int64)
        self.shard_sizes = np.asarray(shard_sizes, dtype=np.int64)
        if self.shard_sizes.shape != (n_clients,):
            raise ValueError("shard_sizes must have one entry per client")
        self.jobs_served = np.zeros(n_clients, dtype=np.int64)

    # ------------------------------------------------------------- columns

    def n_samples(self, client_id: int) -> int:
        return int(self.shard_sizes[client_id])

    def record_jobs(self, client_ids, count: int = 1) -> None:
        """Bump the jobs-served column for dispatched clients."""
        self.jobs_served[np.asarray(client_ids, dtype=np.int64)] += count

    def fairest(self, candidate_ids: np.ndarray, count: int = 1) -> np.ndarray:
        """The ``count`` candidates with fewest jobs served, ties by id.

        Equivalent to repeatedly taking ``min(pool, key=(jobs, id))`` and
        removing the winner — sequential min-scans pick exactly the
        ``count`` lexicographically smallest ``(jobs, id)`` pairs — but
        as one vectorized partial sort over the candidate column.
        """
        pool = np.asarray(candidate_ids, dtype=np.int64)
        # Composite key: jobs-served major, client id minor.  Both fit
        # comfortably in the int64 product range for any real fleet.
        key = self.jobs_served[pool] * np.int64(self.n_clients) + pool
        if pool.size <= count:
            return pool[np.argsort(key)]
        picked = np.argpartition(key, count - 1)[:count]
        return pool[picked[np.argsort(key[picked])]]

    @property
    def nbytes(self) -> int:
        """Resident bytes of all columns including the availability engine."""
        return (
            self.shard_sizes.nbytes
            + self.jobs_served.nbytes
            + self.availability.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetState(n_clients={self.n_clients}, "
            f"availability={self.availability.name!r}, nbytes={self.nbytes})"
        )
