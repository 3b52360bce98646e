"""Lazy client materialization for fleet-scale simulations.

A million-client experiment cannot afford a Python ``Client`` object —
let alone a fancy-indexed shard copy — per member of the population.
:class:`LazyClientPool` keeps the population *virtual*: the full training
set lives in one place (optionally one set of shared-memory pages, see
:mod:`repro.data.shm`), per-client attributes live in columnar arrays
(:class:`repro.fleet.columnar.FleetState`), and an actual ``Client`` is
built only when the engine is about to train it — the K sampled
participants of the current round, not the N members of the fleet.

**Bit-identity.**  A lazily materialized client is constructed exactly
like :func:`repro.fl.client.make_clients` builds it eagerly —
``Client(cid, train_set.subset(parts[cid]))`` — so a lazy run's History
is bit-identical to an eager run's.
Shared-memory backing does not change this: ``subset`` is a row view of
the shared pages, and the values are the same.

**Backends.**  The serial and thread executors look clients up by id and
work with a pool directly.  The process backend ships the pool itself to
its workers at pool construction: built with ``share=True``, it pickles
as block names and parts (no cache, no block ownership), and each
worker materializes its own tasks' clients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.shm import SharedMemoryPool, share_dataset

if TYPE_CHECKING:
    from repro.fl.client import Client


def is_client_provider(clients) -> bool:
    """True for lazy client providers (vs a plain materialized list)."""
    return hasattr(clients, "ensure") and hasattr(clients, "release")


class StridedPartition:
    """A virtual partition: per-client index arrays computed on demand.

    Holding one ndarray per client costs ~100 bytes of object overhead
    each — 100 MB of pure bookkeeping at a million clients.  This class
    stores nothing per client; client ``c`` owns the ``per_client``
    samples starting at ``c * stride`` (wrapping around the base
    dataset), so huge synthetic fleets can share a small sample pool
    while every client still sees its own deterministic shard.
    """

    def __init__(self, n_samples: int, n_clients: int, per_client: int,
                 stride: int | None = None) -> None:
        if n_samples <= 0 or n_clients <= 0 or per_client <= 0:
            raise ValueError("n_samples, n_clients, per_client must be positive")
        self.n_samples = n_samples
        self.n_clients = n_clients
        self.per_client = per_client
        self.stride = per_client if stride is None else stride

    def __len__(self) -> int:
        return self.n_clients

    def __getitem__(self, cid: int) -> np.ndarray:
        if not 0 <= cid < self.n_clients:
            raise IndexError(cid)
        start = (cid * self.stride) % self.n_samples
        return (start + np.arange(self.per_client)) % self.n_samples

    def size(self, cid: int) -> int:
        return self.per_client

    @property
    def shard_sizes(self) -> np.ndarray:
        return np.full(self.n_clients, self.per_client, dtype=np.int64)


class LazyClientPool:
    """Client-by-id provider that materializes participants on demand.

    Engines treat it like the client list they already hold — ``len()``
    for the population size, ``pool[cid]`` for a participant — plus the
    provider protocol: ``n_samples(cid)`` answers size queries without
    building anything, ``ensure(ids)`` materializes a round's
    participants up front (parent-side, before executor dispatch), and
    ``release()`` drops them once the round's updates are aggregated, so
    resident ``Client`` objects stay O(K) instead of O(N).

    ``share=True`` moves the base dataset into shared memory first
    (degrading silently to heap arrays where unavailable); shards are
    then row views of the shared pages.  The pool that shared them owns
    the blocks and unlinks them in :meth:`close`.
    """

    def __init__(
        self,
        train_set: ArrayDataset,
        parts,
        share: bool = False,
    ) -> None:
        if len(parts) == 0:
            raise ValueError("need at least one client partition")
        self.n_clients = len(parts)
        self._parts = parts
        self._shm_pool: SharedMemoryPool | None = None
        if share:
            shared, blocks = share_dataset(train_set)
            if blocks:
                pool = SharedMemoryPool()
                pool.adopt(blocks)
                self._shm_pool = pool
                train_set = shared
        self.train_set = train_set
        self._cache: dict[int, Client] = {}

    def __getstate__(self) -> dict:
        # A worker's copy: the base set (block names when shared) and
        # parts — never the parent's resident clients or its blocks.
        return {**self.__dict__, "_cache": {}, "_shm_pool": None}

    def __len__(self) -> int:
        return self.n_clients

    def __iter__(self):
        raise TypeError(
            "iterating a LazyClientPool would materialize the whole fleet; "
            "use ensure(ids) / pool[cid] for the clients you actually need"
        )

    def __getitem__(self, cid: int) -> Client:
        client = self._cache.get(cid)
        if client is None:
            if not 0 <= cid < self.n_clients:
                raise KeyError(cid)
            # Deferred: repro.fl's engines import this module, so a
            # module-level import would break `import repro.fleet` as a
            # process's first import.
            from repro.fl.client import Client

            # Mirrors make_clients exactly, so lazy and eager runs are
            # bit-identical.
            client = Client(cid, self.train_set.subset(np.asarray(self._parts[cid])))
            self._cache[cid] = client
        return client

    # -- provider protocol ---------------------------------------------------
    def n_samples(self, cid: int) -> int:
        """Shard size without materializing the client."""
        size = getattr(self._parts, "size", None)
        if size is not None:
            return int(size(cid))
        return len(self._parts[cid])

    @property
    def shard_sizes(self) -> np.ndarray:
        """All shard sizes as one int64 column (feeds FleetState)."""
        sizes = getattr(self._parts, "shard_sizes", None)
        if sizes is not None:
            return np.asarray(sizes, dtype=np.int64)
        return np.array([len(p) for p in self._parts], dtype=np.int64)

    def ensure(self, ids) -> list[Client]:
        """Materialize (and return) the given participants."""
        return [self[int(cid)] for cid in ids]

    def release(self, ids=None) -> None:
        """Drop materialized clients (all of them, or just ``ids``)."""
        if ids is None:
            self._cache.clear()
            return
        for cid in ids:
            self._cache.pop(int(cid), None)

    @property
    def materialized(self) -> int:
        """How many Client objects are currently resident."""
        return len(self._cache)

    @property
    def shared(self) -> bool:
        """True when the base dataset sits in shared memory."""
        return self._shm_pool is not None

    def close(self) -> None:
        """Release materialized clients and any shared-memory blocks."""
        self._cache.clear()
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyClientPool(n_clients={self.n_clients}, "
            f"materialized={self.materialized}, shared={self.shared})"
        )
