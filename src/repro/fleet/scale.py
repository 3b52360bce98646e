"""The client population: every run's clients, built on demand.

A million-client experiment cannot afford a Python ``Client`` object —
let alone a fancy-indexed shard copy — per member of the population.
:class:`LazyClientPool` keeps the population *virtual*: the full training
set lives in one place (one set of shared-memory pages on the process
backend, see :mod:`repro.data.shm`), per-client attributes live in
columnar arrays (:class:`repro.fleet.columnar.FleetState`), and an actual
``Client`` is built only when the engine is about to train it — the K
sampled participants of the current round, not the N members of the
fleet.  :func:`repro.fl.client.make_clients` builds the pool of every run.

**Determinism.**  Client ``cid`` is always
``Client(cid, train_set.subset(parts[cid]))``, its shard poisoned first
when the run's data attack made it malicious
(:meth:`repro.fl.robust.attacks.AttackModel.poison_dataset`, a pure
function of the seed and the client id), so a client rebuilt anywhere,
any number of times, holds the same bits.  Shared-memory backing does not
change this: ``subset`` is a row view of the shared pages, and the values
are the same.

**Backends.**  The serial and thread executors look clients up by id in
the pool.  The process backend calls :meth:`LazyClientPool.share` and
ships the pool itself to its workers at pool construction: it pickles as
block names, parts and the attack (no cache, no block ownership), and
each worker materializes its own tasks' clients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.shm import SharedMemoryPool, share_dataset

if TYPE_CHECKING:
    from repro.fl.client import Client
    from repro.fl.robust.attacks import AttackModel


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

    Engines hold it as their population — ``len()`` for its size,
    ``pool[cid]`` for a participant — plus the provider protocol:
    ``shard_sizes`` answers size queries without building anything,
    ``ensure(ids)`` materializes a round's participants up front (the
    executors that train in this process call it; process workers build
    their own), and ``release()`` drops them once the engine has the
    round's updates, so resident ``Client`` objects stay O(K) instead of
    O(N).

    ``attack`` poisons each malicious client's shard as the client is
    built (data attacks only; any other attack leaves shards alone).
    :meth:`share` moves the base dataset into shared memory; shards are
    then row views of the shared pages.  The pool owns those blocks and
    unlinks them in :meth:`close`.
    """

    def __init__(
        self,
        train_set: ArrayDataset,
        parts,
        attack: AttackModel | None = None,
    ) -> None:
        if len(parts) == 0:
            raise ValueError("need at least one client partition")
        self.n_clients = len(parts)
        self._parts = parts
        self._attack = attack
        self._shm_pool: SharedMemoryPool | None = None
        self.train_set = train_set
        self._cache: dict[int, Client] = {}

    def __getstate__(self) -> dict:
        # A worker's copy: the base set (block names when shared), parts
        # and attack — never the parent's resident clients or its blocks.
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

            shard = self.train_set.subset(np.asarray(self._parts[cid]))
            if self._attack is not None:
                shard = self._attack.poison_dataset(cid, shard)
            client = Client(cid, shard)
            self._cache[cid] = client
        return client

    # -- provider protocol ---------------------------------------------------
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
        """True while the base dataset sits in shared memory."""
        return self._shm_pool is not None

    def share(self) -> None:
        """Move the base dataset into shared memory, in place: one block
        pair (features, labels), made once — a no-op while shared.  Where
        blocks cannot be made the heap arrays stay, with the same values."""
        if self._shm_pool is not None:
            return
        shared, blocks = share_dataset(self.train_set)
        if blocks:
            self._shm_pool = SharedMemoryPool()
            self._shm_pool.adopt(blocks)
            self.train_set = shared
            self._cache.clear()  # their shards view the heap arrays

    def close(self) -> None:
        """Release materialized clients and the shared blocks
        (idempotent).  The pool stays usable: a shared base set first
        goes back to the heap, with the same values."""
        self._cache.clear()
        if self._shm_pool is not None:
            self.train_set = self.train_set.to_heap()
            self._shm_pool.close()
            self._shm_pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyClientPool(n_clients={self.n_clients}, "
            f"materialized={self.materialized}, shared={self.shared})"
        )
