"""Shared-memory backing for :class:`~repro.data.dataset.ArrayDataset`
(and the named-block helpers the process backend's round exchange uses).

The process backend ships its client pool to its workers at pool
construction.  Client shards are :class:`~repro.data.dataset.RowView` s
of one training set, so that set is what gets shared, once:
:meth:`repro.fleet.scale.LazyClientPool.share` copies it into one pair of
named blocks (features, labels) with :func:`share_dataset` and builds
every later shard over the copy.  Pickling a :class:`SharedArrayDataset`
ships only block names and shapes, a view over one ships those plus its
rows, and workers attach instead of copying.

Everything degrades transparently: if a block cannot be created (no
``/dev/shm``, permission failures, a full mount) the original heap-backed
datasets are used and behavior is identical — sharing is a memory
optimisation, never a semantic change.
"""

from __future__ import annotations

import math
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.data.dataset import ArrayDataset


def _attach_block(name: str):
    """Attach to an existing block without tracker ownership.

    Attaching processes must not let Python's resource tracker unlink the
    block (the creating process owns its lifetime); Python 3.13 has a
    ``track`` flag for exactly this, older versions need the unregister
    workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        # Suppress tracker registration for the attach (rather than
        # unregistering afterwards, which would strip the *creator's*
        # entry from the shared tracker and leave the block untracked).
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def create_array(shape: tuple, dtype) -> tuple:
    """Create a named block sized for one array; returns ``(block, array)``.

    The array is a view over the block's (zero-filled) pages and the
    caller owns the block (see :class:`SharedMemoryPool`).  Raises
    whatever block creation raises — callers decide how to degrade.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    block = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    return block, np.ndarray(shape, dtype=dtype, buffer=block.buf)


def create_owned_array(shape: tuple, dtype) -> tuple:
    """Like :func:`create_array`, but the array owns this process's
    mapping: the block's handle closes once the array is garbage
    (``weakref.finalize``), and every view of the array — a row, a slice —
    keeps it alive, so no close can unmap pages under a live view.

    Returns ``(block, array)``.  The caller still owns the block's *name*
    and unlinks it (:meth:`SharedMemoryPool.unlink`) once no other
    process needs to attach; it never calls ``block.close()`` itself.
    """
    block, array = create_array(shape, dtype)
    weakref.finalize(array, block.close)
    return block, array


def attach_array(name: str, shape: tuple, dtype) -> tuple:
    """Map an existing block as an array; returns ``(block, array)``.

    The block handle must stay referenced for as long as the array is.
    """
    block = _attach_block(name)
    return block, np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)


def _attach_dataset(
    xname: str, xshape: tuple, xdtype: str,
    yname: str, yshape: tuple, ydtype: str,
    num_classes: int,
) -> "SharedArrayDataset":
    """Unpickling target: rebuild a dataset over the existing blocks."""
    xblk, x = attach_array(xname, xshape, xdtype)
    yblk, y = attach_array(yname, yshape, ydtype)
    return SharedArrayDataset._wrap(x, y, num_classes, (xblk, yblk))


class SharedArrayDataset(ArrayDataset):
    """An :class:`ArrayDataset` whose arrays live in named shared memory.

    Construction goes through :func:`share_dataset`; instances keep their
    :class:`~multiprocessing.shared_memory.SharedMemory` handles alive for
    as long as the arrays are referenced.  Pickling serialises block
    *names*, not data — the receiving process maps the same pages.
    ``subset`` (inherited) returns a :class:`~repro.data.dataset.RowView`
    over the shared pages, which pickles as those names plus its rows.
    """

    _shm_blocks: tuple = ()

    @classmethod
    def _wrap(cls, x, y, num_classes, blocks) -> "SharedArrayDataset":
        # Bypass ArrayDataset.__init__: it would copy/coerce, and x/y are
        # already validated views over the shared buffers.
        obj = cls.__new__(cls)
        obj.x = x
        obj.y = y
        obj.num_classes = num_classes
        obj._shm_blocks = tuple(blocks)
        return obj

    def to_heap(self) -> ArrayDataset:
        """A heap copy of this dataset: what an owner keeps before it
        closes the blocks, whose pages ``close`` unmaps under any array
        still viewing them."""
        heap = ArrayDataset.__new__(ArrayDataset)
        heap.x, heap.y, heap.num_classes = self.x.copy(), self.y.copy(), self.num_classes
        return heap

    def __reduce__(self):
        xblk, yblk = self._shm_blocks
        return (_attach_dataset, (
            xblk.name, self.x.shape, self.x.dtype.str,
            yblk.name, self.y.shape, self.y.dtype.str,
            self.num_classes,
        ))


def share_dataset(dataset: ArrayDataset) -> tuple[ArrayDataset, list]:
    """Copy ``dataset`` into shared memory.

    Returns ``(shared_dataset, blocks)`` where ``blocks`` are the newly
    created :class:`SharedMemory` segments the caller now owns (see
    :class:`SharedMemoryPool`).  If block creation fails, returns
    ``(dataset, [])`` unchanged.
    """
    if isinstance(dataset, SharedArrayDataset):
        return dataset, []
    try:
        xblk, x = create_array(dataset.x.shape, dataset.x.dtype)
        try:
            yblk, y = create_array(dataset.y.shape, dataset.y.dtype)
        except Exception:
            del x
            xblk.close()
            xblk.unlink()
            raise
    except Exception:
        return dataset, []
    np.copyto(x, dataset.x)
    np.copyto(y, dataset.y)
    blocks = [xblk, yblk]
    return SharedArrayDataset._wrap(x, y, dataset.num_classes, blocks), blocks


class SharedMemoryPool:
    """Owns a set of shared blocks and unlinks them on :meth:`close` (or
    :meth:`unlink`, for blocks from :func:`create_owned_array`)."""

    def __init__(self) -> None:
        self._blocks: list = []

    def adopt(self, blocks: list) -> None:
        self._blocks.extend(blocks)

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    def unlink(self) -> list:
        """Unlink every block's name and forget the blocks (idempotent);
        returns them.  Mappings stay open: what a caller still views stays
        valid, and a :func:`create_owned_array` block closes itself."""
        blocks, self._blocks = self._blocks, []
        for block in blocks:
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        return blocks

    def close(self) -> None:
        """Unlink every block (idempotent).

        Unlink comes first — it removes the name; a worker's mapping
        keeps its pages.  Closing our own handle unmaps ours even under a
        live array (NumPy's ``buffer=`` views hold no buffer export), so
        an owner copies out what it still needs first
        (:meth:`SharedArrayDataset.to_heap`); the close is best-effort
        where a buffer export does keep the mapping open.
        """
        for block in self.unlink():
            try:
                block.close()
            except BufferError:
                # A dataset view still references the buffer; the mapping
                # is released when the view is garbage-collected.
                pass
