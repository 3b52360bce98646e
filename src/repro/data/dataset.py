"""Dataset containers and batching utilities."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.nn.dtypes import get_default_dtype


#: Rows :meth:`ArrayDataset.batches` gathers per fancy-index call (rounded
#: down to whole batches); fixed, so an epoch over a set of any size holds
#: one chunk of it, never a second copy.
GATHER_ROWS = 256


class ArrayDataset:
    """An in-memory labelled dataset: features ``x`` and integer labels ``y``.

    ``x`` has shape ``(n, ...)`` (images are NCHW without the batch dim)
    and is stored in the configured compute dtype so batches feed the
    model's GEMMs without promotion; ``y`` has shape ``(n,)`` with values
    in ``[0, num_classes)``.  :meth:`subset` copies nothing: it returns a
    :class:`RowView` of this dataset's arrays, so the federated clients'
    shards are row indices into one training set, held once.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, num_classes: int) -> None:
        x = np.asarray(x, dtype=get_default_dtype())
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} samples but y has {y.shape[0]} labels"
            )
        if y.ndim != 1:
            raise ValueError("labels must be a 1-D integer array")
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if y.size and (y.min() < 0 or y.max() >= num_classes):
            raise ValueError(f"labels must lie in [0, {num_classes})")
        self.x = x
        self.y = y.astype(np.int64)
        self.num_classes = num_classes

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, indices: np.ndarray) -> "RowView":
        """The rows ``indices`` of this dataset, as a view (no copy)."""
        return RowView(self, indices)

    def _gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the rows ``idx`` (positions in this dataset)."""
        return self.x[idx], self.y[idx]

    def batches(
        self, batch_size: int, rng: np.random.Generator | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(x, y)`` mini-batches, shuffled when ``rng`` is given.

        Rows are gathered :data:`GATHER_ROWS` at a time and the batches are
        slices of that copy: ``x[order[start:stop]]`` without two gathers
        per batch.  Consumers must not write into a batch.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        n = len(self)
        order = rng.permutation(n) if rng is not None else np.arange(n)
        chunk = max(1, GATHER_ROWS // batch_size) * batch_size
        for lo in range(0, n, chunk):
            idx = order[lo : lo + chunk]
            x, y = self._gather(idx)
            for start in range(0, idx.shape[0], batch_size):
                yield x[start : start + batch_size], y[start : start + batch_size]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={len(self)}, shape={self.x.shape[1:]}, "
            f"classes={self.num_classes})"
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class RowView(ArrayDataset):
    """Rows ``rows`` of ``parent``, which keeps the only copy of the data.

    ``parent`` is always a full dataset: subsetting a view composes the
    row indices instead of stacking views.  ``batches`` gathers through
    ``rows`` one chunk at a time, exactly as the parent gathers its own
    rows; ``x`` / ``y`` gather the whole view on each access and come back
    read-only, because a write into that copy would not reach the data.
    Pickling ships ``parent`` and ``rows``; one pickle of many views of a
    parent carries the parent once.
    """

    def __init__(self, parent: ArrayDataset, rows: np.ndarray) -> None:
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        self.parent = parent
        self.rows = rows
        self.num_classes = parent.num_classes

    @property
    def x(self) -> np.ndarray:
        return _read_only(self.parent.x[self.rows])

    @property
    def y(self) -> np.ndarray:
        return _read_only(self.parent.y[self.rows])

    def __len__(self) -> int:
        return self.rows.shape[0]

    def subset(self, indices: np.ndarray) -> "RowView":
        return RowView(self.parent, self.rows[np.asarray(indices)])

    def _gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.parent._gather(self.rows[idx])
