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
    in ``[0, num_classes)``.  Subsetting returns views where NumPy allows
    it; the federated clients hold subsets of one shared array, so no
    per-client copies are made.
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

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Dataset restricted to ``indices`` (fancy indexing copies; fine —
        each sample belongs to exactly one client so total memory is bounded)."""
        indices = np.asarray(indices)
        return ArrayDataset(self.x[indices], self.y[indices], self.num_classes)

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
            x, y = self.x[idx], self.y[idx]
            for start in range(0, idx.shape[0], batch_size):
                yield x[start : start + batch_size], y[start : start + batch_size]

    def label_counts(self) -> np.ndarray:
        """Per-class sample counts, shape ``(num_classes,)``."""
        return np.bincount(self.y, minlength=self.num_classes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayDataset(n={len(self)}, shape={self.x.shape[1:]}, "
            f"classes={self.num_classes})"
        )


def train_test_split(
    dataset: ArrayDataset, test_fraction: float, rng: np.random.Generator
) -> tuple[ArrayDataset, ArrayDataset]:
    """Random split into train/test preserving nothing but proportions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(dataset)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)
