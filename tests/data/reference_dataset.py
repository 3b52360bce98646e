"""The data layer as it stood before shards became row views: the
copying ``subset`` and the synthesis draw that built a whole
``protos[labels, modes]`` array next to its noise and cast afterwards.
Kept as the bit-for-bit oracles for ``ArrayDataset.subset`` /
``RowView`` and ``make_synthetic_dataset``."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import _prototypes


def copying_subset(dataset: ArrayDataset, indices) -> ArrayDataset:
    indices = np.asarray(indices)
    return ArrayDataset(dataset.x[indices], dataset.y[indices], dataset.num_classes)


def make_synthetic_dataset(spec, n_train, n_test, rng):
    protos = _prototypes(spec, rng)

    def _draw(n):
        labels = rng.integers(0, spec.num_classes, size=n)
        modes = rng.integers(0, spec.modes_per_class, size=n)
        base = protos[labels, modes]  # (n, C, H, W)
        x = base + rng.normal(scale=spec.noise, size=base.shape)
        return x, labels

    x_tr, y_tr = _draw(n_train)
    x_te, y_te = _draw(n_test)
    return (
        ArrayDataset(x_tr, y_tr, spec.num_classes),
        ArrayDataset(x_te, y_te, spec.num_classes),
    )
