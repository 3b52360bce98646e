"""Synthetic stand-ins for the paper's image datasets.

The paper downloads MNIST, Fashion-MNIST and CIFAR-100; with no network
access we generate class-structured synthetic images instead.  Each class
is defined by a small number of smooth *prototype* images (intra-class
modes); a sample is ``prototype + pixel noise``, so classes are separable
but overlapping, and harder specs (more classes, more noise, more modes)
need more training to fit — reproducing the qualitative difficulty
ordering MNIST < Fashion-MNIST < CIFAR-100 that drives the paper's
results.

Why this preserves the paper's behaviour: FedDRL, FedAvg and FedProx
differ only in how the server weights client models; the phenomena under
study (cluster bias, label skew, fairness) are functions of *which labels
live on which client*, which is controlled by :mod:`repro.data.partition`
independently of pixel content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.dtypes import get_default_dtype
from repro.runtime.seeding import STREAM_DATASET, run_rng

#: Bytes of float64 noise :func:`make_synthetic_dataset` draws per chunk.
_DRAW_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SyntheticImageSpec:
    """Parameters of a synthetic image-classification dataset.

    Attributes
    ----------
    num_classes:
        Number of labels.
    channels, image_size:
        Image geometry (images are ``channels x image_size x image_size``).
    modes_per_class:
        Number of distinct prototypes per class (intra-class variation).
    noise:
        Standard deviation of per-pixel Gaussian noise added to prototypes.
        Larger values make the task harder.
    smoothness:
        Width (in pixels) of the separable smoothing applied to prototypes;
        makes prototypes look like low-frequency "shapes" rather than
        white noise, so convolutional models have exploitable structure.
    """

    num_classes: int
    channels: int = 1
    image_size: int = 8
    modes_per_class: int = 2
    noise: float = 0.35
    smoothness: int = 2

    def __post_init__(self) -> None:
        if self.num_classes <= 1:
            raise ValueError("need at least two classes")
        if self.channels <= 0 or self.image_size <= 0:
            raise ValueError("invalid image geometry")
        if self.modes_per_class <= 0:
            raise ValueError("modes_per_class must be positive")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")


def _smooth(images: np.ndarray, width: int) -> np.ndarray:
    """Box-smooth the trailing two axes ``width`` times (separable, cheap)."""
    if width <= 0:
        return images
    out = images
    for _ in range(width):
        out = (
            out
            + np.roll(out, 1, axis=-1)
            + np.roll(out, -1, axis=-1)
            + np.roll(out, 1, axis=-2)
            + np.roll(out, -1, axis=-2)
        ) / 5.0
    return out


def _prototypes(spec: SyntheticImageSpec, rng: np.random.Generator) -> np.ndarray:
    """Class prototypes of shape (classes, modes, C, H, W), unit-normalised."""
    shape = (
        spec.num_classes,
        spec.modes_per_class,
        spec.channels,
        spec.image_size,
        spec.image_size,
    )
    protos = _smooth(rng.normal(size=shape), spec.smoothness)
    # Normalise each prototype to unit RMS so `noise` has a consistent
    # meaning as a signal-to-noise knob across specs.
    rms = np.sqrt(np.mean(protos**2, axis=(-3, -2, -1), keepdims=True))
    return protos / np.maximum(rms, 1e-12)


def make_synthetic_dataset(
    spec: SyntheticImageSpec,
    n_train: int,
    n_test: int,
    rng: np.random.Generator,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Generate a ``(train, test)`` pair drawn from the same class prototypes.

    Labels are assigned uniformly (balanced at the global level; partitioners
    handle global imbalance), and both splits share the prototype tensors so
    test accuracy measures real generalisation over the noise distribution.
    """
    if n_train <= 0 or n_test <= 0:
        raise ValueError("n_train and n_test must be positive")
    protos = _prototypes(spec, rng)
    sample_shape = protos.shape[2:]
    # Rows per float64 noise draw: the set is written straight into its
    # compute-dtype array a chunk at a time, never held twice.
    chunk = max(1, _DRAW_CHUNK_BYTES // (8 * math.prod(sample_shape)))

    def _draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, spec.num_classes, size=n)
        modes = rng.integers(0, spec.modes_per_class, size=n)
        x = np.empty((n, *sample_shape), dtype=get_default_dtype())
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            # Successive normal draws continue one stream, so the chunks
            # are the one (n, C, H, W) draw; noise + prototype is the
            # prototype + noise sum, rounded once into x's dtype.
            noise = rng.normal(scale=spec.noise, size=(hi - lo, *sample_shape))
            noise += protos[labels[lo:hi], modes[lo:hi]]
            x[lo:hi] = noise
        return x, labels

    x_tr, y_tr = _draw(n_train)
    x_te, y_te = _draw(n_test)
    return (
        ArrayDataset(x_tr, y_tr, spec.num_classes),
        ArrayDataset(x_te, y_te, spec.num_classes),
    )


# -- named stand-ins ---------------------------------------------------------

def mnist_like(
    n_train: int = 2000,
    n_test: int = 500,
    seed: int = 0,
    image_size: int = 8,
) -> tuple[ArrayDataset, ArrayDataset]:
    """MNIST stand-in: 10 easy classes, 1 channel, low noise."""
    spec = SyntheticImageSpec(
        num_classes=10, channels=1, image_size=image_size,
        modes_per_class=2, noise=0.60,
    )
    return make_synthetic_dataset(spec, n_train, n_test, run_rng(seed, STREAM_DATASET))


def fashion_like(
    n_train: int = 2000,
    n_test: int = 500,
    seed: int = 1,
    image_size: int = 8,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Fashion-MNIST stand-in: 10 classes with more intra-class variation."""
    spec = SyntheticImageSpec(
        num_classes=10, channels=1, image_size=image_size,
        modes_per_class=3, noise=1.00,
    )
    return make_synthetic_dataset(spec, n_train, n_test, run_rng(seed, STREAM_DATASET))


def cifar100_like(
    n_train: int = 4000,
    n_test: int = 1000,
    seed: int = 2,
    image_size: int = 8,
    num_classes: int = 100,
) -> tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-100 stand-in: many classes, 3 channels, high noise (hardest)."""
    spec = SyntheticImageSpec(
        num_classes=num_classes, channels=3, image_size=image_size,
        modes_per_class=2, noise=1.10,
    )
    return make_synthetic_dataset(spec, n_train, n_test, run_rng(seed, STREAM_DATASET))


DATASET_FACTORIES = {
    "mnist": mnist_like,
    "fashion": fashion_like,
    "cifar100": cifar100_like,
}
