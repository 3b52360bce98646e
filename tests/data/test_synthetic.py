"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data.synthetic import (
    SyntheticImageSpec,
    cifar100_like,
    fashion_like,
    make_synthetic_dataset,
    mnist_like,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import mlp
from repro.nn.optim import SGD


class TestSpecValidation:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            SyntheticImageSpec(num_classes=1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SyntheticImageSpec(num_classes=3, noise=-1.0)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            SyntheticImageSpec(num_classes=3, modes_per_class=0)


class TestGeneration:
    def test_shapes(self):
        spec = SyntheticImageSpec(num_classes=5, channels=3, image_size=6)
        tr, te = make_synthetic_dataset(spec, 100, 40, np.random.default_rng(0))
        assert tr.x.shape == (100, 3, 6, 6)
        assert te.x.shape == (40, 3, 6, 6)
        assert tr.num_classes == 5

    def test_deterministic_given_seed(self):
        spec = SyntheticImageSpec(num_classes=4)
        a, _ = make_synthetic_dataset(spec, 50, 10, np.random.default_rng(7))
        b, _ = make_synthetic_dataset(spec, 50, 10, np.random.default_rng(7))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_all_classes_present_in_large_sample(self):
        spec = SyntheticImageSpec(num_classes=10)
        tr, _ = make_synthetic_dataset(spec, 2000, 100, np.random.default_rng(1))
        assert set(tr.y.tolist()) == set(range(10))

    def test_rejects_nonpositive_counts(self):
        spec = SyntheticImageSpec(num_classes=3)
        with pytest.raises(ValueError):
            make_synthetic_dataset(spec, 0, 10, np.random.default_rng(0))

    def test_classes_are_separable(self):
        """An MLP must reach well-above-chance accuracy quickly — the whole
        point of the synthetic stand-ins is that they are learnable."""
        tr, te = mnist_like(n_train=600, n_test=200, seed=3)
        rng = np.random.default_rng(0)
        model = mlp(int(np.prod(tr.x.shape[1:])), 10, rng, hidden=(32,))
        loss = SoftmaxCrossEntropy()
        opt = SGD(model, lr=0.1)
        for _ in range(15):
            for xb, yb in tr.batches(32, rng=rng):
                model.zero_grad()
                model.train_batch(loss, xb, yb)
                opt.step()
        acc = float(np.mean(model.predict(te.x) == te.y))
        assert acc > 0.6  # chance is 0.1

    def test_noise_controls_difficulty(self):
        """Higher noise -> lower nearest-prototype separability."""
        def separability(noise: float) -> float:
            spec = SyntheticImageSpec(num_classes=5, noise=noise, modes_per_class=1)
            tr, _ = make_synthetic_dataset(spec, 400, 10, np.random.default_rng(5))
            # Nearest class-mean classification accuracy on the train set.
            means = np.stack([tr.x[tr.y == c].mean(axis=0) for c in range(5)])
            flat = tr.x.reshape(len(tr), -1)
            dists = ((flat[:, None, :] - means.reshape(5, -1)[None]) ** 2).sum(axis=2)
            return float(np.mean(dists.argmin(axis=1) == tr.y))

        assert separability(0.1) > separability(3.0)


class TestNamedStandins:
    def test_mnist_like_geometry(self):
        tr, te = mnist_like(n_train=100, n_test=50)
        assert tr.x.shape[1:] == (1, 8, 8)
        assert tr.num_classes == 10

    def test_fashion_like_geometry(self):
        tr, _ = fashion_like(n_train=100, n_test=50)
        assert tr.x.shape[1:] == (1, 8, 8)

    def test_cifar100_like_geometry(self):
        tr, _ = cifar100_like(n_train=200, n_test=50, num_classes=100)
        assert tr.x.shape[1:] == (3, 8, 8)
        assert tr.num_classes == 100

    def test_cifar_reduced_classes(self):
        tr, _ = cifar100_like(n_train=100, n_test=20, num_classes=20)
        assert tr.num_classes == 20

    def test_custom_image_size(self):
        tr, _ = mnist_like(n_train=20, n_test=10, image_size=16)
        assert tr.x.shape[1:] == (1, 16, 16)
