"""Tests for metrics and initialisers."""

import numpy as np
import pytest

from repro.nn.initializers import (
    get_initializer,
    he_normal,
    xavier_uniform,
    zeros_init,
)
from repro.nn.layers import Dense
from repro.nn.metrics import per_class_accuracy, top1_accuracy
from repro.nn.model import Sequential


class FixedModel:
    """A 'model' whose logits are predetermined (for metric tests)."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=float)

    def forward(self, x, training=False):
        idx = x[:, 0].astype(int)
        return self.logits[idx]

    def predict(self, x, batch_size=256):
        return self.forward(x).argmax(axis=1)


class TestMetrics:
    def setup_method(self):
        # 4 samples, 3 classes; predictions: 0, 1, 1, 2.
        logits = np.array(
            [[5, 2, 1], [2, 5, 1], [2, 5, 1], [0, 2, 5]], dtype=float
        )
        self.model = FixedModel(logits)
        self.x = np.arange(4, dtype=float)[:, None]

    def test_top1(self):
        y = np.array([0, 1, 2, 2])  # 3 of 4 correct
        assert top1_accuracy(self.model, self.x, y) == pytest.approx(0.75)

    def test_per_class_accuracy(self):
        y = np.array([0, 1, 2, 2])  # truth 2 predicted as 1 once
        acc = per_class_accuracy(self.model, self.x, y, 3)
        np.testing.assert_array_equal(acc, [1.0, 1.0, 0.5])

    def test_per_class_accuracy_nan_for_missing(self):
        y = np.array([0, 0, 0, 0])
        acc = per_class_accuracy(self.model, self.x, y, 3)
        assert acc[0] == pytest.approx(0.25)
        assert np.isnan(acc[1]) and np.isnan(acc[2])

    def test_empty_input_raises(self, rng):
        model = Sequential([Dense(2, 2, rng)])
        with pytest.raises(ValueError):
            top1_accuracy(model, np.empty((0, 2)), np.empty(0, dtype=int))


class TestInitializers:
    def test_he_normal_std(self, rng):
        w = he_normal((1000, 100), rng)
        assert w.std() == pytest.approx(np.sqrt(2 / 1000), rel=0.1)

    def test_xavier_uniform_bounds(self, rng):
        w = xavier_uniform((300, 200), rng)
        bound = np.sqrt(6 / 500)
        assert np.abs(w).max() <= bound

    def test_conv_fan_in(self, rng):
        w = he_normal((32, 16, 3, 3), rng)  # fan_in = 16*9
        assert w.std() == pytest.approx(np.sqrt(2 / 144), rel=0.1)

    def test_zeros(self, rng):
        np.testing.assert_array_equal(zeros_init((3, 3), rng), 0.0)

    def test_unknown_shape_raises(self, rng):
        with pytest.raises(ValueError):
            he_normal((2, 2, 2), rng)

    def test_registry_lookup_and_typo(self):
        assert get_initializer("he_normal") is he_normal
        with pytest.raises(ValueError, match="unknown initializer"):
            get_initializer("he_normale")
