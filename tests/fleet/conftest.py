"""Fleet test fixtures: a tiny federated population on synthetic data."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.nn.models import mlp


@pytest.fixture
def tiny_data():
    """A small, separable 4-class dataset (train, test)."""
    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
    return make_synthetic_dataset(spec, 240, 80, np.random.default_rng(0))


@pytest.fixture
def tiny_model_factory(tiny_data):
    train, _ = tiny_data
    features = int(np.prod(train.x.shape[1:]))
    return partial(mlp, features, train.num_classes, hidden=(16,))


@pytest.fixture
def tiny_clients(tiny_data):
    train, _ = tiny_data
    parts = iid_partition(train.y, 6, np.random.default_rng(1))
    return make_clients(train, parts)
