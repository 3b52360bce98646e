"""Shared FL test fixtures: a tiny federated population on synthetic data."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.data.partition import clustered_equal_partition, iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.fl.simulation import FLConfig
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


@pytest.fixture
def skewed_clients(tiny_data):
    train, _ = tiny_data
    parts = clustered_equal_partition(
        train.y, 6, np.random.default_rng(1), delta=0.5, n_clusters=2
    )
    return make_clients(train, parts)


@pytest.fixture
def tiny_fl_config():
    return FLConfig(
        rounds=4, clients_per_round=4, local_epochs=1, lr=0.05,
        batch_size=16, eval_every=1, seed=0,
    )
