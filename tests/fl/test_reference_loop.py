"""The sync engine with every feature off equals the literal FedAvg loop
(``tests/fl/reference_loop.py``) bit for bit."""

from functools import partial

import numpy as np
import pytest

from repro.data.partition import shards_nonequal_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.nn.dtypes import default_dtype
from repro.nn.models import mlp
from tests.fl.reference_loop import reference_fedavg


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_engine_matches_reference_loop(dtype):
    with default_dtype(dtype):
        spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
        train, test = make_synthetic_dataset(spec, 240, 80, np.random.default_rng(0))
        # Unequal shards, so n_k / Σn is not the uniform vector.
        parts = shards_nonequal_partition(train.y, 6, np.random.default_rng(1))
        clients = make_clients(train, parts, seed=2)
        factory = partial(mlp, int(np.prod(train.x.shape[1:])), 4, hidden=(16,))
        cfg = FLConfig(rounds=3, clients_per_round=4, local_epochs=2, lr=0.05,
                       batch_size=16, seed=3)

        expected = reference_fedavg(clients, factory, cfg)
        with FederatedSimulation(clients, test, factory, FedAvg(), cfg) as sim:
            sim.run()

    assert sim.global_weights.dtype == np.dtype(dtype)
    assert expected.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(sim.global_weights, expected)
