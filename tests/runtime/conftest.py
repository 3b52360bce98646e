"""Fixtures for the runtime layer: a tiny population everything can share.

The model factory must be picklable (the process backend ships it to its
workers), so it is a ``functools.partial`` over the module-level ``mlp``.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients


@pytest.fixture
def tiny_data():
    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
    return make_synthetic_dataset(spec, 240, 80, np.random.default_rng(0))


@pytest.fixture
def tiny_model_factory(tiny_data):
    from repro.nn.models import mlp

    train, _ = tiny_data
    features = int(np.prod(train.x.shape[1:]))
    return partial(mlp, features, train.num_classes, hidden=(16,))


@pytest.fixture
def tiny_clients(tiny_data):
    train, _ = tiny_data
    parts = iid_partition(train.y, 6, np.random.default_rng(1))
    return make_clients(train, parts)


@pytest.fixture
def fail_once(monkeypatch, tmp_path):
    """``fail_once(client_id, exc_type)``: the client's next task raises.

    Patches ``repro.runtime.executor._train_one`` — call it *before*
    building the executor, so forked process workers inherit the patch; a
    flag file remembers across processes that the failure already fired.
    """
    import repro.runtime.executor as executor_mod

    def install(client_id: int, exc_type: type = OSError) -> None:
        real_train_one = executor_mod._train_one
        flag = tmp_path / f"failed-{client_id}"

        def flaky_train_one(client, model, loss, ctx, attempt=0, real_crash=False):
            if client.client_id == client_id and not flag.exists():
                flag.touch()
                raise exc_type(f"one-off failure for client {client_id}")
            return real_train_one(client, model, loss, ctx, attempt, real_crash)

        monkeypatch.setattr(executor_mod, "_train_one", flaky_train_one)

    return install
