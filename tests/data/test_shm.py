"""Shared-memory dataset backing for the process backend.

Pickling a shared dataset must ship block names (bytes, not arrays), the
attach path must reproduce the data exactly, and every failure mode must
fall back to plain heap-backed datasets without changing behavior.
"""

import pickle

import numpy as np
import pytest

import repro.data.shm as shm_mod
from repro.data.dataset import ArrayDataset, RowView
from repro.data.shm import (
    SharedArrayDataset,
    SharedMemoryPool,
    share_clients,
    share_dataset,
)

@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(40, 1, 4, 4)), rng.integers(0, 4, 40), 4)


@pytest.fixture
def tiny_clients():
    from functools import partial

    from repro.data.partition import iid_partition
    from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
    from repro.fl.client import make_clients

    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
    train, _ = make_synthetic_dataset(spec, 240, 80, np.random.default_rng(0))
    parts = iid_partition(train.y, 6, np.random.default_rng(1))
    return make_clients(train, parts)


@pytest.fixture
def tiny_model_factory(tiny_clients):
    from functools import partial

    from repro.nn.models import mlp

    features = int(np.prod(tiny_clients[0].dataset.x.shape[1:]))
    return partial(mlp, features, 4, hidden=(16,))


@pytest.fixture
def pool():
    p = SharedMemoryPool()
    yield p
    p.close()


class TestShareDataset:
    def test_contents_preserved(self, dataset, pool):
        shared, blocks = share_dataset(dataset)
        pool.adopt(blocks)
        assert isinstance(shared, SharedArrayDataset)
        assert len(blocks) == 2
        np.testing.assert_array_equal(shared.x, dataset.x)
        np.testing.assert_array_equal(shared.y, dataset.y)
        assert shared.num_classes == dataset.num_classes

    def test_pickle_ships_names_not_arrays(self, dataset, pool):
        shared, blocks = share_dataset(dataset)
        pool.adopt(blocks)
        blob = pickle.dumps(shared)
        assert len(blob) < 512  # block names + shapes; raw x alone is >5KB
        attached = pickle.loads(blob)
        assert isinstance(attached, SharedArrayDataset)
        np.testing.assert_array_equal(attached.x, dataset.x)
        np.testing.assert_array_equal(attached.y, dataset.y)
        # Same pages: a write through one view is visible through the other.
        attached.x[0, 0, 0, 0] = 123.0
        assert shared.x[0, 0, 0, 0] == 123.0

    def test_subset_is_a_row_view_of_shared_memory(self, dataset, pool):
        shared, blocks = share_dataset(dataset)
        pool.adopt(blocks)
        sub = shared.subset(np.arange(5, 15)).subset(np.array([4, 0, 2]))
        assert type(sub) is RowView and sub.parent is shared
        np.testing.assert_array_equal(sub.rows, [9, 5, 7])
        np.testing.assert_array_equal(sub.x, dataset.x[[9, 5, 7]])
        # x is a gathered copy: a write must fail, not vanish.
        with pytest.raises(ValueError):
            sub.x[...] = -1.0
        # Pickled: block names plus rows; the copy maps the same pages.
        blob = pickle.dumps(sub)
        assert len(blob) < 1024
        attached = pickle.loads(blob)
        assert isinstance(attached.parent, SharedArrayDataset)
        shared.x[9, 0, 0, 0] = 321.0
        assert attached.x[0, 0, 0, 0] == 321.0

    def test_sharing_twice_is_a_noop(self, dataset, pool):
        shared, blocks = share_dataset(dataset)
        pool.adopt(blocks)
        again, more = share_dataset(shared)
        assert again is shared
        assert more == []

    def test_batches_work_from_shared_memory(self, dataset, pool):
        shared, blocks = share_dataset(dataset)
        pool.adopt(blocks)
        batches = list(shared.batches(16))
        ref = list(dataset.batches(16))
        assert len(batches) == len(ref)
        for (xb, yb), (xr, yr) in zip(batches, ref):
            np.testing.assert_array_equal(xb, xr)
            np.testing.assert_array_equal(yb, yr)

    def test_pool_close_unlinks_and_is_idempotent(self, dataset):
        shared, blocks = share_dataset(dataset)
        pool = SharedMemoryPool()
        pool.adopt(blocks)
        name = blocks[0].name
        pool.close()
        pool.close()  # idempotent
        assert pool.n_blocks == 0
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestFallback:
    def test_creation_failure_passes_through(self, dataset, monkeypatch):
        class Broken:
            def __init__(self, *args, **kwargs):
                raise OSError("no /dev/shm")

        monkeypatch.setattr(shm_mod.shared_memory, "SharedMemory", Broken)
        shared, blocks = share_dataset(dataset)
        assert shared is dataset
        assert blocks == []


class TestShareClients:
    def test_one_block_pair_for_every_view_of_a_set(self, tiny_clients):
        shared, pool = share_clients(tiny_clients)
        try:
            assert len(shared) == len(tiny_clients)
            assert pool.n_blocks == 2
            parents = {id(clone.dataset.parent) for clone in shared}
            assert len(parents) == 1
            for orig, clone in zip(tiny_clients, shared):
                assert clone.client_id == orig.client_id
                assert isinstance(clone.dataset.parent, SharedArrayDataset)
                np.testing.assert_array_equal(clone.dataset.rows, orig.dataset.rows)
                # Originals keep their views of the heap-backed set.
                assert type(orig.dataset.parent) is ArrayDataset
                np.testing.assert_array_equal(clone.dataset.x, orig.dataset.x)
            # One pickle of every client carries the set's names once.
            assert len(pickle.dumps(shared)) < 8 * 240 + 4096
        finally:
            pool.close()

    def test_whole_datasets_and_shared_sets(self, dataset, tiny_clients):
        from repro.fl.client import Client

        whole = Client(99, dataset)
        shared, pool = share_clients([whole, *tiny_clients])
        try:
            assert pool.n_blocks == 4
            assert isinstance(shared[0].dataset, SharedArrayDataset)
            np.testing.assert_array_equal(shared[0].dataset.x, dataset.x)
            # Already shared: passed through, nothing new created.
            again, more = share_clients(shared)
            assert more.n_blocks == 0
            assert all(a is b for a, b in zip(again, shared))
        finally:
            pool.close()


class TestProcessExecutorIntegration:
    def test_sixteen_clients_share_two_blocks(self, tiny_model_factory):
        from repro.data.partition import iid_partition
        from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
        from repro.fl.client import make_clients
        from repro.runtime.executor import ProcessExecutor

        spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
        train, _ = make_synthetic_dataset(spec, 320, 80, np.random.default_rng(0))
        parts = iid_partition(train.y, 16, np.random.default_rng(1))
        clients = make_clients(train, parts)
        executor = ProcessExecutor(clients, tiny_model_factory, workers=2)
        try:
            assert executor._shm_pool.n_blocks == 2
            names = [block.name for block in executor._shm_pool._blocks]
        finally:
            executor.close()
        assert executor._shm_pool.n_blocks == 0
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
