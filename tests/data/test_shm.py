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
from repro.data.shm import SharedArrayDataset, SharedMemoryPool, share_dataset


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


class TestPoolShare:
    def test_one_block_pair_and_views_over_the_same_rows(self, tiny_clients, live_blocks):
        heap = [tiny_clients[cid].dataset for cid in range(len(tiny_clients))]
        tiny_clients.share()
        try:
            assert tiny_clients.shared and len(live_blocks()) == 2
            shared = tiny_clients.train_set
            assert isinstance(shared, SharedArrayDataset)
            for cid, before in enumerate(heap):
                view = tiny_clients[cid].dataset
                assert type(view) is RowView and view.parent is shared
                assert type(before.parent) is ArrayDataset
                np.testing.assert_array_equal(view.rows, before.rows)
                np.testing.assert_array_equal(view.x, before.x)
                np.testing.assert_array_equal(view.y, before.y)
            # Sharing again makes nothing new.
            tiny_clients.share()
            assert tiny_clients.train_set is shared and len(live_blocks()) == 2
            # A pickle of the pool carries the set's names, not its arrays.
            assert len(pickle.dumps(tiny_clients)) < 8 * 240 + 4096
        finally:
            tiny_clients.close()
        assert not tiny_clients.shared and not live_blocks()

    def test_a_closed_pool_keeps_its_values_and_pickles_them(self, tiny_clients):
        tiny_clients.share()
        x = tiny_clients[3].dataset.x
        tiny_clients.close()
        assert type(tiny_clients.train_set) is ArrayDataset
        clone = pickle.loads(pickle.dumps(tiny_clients))
        np.testing.assert_array_equal(clone[3].dataset.x, x)
        np.testing.assert_array_equal(tiny_clients[3].dataset.x, x)

    def test_without_shared_memory_the_heap_set_stays(self, tiny_clients, monkeypatch):
        heap = tiny_clients.train_set

        def no_shm(shape, dtype):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(shm_mod, "create_array", no_shm)
        tiny_clients.share()
        assert not tiny_clients.shared and tiny_clients.train_set is heap


class TestProcessExecutorIntegration:
    def test_sixteen_clients_share_two_blocks(self, tiny_model_factory, live_blocks):
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
            assert clients.shared and len(live_blocks()) == 2
        finally:
            executor.close()
        assert not clients.shared and not live_blocks()
