"""Tests for the dataset container."""

import numpy as np
import pytest

from repro.data.dataset import GATHER_ROWS, ArrayDataset
from repro.fl.client import Client
from repro.nn.models import mlp


def toy(n=20, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.normal(size=(n, 2, 3, 3)), rng.integers(0, classes, n), classes)


class TestArrayDataset:
    def test_len(self):
        assert len(toy(17)) == 17

    def test_subset_selects(self):
        ds = toy(10)
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.y, ds.y[[1, 3, 5]])
        np.testing.assert_array_equal(sub.x, ds.x[[1, 3, 5]])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((5, 2)), np.zeros(4, dtype=int), 2)

    def test_out_of_range_labels_raise(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3)
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.array([0, -1, 1]), 3)

    def test_2d_labels_raise(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros((3, 1), dtype=int), 2)

    def test_labels_coerced_to_int64(self):
        ds = ArrayDataset(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]), 2)
        assert ds.y.dtype == np.int64


class TestBatches:
    def test_covers_all_samples_once(self):
        ds = toy(23)
        seen = []
        for xb, yb in ds.batches(5):
            assert xb.shape[0] == yb.shape[0]
            seen.extend(yb.tolist())
        assert len(seen) == 23

    def test_unshuffled_is_in_order(self):
        ds = toy(10)
        batches = list(ds.batches(4))
        np.testing.assert_array_equal(np.concatenate([y for _, y in batches]), ds.y)

    def test_shuffled_is_permutation(self):
        ds = toy(50)
        rng = np.random.default_rng(1)
        ys = np.concatenate([y for _, y in ds.batches(7, rng=rng)])
        assert sorted(ys.tolist()) == sorted(ds.y.tolist())
        assert not np.array_equal(ys, ds.y)  # astronomically unlikely to match

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(toy().batches(0))

    def test_last_batch_may_be_short(self):
        sizes = [xb.shape[0] for xb, _ in toy(10).batches(4)]
        assert sizes == [4, 4, 2]


def _reference_batches(ds, batch_size, rng):
    """The per-batch gather ``batches`` used to do, as the oracle."""
    n = len(ds)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.x[idx], ds.y[idx]


class TestChunkedGather:
    @pytest.mark.parametrize("n,batch_size", [
        (200, 10),                  # one chunk, whole batches
        (23, 5),                    # ragged tail
        (2 * GATHER_ROWS + 37, 10), # several chunks (250 rows each) and a ragged tail
        (GATHER_ROWS + 50, GATHER_ROWS + 20),  # a batch larger than the chunk
        (7, 1),
    ])
    @pytest.mark.parametrize("shuffle", [True, False], ids=["rng", "rng-none"])
    def test_same_batches_as_the_per_batch_gather(self, n, batch_size, shuffle):
        ds = toy(n)
        rngs = [np.random.default_rng(5) if shuffle else None for _ in range(2)]
        got = list(ds.batches(batch_size, rng=rngs[0]))
        want = list(_reference_batches(ds, batch_size, rngs[1]))
        assert len(got) == len(want) == -(-n // batch_size)
        for (xb, yb), (xr, yr) in zip(got, want):
            assert xb.dtype == xr.dtype and yb.dtype == yr.dtype
            assert np.array_equal(xb, xr) and np.array_equal(yb, yr)
        if shuffle:  # both consumed the generator identically
            assert rngs[0].random() == rngs[1].random()

    def test_holds_one_chunk_not_a_copy_of_the_set(self):
        ds = toy(3 * GATHER_ROWS)
        for xb, _ in ds.batches(10, rng=np.random.default_rng(0)):
            assert xb.base is not None and xb.base.shape[0] <= GATHER_ROWS
            assert not np.shares_memory(xb, ds.x)

    def test_training_does_not_write_into_the_batches(self, monkeypatch):
        """Batches are slices of one gathered chunk: a consumer writing into
        one would corrupt its neighbours.  Run a client's local training on
        read-only batches."""
        ds = toy(40, classes=4)
        batches = ArrayDataset.batches

        def frozen(self, batch_size, rng=None):
            for xb, yb in batches(self, batch_size, rng=rng):
                xb.flags.writeable = False
                yb.flags.writeable = False
                yield xb, yb

        monkeypatch.setattr(ArrayDataset, "batches", frozen)
        model = mlp(18, 4, np.random.default_rng(0), hidden=(8,))
        update = Client(0, ds).local_train(
            model, model.get_flat_weights(), epochs=2, batch_size=8, lr=0.05,
            rng=np.random.default_rng(1),
        )
        assert np.all(np.isfinite(update.weights))
