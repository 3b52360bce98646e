"""One copy of the training set: streamed synthesis and row-view shards.

``ArrayDataset.subset`` returns a :class:`RowView` (the parent's arrays
plus row indices) instead of a copy, and synthesis writes the set into
its compute-dtype array a chunk at a time.  Both must be invisible to
everything downstream: a view answers exactly as the copied subset did
(``reference_dataset.copying_subset``), the named stand-ins equal the
old whole-array draw bit for bit, and the build holds the set once.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.synthetic as synthetic
from repro.data.dataset import GATHER_ROWS, ArrayDataset, RowView
from repro.fl.client import make_clients
from repro.harness.config import ExperimentConfig
from repro.runtime.seeding import STREAM_DATASET, STREAM_PARTITION, run_rng
from repro.harness.runner import build_dataset, build_partition
from repro.nn.dtypes import default_dtype
from tests.data import reference_dataset as R

DTYPES = ("float32", "float64")


def assert_same_dataset(view, ref, batch_size, seed):
    assert len(view) == len(ref)
    assert view.x.dtype == ref.x.dtype and view.y.dtype == ref.y.dtype
    np.testing.assert_array_equal(view.x, ref.x)
    np.testing.assert_array_equal(view.y, ref.y)
    np.testing.assert_array_equal(np.bincount(view.y, minlength=view.num_classes),
                                  np.bincount(ref.y, minlength=ref.num_classes))
    for rng_seed in (None, seed):
        rngs = [None if rng_seed is None else np.random.default_rng(rng_seed)
                for _ in range(2)]
        got = list(view.batches(batch_size, rng=rngs[0]))
        want = list(ref.batches(batch_size, rng=rngs[1]))
        assert len(got) == len(want)
        for (xb, yb), (xr, yr) in zip(got, want):
            assert xb.dtype == xr.dtype
            np.testing.assert_array_equal(xb, xr)
            np.testing.assert_array_equal(yb, yr)


@st.composite
def nested_subsets(draw):
    n = draw(st.integers(1, 2 * GATHER_ROWS + 40))
    outer = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    inner = draw(st.lists(st.integers(0, len(outer) - 1), min_size=1,
                          max_size=len(outer)))
    return n, np.array(outer), np.array(inner)


class TestRowViewMatchesCopy:
    @settings(max_examples=60, deadline=None)
    @given(case=nested_subsets(), dtype=st.sampled_from(DTYPES),
           batch_size=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_view_and_nested_view(self, case, dtype, batch_size, seed):
        n, outer, inner = case
        rng = np.random.default_rng(seed)
        with default_dtype(dtype):
            ds = ArrayDataset(rng.normal(size=(n, 2, 3)), rng.integers(0, 5, n), 5)
            view, ref = ds.subset(outer), R.copying_subset(ds, outer)
            assert_same_dataset(view, ref, batch_size, seed)
            nested, nested_ref = view.subset(inner), R.copying_subset(ref, inner)
            assert nested.parent is ds  # composed rows, not a view of a view
            assert_same_dataset(nested, nested_ref, batch_size, seed)

    def test_views_hold_rows_not_data(self):
        ds = ArrayDataset(np.arange(40.0).reshape(20, 2), np.arange(20) % 3, 3)
        view = ds.subset(np.array([3, 1, 4]))
        assert type(view) is RowView and view.parent is ds
        assert not np.shares_memory(view.x, ds.x)  # x is a gathered copy
        with pytest.raises(ValueError):
            view.x[0, 0] = -1.0  # ... so it refuses writes that would vanish
        np.testing.assert_array_equal(view.subset([True, False, True]).rows, [3, 4])


class TestStreamedSynthesis:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("factory,kwargs", [
        (synthetic.mnist_like, dict(n_train=5000, n_test=333)),   # 2048-row chunks
        (synthetic.fashion_like, dict(n_train=1000, n_test=77, image_size=32)),
        (synthetic.cifar100_like, dict(n_train=1500, n_test=701)),  # 682-row chunks
    ])
    def test_stand_ins_equal_the_whole_array_draw(self, monkeypatch, dtype, factory, kwargs):
        specs = []
        real = synthetic.make_synthetic_dataset

        def spy(spec, *args):
            specs.append(spec)
            return real(spec, *args)

        monkeypatch.setattr(synthetic, "make_synthetic_dataset", spy)
        seed = 7
        with default_dtype(dtype):
            got = factory(seed=seed, **kwargs)
            want = R.make_synthetic_dataset(
                specs[0], kwargs["n_train"], kwargs["n_test"], run_rng(seed, STREAM_DATASET))
        for a, b in zip(got, want):
            assert a.x.dtype == b.x.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)

    def test_chunked_normal_draws_are_one_draw(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        whole = a.normal(scale=0.5, size=(10, 3))
        parts = np.concatenate([b.normal(scale=0.5, size=(k, 3)) for k in (4, 4, 2)])
        np.testing.assert_array_equal(whole, parts)


class TestOneCopy:
    # The sync_mlp_serial benchmark workload's data build.
    CFG = dict(scale="bench", method="fedavg", dataset="cifar100",
               partition="EQUAL", n_clients=100, clients_per_round=20,
               n_train=20000, n_test=2000)

    def test_build_peaks_near_the_data_size(self):
        cfg = ExperimentConfig(**self.CFG)
        tracemalloc.start()
        try:
            train, test = build_dataset(cfg)
            parts = build_partition(cfg, train.y, run_rng(cfg.seed, STREAM_PARTITION))
            clients = make_clients(train, parts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = train.x.nbytes + train.y.nbytes + test.x.nbytes + test.y.nbytes
        assert len(clients) == 100
        assert peak <= 1.15 * data, f"peak {peak / data:.3f}x the data"

    def test_clients_share_the_train_set(self):
        cfg = ExperimentConfig(**{**self.CFG, "n_train": 2000, "n_test": 200})
        train, _ = build_dataset(cfg)
        parts = build_partition(cfg, train.y, run_rng(cfg.seed, STREAM_PARTITION))
        pool = make_clients(train, parts)
        for client, idx in zip(pool.ensure(range(len(pool))), parts):
            assert np.shares_memory(client.dataset.parent.x, train.x)
            np.testing.assert_array_equal(client.dataset.rows, idx)
