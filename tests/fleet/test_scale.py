"""Lazy client materialization (repro.fleet.scale).

Acceptance for the fleet scale-out: a lazily materialized population
produces a History bit-identical to the eager client list it replaces —
same shards, same per-client RNG derivation, same weights — while only
ever holding the sampled participants resident.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.fleet.scale import (
    LazyClientPool,
    StridedPartition,
    is_client_provider,
)
from repro.nn.models import mlp
from repro.runtime.executor import RoundContext, make_executor



def small_data(n_train=256, n_test=64):
    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
    return make_synthetic_dataset(spec, n_train, n_test, np.random.default_rng(0))


class TestStridedPartition:
    def test_shards_wrap_and_are_deterministic(self):
        parts = StridedPartition(n_samples=10, n_clients=4, per_client=6)
        np.testing.assert_array_equal(parts[0], [0, 1, 2, 3, 4, 5])
        np.testing.assert_array_equal(parts[1], [6, 7, 8, 9, 0, 1])
        assert len(parts) == 4
        assert parts.size(2) == 6
        np.testing.assert_array_equal(parts.shard_sizes, [6, 6, 6, 6])

    def test_custom_stride(self):
        parts = StridedPartition(n_samples=8, n_clients=3, per_client=2, stride=3)
        np.testing.assert_array_equal(parts[2], [6, 7])

    def test_validation(self):
        with pytest.raises(ValueError):
            StridedPartition(0, 4, 2)
        with pytest.raises(ValueError):
            StridedPartition(8, 0, 2)
        with pytest.raises(ValueError):
            StridedPartition(8, 4, 0)
        with pytest.raises(IndexError):
            StridedPartition(8, 4, 2)[4]


class TestLazyClientPool:
    def test_matches_eager_make_clients(self):
        train, _ = small_data()
        parts = [np.arange(i * 8, (i + 1) * 8) for i in range(6)]
        eager = make_clients(train, parts)
        pool = LazyClientPool(train, parts)
        for cid in (0, 3, 5):
            lazy = pool[cid]
            np.testing.assert_array_equal(lazy.dataset.x, eager[cid].dataset.x)
            np.testing.assert_array_equal(lazy.dataset.y, eager[cid].dataset.y)

    def test_provider_protocol_and_residency(self):
        train, _ = small_data()
        pool = LazyClientPool(train, StridedPartition(len(train), 100, per_client=8))
        assert is_client_provider(pool)
        assert not is_client_provider([])
        assert len(pool) == 100
        # Size queries never materialize anything.
        assert pool.n_samples(42) == 8
        np.testing.assert_array_equal(pool.shard_sizes, np.full(100, 8))
        assert pool.materialized == 0
        pool.ensure([3, 7])
        assert pool.materialized == 2
        pool.release([3])
        assert pool.materialized == 1
        pool.release()
        assert pool.materialized == 0

    def test_iteration_is_rejected(self):
        train, _ = small_data()
        pool = LazyClientPool(train, StridedPartition(len(train), 50, per_client=4))
        with pytest.raises(TypeError):
            list(pool)

    def test_shared_memory_backing_is_transparent(self):
        train, _ = small_data()
        parts = StridedPartition(len(train), 20, per_client=8)
        plain = LazyClientPool(train, parts)
        shared = LazyClientPool(train, parts, share=True)
        try:
            np.testing.assert_array_equal(
                shared[4].dataset.x, plain[4].dataset.x
            )
        finally:
            shared.close()
        assert shared.materialized == 0

    def test_pickles_without_cache_or_block_ownership(self):
        train, _ = small_data()
        parts = StridedPartition(len(train), 20, per_client=8)
        pool = LazyClientPool(train, parts, share=True)
        try:
            pool.ensure([1, 2])
            blob = pickle.dumps(pool)
            assert len(blob) < 2048  # block names, parts, seed
            clone = pickle.loads(blob)
            assert clone.materialized == 0 and not clone.shared
            np.testing.assert_array_equal(clone[4].dataset.x, pool[4].dataset.x)
            # A worker's close must not unlink the owner's blocks: the
            # names still attach afterwards.
            clone.close()
            np.testing.assert_array_equal(
                pickle.loads(blob)[7].dataset.x, pool[7].dataset.x
            )
        finally:
            pool.close()

    def test_process_backend_trains_a_lazy_pool(self):
        train, _ = small_data()
        parts = StridedPartition(len(train), 10, per_client=8)
        factory = partial(mlp, 16, 4, hidden=(8,))
        model = factory(np.random.default_rng(0))
        ctx = RoundContext(round_idx=0, global_weights=model.get_flat_weights(),
                           epochs=1, lr=0.1, batch_size=4, base_seed=3)
        ids = [7, 2, 5]
        with make_executor("serial", make_clients(
                train, [parts[i] for i in range(10)]), factory) as ex:
            want = ex.run_round(ctx, ids)
        pool = LazyClientPool(train, parts, share=True)
        try:
            with make_executor("process", pool, factory, workers=2) as ex:
                got = ex.run_round(ctx, ids)
        finally:
            pool.close()
        for a, b in zip(got, want):
            assert a.client_id == b.client_id
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.loss_before, a.loss_after) == (b.loss_before, b.loss_after)

    def test_empty_partition_rejected(self):
        train, _ = small_data()
        with pytest.raises(ValueError):
            LazyClientPool(train, [])


class TestLazyEagerBitIdentity:
    """Acceptance: 10k-client fleet, K=16 — lazy History bit-identical
    to eager, on the serial and thread backends."""

    N_CLIENTS = 10_000
    K = 16

    def _run(self, clients, train, test, backend):
        features = int(np.prod(train.x.shape[1:]))
        factory = partial(mlp, features, train.num_classes, hidden=(8,))
        cfg = FLConfig(rounds=2, clients_per_round=self.K, local_epochs=1,
                       lr=0.1, batch_size=8, eval_every=1, seed=3)
        executor = None
        if backend != "serial":
            executor = make_executor(backend, clients, factory, workers=2)
        sim = FederatedSimulation(clients, test, factory, FedAvg(), cfg,
                                  executor=executor)
        hist = sim.run()
        weights = sim.global_weights.copy()
        sim.close()
        return hist, weights

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_history_bit_identical(self, backend):
        train, test = small_data()
        parts = StridedPartition(len(train), self.N_CLIENTS, per_client=8)
        eager = make_clients(train, [parts[i] for i in range(self.N_CLIENTS)])
        pool = LazyClientPool(train, parts)
        ref_hist, ref_w = self._run(eager, train, test, backend)
        hist, w = self._run(pool, train, test, backend)
        np.testing.assert_array_equal(w, ref_w)
        assert hist.accuracy_series() == ref_hist.accuracy_series()
        for got, ref in zip(hist.records, ref_hist.records):
            assert got.participants == ref.participants
            np.testing.assert_array_equal(got.impact_factors, ref.impact_factors)
            np.testing.assert_array_equal(
                got.client_losses_after, ref.client_losses_after
            )
        # The round's participants were released after aggregation.
        assert pool.materialized == 0


class TestLazyProcessHarness:
    """The lazy + process combination end to end: a 200-client CI config
    gives one history on lazy + process, lazy + serial and eager + serial,
    and the process run leaves no shared-memory block behind."""

    def test_history_digest_matches_serial_and_eager(self):
        import os

        from repro.harness import ExperimentConfig, run_experiment
        from repro.harness.reporting import history_digest

        def live_blocks():
            try:
                return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
            except FileNotFoundError:
                return set()

        base = ExperimentConfig(
            scale="ci", n_clients=200, clients_per_round=10, partition="IID",
            n_train=2000, rounds=3, local_epochs=1,
        )
        before = live_blocks()
        digests = {
            (mode, backend): history_digest(run_experiment(base.with_(
                fleet_mode=mode, backend=backend, workers=2)).history)
            for mode, backend in (("lazy", "process"), ("lazy", "serial"),
                                  ("eager", "serial"))
        }
        assert len(set(digests.values())) == 1, digests
        assert live_blocks() == before
