"""The client population (repro.fleet.scale).

Every run's clients are a :class:`LazyClientPool`: client ``cid`` is built
from its partition entry only when a round needs it — poisoned first when
the run's data attack made it malicious — and released after the round,
so a 10k-client fleet holds only the sampled participants resident and
every backend trains the same shards.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.fl.robust.attacks import AttackModel
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.fleet.scale import LazyClientPool, StridedPartition
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
    def test_make_clients_builds_row_views_of_the_partition(self):
        train, _ = small_data()
        parts = [np.arange(i * 8, (i + 1) * 8)[::-1] for i in range(6)]
        pool = make_clients(train, parts)
        assert isinstance(pool, LazyClientPool) and len(pool) == 6
        for cid in (0, 3, 5):
            client = pool[cid]
            assert client.client_id == cid and client.dataset.parent is train
            np.testing.assert_array_equal(client.dataset.x, train.x[parts[cid]])
            np.testing.assert_array_equal(client.dataset.y, train.y[parts[cid]])

    def test_provider_protocol_and_residency(self):
        train, _ = small_data()
        pool = LazyClientPool(train, StridedPartition(len(train), 100, per_client=8))
        assert len(pool) == 100
        # Size queries never materialize anything.
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
        shared = LazyClientPool(train, parts)
        shared.share()
        try:
            assert shared.shared
            np.testing.assert_array_equal(
                shared[4].dataset.x, plain[4].dataset.x
            )
        finally:
            shared.close()
        assert shared.materialized == 0 and not shared.shared
        np.testing.assert_array_equal(shared[4].dataset.x, plain[4].dataset.x)

    def test_pickles_without_cache_or_block_ownership(self):
        train, _ = small_data()
        parts = StridedPartition(len(train), 20, per_client=8)
        pool = LazyClientPool(train, parts)
        pool.share()
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

    def test_process_backend_trains_the_pool(self, live_blocks):
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
        pool = make_clients(train, parts)
        with make_executor("process", pool, factory, workers=2) as ex:
            assert pool.shared
            got = ex.run_round(ctx, ids)
        # The executor shared the pool's base set and unlinked it on close.
        assert not pool.shared and not live_blocks()
        for a, b in zip(got, want):
            assert a.client_id == b.client_id
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.loss_before, a.loss_after) == (b.loss_before, b.loss_after)

    def test_empty_partition_rejected(self):
        train, _ = small_data()
        with pytest.raises(ValueError):
            LazyClientPool(train, [])


class TestPoisonedShards:
    """A data attack poisons a malicious client's shard as the pool builds
    the client: a pure function of the seed and the id, so every rebuild —
    in the parent or in a worker — holds the same bits."""

    @pytest.mark.parametrize("name", ["label_flip", "backdoor"])
    def test_malicious_shards_are_poisoned_on_every_build(self, name):
        train, _ = small_data()
        parts = StridedPartition(len(train), 16, per_client=8)
        attack = AttackModel(name, 16, malicious_fraction=0.25, seed=5,
                             poison_fraction=0.5)
        pool = make_clients(train, parts, attack)
        clean = make_clients(train, parts)
        bad = min(attack.malicious)
        good = min(set(range(16)) - attack.malicious)
        want = attack.poison_dataset(bad, train.subset(parts[bad]))
        first = pool[bad].dataset
        assert not np.array_equal(first.y, clean[bad].dataset.y)
        np.testing.assert_array_equal(first.x, want.x)
        np.testing.assert_array_equal(first.y, want.y)
        pool.release()
        for rebuilt in (pool[bad].dataset, pickle.loads(pickle.dumps(pool))[bad].dataset):
            np.testing.assert_array_equal(rebuilt.x, first.x)
            np.testing.assert_array_equal(rebuilt.y, first.y)
        assert pool[good].dataset.parent is train
        np.testing.assert_array_equal(pool[good].dataset.x, clean[good].dataset.x)

    def test_update_attacks_leave_shards_alone(self):
        train, _ = small_data()
        parts = StridedPartition(len(train), 16, per_client=8)
        attack = AttackModel("sign_flip", 16, malicious_fraction=0.25, seed=5)
        pool = make_clients(train, parts, attack)
        assert all(pool[cid].dataset.parent is train for cid in attack.malicious)


class TestFleetScale:
    """Acceptance: a 10k-client fleet, K=16 — serial and thread give one
    History, and only a round's participants are ever resident."""

    N_CLIENTS = 10_000
    K = 16

    def _run(self, train, test, backend):
        parts = StridedPartition(len(train), self.N_CLIENTS, per_client=8)
        pool = make_clients(train, parts)
        features = int(np.prod(train.x.shape[1:]))
        factory = partial(mlp, features, train.num_classes, hidden=(8,))
        cfg = FLConfig(rounds=2, clients_per_round=self.K, local_epochs=1,
                       lr=0.1, batch_size=8, eval_every=1, seed=3)
        executor = None
        if backend != "serial":
            executor = make_executor(backend, pool, factory, workers=2)
        resident = []
        ensure = pool.ensure

        def counting_ensure(ids):
            out = ensure(ids)
            resident.append(pool.materialized)
            return out

        pool.ensure = counting_ensure
        sim = FederatedSimulation(pool, test, factory, FedAvg(), cfg,
                                  executor=executor)
        hist = sim.run()
        weights = sim.global_weights.copy()
        sim.close()
        assert resident and max(resident) <= self.K
        # The round's participants were released after aggregation.
        assert pool.materialized == 0
        return hist, weights

    def test_backends_give_one_history(self):
        train, test = small_data()
        ref_hist, ref_w = self._run(train, test, "serial")
        hist, w = self._run(train, test, "thread")
        np.testing.assert_array_equal(w, ref_w)
        assert hist.accuracy_series() == ref_hist.accuracy_series()
        for got, ref in zip(hist.records, ref_hist.records):
            assert got.participants == ref.participants
            np.testing.assert_array_equal(got.impact_factors, ref.impact_factors)
            np.testing.assert_array_equal(
                got.client_losses_after, ref.client_losses_after
            )


class TestProcessHarness:
    """The pool on the process backend end to end: a 200-client CI config
    gives the serial history, and the process run leaves none of its
    shared-memory blocks behind."""

    def test_history_digest_matches_serial(self, live_blocks):
        from repro.harness import ExperimentConfig, run_experiment
        from repro.harness.reporting import history_digest

        base = ExperimentConfig(
            scale="ci", n_clients=200, clients_per_round=10, partition="IID",
            n_train=2000, rounds=3, local_epochs=1,
        )
        digests = {
            backend: history_digest(run_experiment(base.with_(
                backend=backend, workers=2)).history)
            for backend in ("process", "serial")
        }
        assert len(set(digests.values())) == 1, digests
        assert not live_blocks()
