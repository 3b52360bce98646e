"""Tests for the contiguous parameter arenas and the configurable dtype.

Covers the arena contract (layer arrays are live views — identity is
preserved across optimiser steps and flat-weight loads), equivalence of
the fused arena optimisers with the per-array reference loops, dtype
plumbing end to end (model, dataset, client upload, aggregation), engine
snapshot portability across dtypes, and bit-identity of the float64 path with the
pre-arena seed implementation (golden hashes recorded from the seed).
"""

import hashlib
import pickle
from functools import partial

import numpy as np
import pytest

from repro.nn.dtypes import default_dtype, get_default_dtype, set_default_dtype
from repro.nn.layers import BatchNorm1d, Dense, Flatten, ReLU
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.models import mlp, simple_cnn
from repro.nn.optim import SGD, Adam, ProximalSGD
from tests.nn import reference_optim as R


def small_net(rng):
    return Sequential([Dense(6, 10, rng), ReLU(), Dense(10, 4, rng)])


def fill_grads(model, rng):
    for _, g in model.parameters():
        g += rng.normal(size=g.shape)


class TestArenaContract:
    def test_layer_arrays_are_arena_views(self, rng):
        model = small_net(rng)
        arena = model.flat_parameters()
        for p, g in model.parameters():
            assert p.base is not None and np.shares_memory(p, model.flat_state())
            assert g.base is not None and np.shares_memory(g, model.flat_grads())
        # Writing through the arena is visible through the layer dicts.
        arena[...] = 0.0
        assert all(np.all(p == 0) for p, _ in model.parameters())

    def test_optimizer_step_preserves_identity(self, rng):
        model = small_net(rng)
        before = [id(p) for p, _ in model.parameters()]
        before_g = [id(g) for _, g in model.parameters()]
        opt = SGD(model, lr=0.1)
        fill_grads(model, rng)
        opt.step()
        assert [id(p) for p, _ in model.parameters()] == before
        assert [id(g) for _, g in model.parameters()] == before_g
        # The step wrote through the very arrays the layers hold.
        np.testing.assert_array_equal(
            model.get_flat_weights(include_buffers=False),
            model.flat_parameters(),
        )

    def test_set_flat_weights_preserves_identity_and_buffers(self, rng):
        model = Sequential([Dense(4, 4, rng), BatchNorm1d(4), Dense(4, 2, rng)])
        ids = [id(a) for a in model._all_arrays(include_buffers=True)]
        flat = rng.normal(size=model.get_flat_weights().size)
        model.set_flat_weights(flat)
        assert [id(a) for a in model._all_arrays(include_buffers=True)] == ids
        np.testing.assert_allclose(model.get_flat_weights(), flat)

    def test_zero_grad_clears_arena_and_views(self, rng):
        model = small_net(rng)
        fill_grads(model, rng)
        model.zero_grad()
        assert np.all(model.flat_grads() == 0)
        assert all(np.all(g == 0) for _, g in model.parameters())


class TestPickledArenas:
    """A model pickles its value arena once: the layers carry their arrays'
    shapes in place of arena views, and the grad arena is not pickled."""

    def test_a_model_pickles_its_values_once(self, rng):
        model = mlp(64, 10, rng, hidden=(64, 32))
        assert model.num_parameters() == 6570
        # Values, grads and both again as layer views: 4x before.
        assert len(pickle.dumps(model)) < model.flat_state().nbytes + 2048

    def test_an_unpickled_model_is_rebound_and_trains_on_identically(self, rng):
        model = Sequential([Flatten(), Dense(16, 12, rng), BatchNorm1d(12), ReLU(),
                            Dense(12, 4, rng)])
        x, y = rng.normal(size=(8, 16)), rng.integers(0, 4, size=8)

        def step(m):
            opt = SGD(m, lr=0.1)
            m.train_batch(SoftmaxCrossEntropy(), x, y)
            opt.step()

        step(model)
        clone = pickle.loads(pickle.dumps(model))
        np.testing.assert_array_equal(clone.flat_state(), model.flat_state())
        assert not clone.flat_grads().any()
        for layer in clone.layers:
            for arrays, arena in ((layer.params, clone.flat_state()),
                                  (layer.grads, clone.flat_grads()),
                                  (layer.buffers, clone.flat_state())):
                assert all(np.shares_memory(a, arena) for a in arrays.values())
        step(model)
        step(clone)
        np.testing.assert_array_equal(clone.flat_state(), model.flat_state())


class TestFusedOptimizerEquivalence:
    """The arena steps must match the per-array reference loops
    (``tests/nn/reference_optim.py``) bit for bit, in both dtypes."""

    DTYPES = ("float64", "float32")

    def _pair(self, dtype, seed=3):
        with default_dtype(dtype):
            a = small_net(np.random.default_rng(seed))
            b = small_net(np.random.default_rng(seed))
        fill_grads(a, np.random.default_rng(7))
        fill_grads(b, np.random.default_rng(7))
        return a, b

    def _assert_steps_equal(self, arena_opt, reference_opt, a, b, steps, msg=""):
        for _ in range(steps):
            arena_opt.step()
            reference_opt.step()
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(
            a.get_flat_weights(), b.get_flat_weights(), err_msg=msg
        )

    def test_sgd_flat_matches_per_array(self):
        for dtype in self.DTYPES:
            for kwargs in ({}, {"momentum": 0.9}, {"weight_decay": 0.01},
                           {"momentum": 0.5, "weight_decay": 0.02}):
                a, b = self._pair(dtype)
                self._assert_steps_equal(
                    SGD(a, lr=0.05, **kwargs),
                    R.SGD(b.parameters(), lr=0.05, **kwargs),
                    a, b, steps=3, msg=f"{dtype} {kwargs}",
                )

    def test_proximal_flat_matches_per_array(self):
        for dtype in self.DTYPES:
            for kwargs in ({}, {"momentum": 0.5}):
                a, b = self._pair(dtype)
                arena_opt = ProximalSGD(a, lr=0.05, mu=0.1, **kwargs)
                reference_opt = R.ProximalSGD(b.parameters(), lr=0.05, mu=0.1, **kwargs)
                arena_opt.set_anchor(a.flat_parameters())
                reference_opt.set_anchor(b.param_arrays())
                self._assert_steps_equal(
                    arena_opt, reference_opt, a, b, steps=3, msg=f"{dtype} {kwargs}"
                )

    def test_adam_flat_matches_per_array(self):
        for dtype in self.DTYPES:
            a, b = self._pair(dtype)
            self._assert_steps_equal(
                Adam(a, lr=1e-3), R.Adam(b.parameters(), lr=1e-3),
                a, b, steps=4, msg=dtype,
            )


class TestDtypePlumbing:
    def test_float32_model_end_to_end(self, rng):
        with default_dtype("float32"):
            model = simple_cnn(1, 8, 4, np.random.default_rng(0))
            assert model.dtype == np.float32
            assert all(p.dtype == np.float32 for p, _ in model.parameters())
            x = rng.normal(size=(6, 1, 8, 8)).astype(np.float32)
            y = rng.integers(0, 4, size=6)
            from repro.nn.losses import SoftmaxCrossEntropy

            model.zero_grad()
            model.train_batch(SoftmaxCrossEntropy(), x, y)
            assert all(g.dtype == np.float32 for _, g in model.parameters())
            opt = SGD(model, lr=0.05)
            opt.step()
            assert model.get_flat_weights().dtype == np.float32

    def test_initializers_share_rng_stream_across_dtypes(self):
        with default_dtype("float64"):
            w64 = mlp(16, 4, np.random.default_rng(5)).get_flat_weights()
        with default_dtype("float32"):
            w32 = mlp(16, 4, np.random.default_rng(5)).get_flat_weights()
        assert w32.dtype == np.float32
        np.testing.assert_array_equal(w32, w64.astype(np.float32))

    def test_dataset_follows_dtype(self):
        from repro.data.dataset import ArrayDataset

        with default_dtype("float32"):
            ds = ArrayDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2)
            assert ds.x.dtype == np.float32

    def test_client_update_keeps_float32(self):
        from repro.fl.client import ClientUpdate

        u = ClientUpdate(
            client_id=0, weights=np.zeros(5, dtype=np.float32),
            loss_before=1.0, loss_after=0.5, n_samples=3,
        )
        assert u.weights.dtype == np.float32

    def test_client_update_coerces_unsupported_dtypes(self):
        from repro.fl.client import ClientUpdate

        for weights in (np.zeros(4, dtype=np.float16), [0, 1, 2, 3]):
            u = ClientUpdate(client_id=0, weights=weights,
                             loss_before=1.0, loss_after=0.5, n_samples=3)
            assert u.weights.dtype == get_default_dtype()

    def test_decompress_accepts_integer_global_weights(self):
        from repro.fl.client import ClientUpdate
        from repro.fl.wire import WireFormat

        u = ClientUpdate(client_id=0, weights=[0, 0.5, 0, -0.5, 0, 0],
                         loss_before=1.0, loss_after=0.5, n_samples=2)
        wire = WireFormat("topk", base_seed=0, topk_frac=2 / 6)
        restored, _ = wire.transmit(u, 0, [0, 0, 0, 0, 0, 0])
        assert restored.weights.dtype.kind == "f"
        assert restored.weights[1] == pytest.approx(0.5)

    def test_combine_updates_stays_float32(self):
        from repro.fl.client import ClientUpdate
        from repro.fl.strategies.base import combine_updates

        ups = [
            ClientUpdate(client_id=i, weights=np.full(4, float(i), dtype=np.float32),
                         loss_before=1.0, loss_after=0.5, n_samples=2)
            for i in range(3)
        ]
        out = combine_updates(ups, np.full(3, 1.0 / 3.0))
        assert out.dtype == np.float32

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            set_default_dtype("float16")
        assert get_default_dtype() in (np.dtype("float32"), np.dtype("float64"))


class TestForwardSeeding:
    def _dropout_net(self):
        rng = np.random.default_rng(0)
        from repro.nn.layers import Dropout

        return Sequential([
            Flatten(), Dense(4, 8, rng), ReLU(),
            Dropout(0.5, np.random.default_rng(7)), Dense(8, 2, rng),
        ])

    def test_seed_forward_override_and_clear(self):
        model = self._dropout_net()
        drop = model.layers[3]
        x = np.zeros((2, 4))
        model.seed_forward(np.random.default_rng(123))
        own_state = drop.rng.bit_generator.state["state"]["state"]
        model.forward(x, training=True)
        # The override drew the mask; the layer's own generator is untouched.
        assert drop.rng.bit_generator.state["state"]["state"] == own_state
        model.seed_forward(None)
        assert drop._forward_rng is None
        model.forward(x, training=True)
        assert drop.rng.bit_generator.state["state"]["state"] != own_state

    def test_same_override_seed_same_masks(self):
        outs = []
        for _ in range(2):
            model = self._dropout_net()
            model.seed_forward(np.random.default_rng(42))
            outs.append(model.forward(np.ones((3, 4)), training=True))
        np.testing.assert_array_equal(outs[0], outs[1])


class TestCheckpointPortability:
    """Engine snapshots are dtype-portable: ``restore_state`` casts the
    weights into the restoring engine's compute dtype."""

    def _sim(self, seed):
        from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
        from repro.fl.client import make_clients
        from repro.fl.simulation import FederatedSimulation, FLConfig
        from repro.fl.strategies import FedAvg

        spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
        train, _ = make_synthetic_dataset(spec, 40, 8, np.random.default_rng(0))
        clients = make_clients(train, [np.arange(20), np.arange(20, 40)])
        return FederatedSimulation(
            clients, None, partial(mlp, 16, 4, hidden=(8,)), FedAvg(),
            FLConfig(rounds=2, clients_per_round=2, local_epochs=1,
                     batch_size=10, seed=seed),
        )

    def test_float64_checkpoint_loads_into_float32_server(self):
        with default_dtype("float64"), self._sim(seed=1) as src:
            state = src.snapshot_state()
        assert state["global_weights"].dtype == np.float64
        with default_dtype("float32"), self._sim(seed=2) as dst:
            dst.restore_state(state)
        assert dst.global_weights.dtype == np.float32
        np.testing.assert_allclose(
            dst.global_weights, state["global_weights"], rtol=1e-6, atol=1e-7
        )
        assert dst._next_round == state["next_round"]

    def test_float32_checkpoint_loads_into_float64_server(self):
        with default_dtype("float32"), self._sim(seed=3) as src:
            state = src.snapshot_state()
        assert state["global_weights"].dtype == np.float32
        with default_dtype("float64"), self._sim(seed=4) as dst:
            dst.restore_state(state)
        assert dst.global_weights.dtype == np.float64
        np.testing.assert_array_equal(
            dst.global_weights, state["global_weights"].astype(np.float64)
        )


class TestGoldenHistory:
    """The float64 path must be bit-identical to the pre-arena seed.

    Hashes were recorded by running the seed implementation (commit
    ``40a5c5d``) on the same configs; any change to these values means the
    refactor altered float64 numerics.  All three moved once, when every
    generator came to derive from ``repro.runtime.seeding`` (a different
    dataset, partition and initial model).
    """

    GOLDEN = {
        ("fedavg", 6): "840582940d7367a771d37b38fe7d78f19847ab3e2a436663e5e470945c719dfc",
        ("fedprox", 4): "8ed6a060c947c9fab631b2da56c4a83e0118167cb003cc9e825b106321fdae48",
        # Moved once: the DDPG agent computes in float32 and Adam steps in
        # its one-divide form.
        ("feddrl", 4): "bf9a061030c9632119fcd6bd933ddeed06a00ee99e158a4685b4c4812c618d75",
    }

    @pytest.mark.parametrize("method,rounds", sorted(GOLDEN))
    def test_float64_bit_identical_to_seed(self, method, rounds):
        from repro.harness.config import ExperimentConfig
        from repro.harness.runner import build_simulation

        cfg = ExperimentConfig(dataset="mnist", partition="CE", method=method,
                               scale="ci", rounds=rounds, seed=0)
        with build_simulation(cfg) as sim:
            sim.run()
        digest = hashlib.sha256(
            np.ascontiguousarray(sim.global_weights).tobytes()
        ).hexdigest()
        assert digest == self.GOLDEN[(method, rounds)]
