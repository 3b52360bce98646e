"""The checkpoint path borrows live state and serializes it once.

``snapshot_state()`` stays a self-contained deep copy; what the engines
hand ``Checkpointer.step`` is the same state by reference, pickled
straight into the file before the engine advances.  These tests pin the
contract on the ``fedbuff_full`` shape in miniature — lazy clients, markov
fleet, hier fold, ``topk+qsgd8`` with error feedback — for both engines:
no pickle round trip on the checkpoint path, file == ``snapshot_state()``,
resumed digests match, and the idle column dispatches exactly like the sorted-set pool it replaced.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.async_ import AsyncFederatedServer
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.fl.wire import WireFormat
from repro.fleet import ColumnarAvailability, FleetSimulator
from repro.fleet.scale import LazyClientPool
from repro.harness.reporting import history_digest
from repro.nn.models import mlp
from repro.runtime import VirtualClock
from repro.runtime.checkpoint import Checkpointer, load_snapshot
from repro.runtime.seeding import STREAM_DISPATCH, run_rng

ENGINES = ("sync", "fedbuff")


def build_engine(engine: str, n_clients: int = 12, dispatch: str = "random"):
    """fedbuff_full in miniature, on either scheduler."""
    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
    train, test = make_synthetic_dataset(spec, 240, 80, np.random.default_rng(0))
    parts = iid_partition(train.y, n_clients, np.random.default_rng(1))
    availability = ColumnarAvailability(
        "markov", n_clients=n_clients, seed=31, offline_fraction=0.3)
    args = (
        LazyClientPool(train, parts), test,
        partial(mlp, 16, train.num_classes, hidden=(16,)), FedAvg(),
        FLConfig(rounds=6, clients_per_round=6, local_epochs=1, lr=0.05,
                 batch_size=8, eval_every=1, seed=0),
    )
    common = dict(
        clock=VirtualClock("lognormal", n_clients, seed=23,
                           straggler_fraction=0.3, straggler_slowdown=8.0),
        fleet=FleetSimulator(n_clients, availability, seed=31, dropout_prob=0.1),
        wire=WireFormat("topk+qsgd8", 0, topk_frac=0.1),
        topology="hier", n_edges=3,
    )
    if engine == "sync":
        return FederatedSimulation(*args, **common)
    return AsyncFederatedServer(
        *args, buffer_size=4, max_concurrency=6,
        server_mix="delta", dispatch=dispatch, **common)


def clean_digest(engine: str) -> str:
    with build_engine(engine) as sim:
        return history_digest(sim.run())


class _Stop(Exception):
    """Stands in for a kill right after a save."""


class _StopAfter(Checkpointer):
    """The real checkpointer, interrupted after ``n`` saves; optionally
    also takes ``snapshot_state()`` at the last save for comparison."""

    def __init__(self, path: str, n: int, sim=None) -> None:
        super().__init__(path)
        self.n, self.sim, self.reference = n, sim, None

    def step(self, state_fn) -> bool:
        saved = super().step(state_fn)
        if self.saves >= self.n:
            if self.sim is not None:
                self.reference = self.sim.snapshot_state()
            raise _Stop
        return saved


def assert_state_equal(a, b, where: str = "state") -> None:
    """Deep equality, key by key and array by array."""
    assert type(a) is type(b), f"{where}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, where
        np.testing.assert_array_equal(a, b, err_msg=where)
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{where}: keys differ"
        for k in a:
            assert_state_equal(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{where}[{i}]")
    elif isinstance(a, np.random.Generator):
        assert_state_equal(a.bit_generator.state, b.bit_generator.state, where)
    elif hasattr(a, "__dict__"):
        assert_state_equal(vars(a), vars(b), f"{where}.{type(a).__name__}")
    else:
        assert a == b, where


class TestBorrowedCheckpoint:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpoint_path_never_round_trips(self, engine, tmp_path,
                                               monkeypatch):
        """Saves pickle live state straight to the file — no dumps/loads
        copy in the engine — and the file resumes to the clean digest."""
        class NoRoundTrip:
            @staticmethod
            def dumps(*_a, **_k):
                raise AssertionError("checkpoint path called pickle.dumps")

            @staticmethod
            def loads(*_a, **_k):
                raise AssertionError("checkpoint path called pickle.loads")

        path = str(tmp_path / "run.ckpt")
        monkeypatch.setattr("repro.fl.simulation.pickle", NoRoundTrip)
        with build_engine(engine) as first:
            first.checkpointer = _StopAfter(path, 3)
            with pytest.raises(_Stop):
                first.run()
            with pytest.raises(AssertionError, match="pickle.dumps"):
                first.snapshot_state()  # the patch does bite the copying path
        monkeypatch.undo()

        with build_engine(engine) as resumed:
            resumed.restore_state(load_snapshot(path)["state"])
            assert resumed.wire.ef.residuals, "no live EF residuals restored"
            assert history_digest(resumed.run()) == clean_digest(engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_file_equals_snapshot_state(self, engine, tmp_path):
        path = str(tmp_path / "run.ckpt")
        with build_engine(engine) as sim:
            sim.checkpointer = _StopAfter(path, 3, sim=sim)
            with pytest.raises(_Stop):
                sim.run()
            reference = sim.checkpointer.reference
        on_disk = load_snapshot(path)["state"]
        assert on_disk["wire"]["residuals"]
        assert_state_equal(on_disk, reference)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_snapshot_state_is_deep_copy(self, engine, tmp_path):
        """Unlike the borrowed view, the public snapshot survives the
        engine advancing: weights, History and EF residuals are copies."""
        with build_engine(engine) as sim:
            sim.checkpointer = _StopAfter(str(tmp_path / "run.ckpt"), 2, sim=sim)
            with pytest.raises(_Stop):
                sim.run()
            state = sim.checkpointer.reference
            frozen = pickle.loads(pickle.dumps(state))
            live = sim._state_view()
            assert live["history"] is sim.history  # borrowed, not copied
            cid = next(iter(sim.wire.ef.residuals))
            assert live["wire"]["residuals"][cid] is sim.wire.ef.residuals[cid]
            sim.checkpointer = None
            sim.run()
            sim.global_weights[:] = 9.0
            # Residuals are read-only by contract; unlock one to prove
            # the snapshot does not alias it.
            sim.wire.ef.residuals[cid].flags.writeable = True
            sim.wire.ef.residuals[cid][:] = 9.0
        assert len(sim.history.records) > len(state["history"].records)
        assert_state_equal(state, frozen)


class TestRestoreValidation:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_wrong_weight_dimension_rejected(self, engine):
        """A snapshot of another model's weights is refused on restore,
        naming both sizes, before any of it is installed."""
        with build_engine(engine) as sim:
            state = sim.snapshot_state()
            weights, history = sim.global_weights, sim.history
            state["global_weights"] = np.zeros(3)
            with pytest.raises(ValueError, match=f"3 global weights.*has {weights.size}"):
                sim.restore_state(state)
            assert sim.global_weights is weights and sim.history is history


class TestIdleColumnDispatch:
    @pytest.mark.parametrize("dispatch", ["random", "fairness"])
    def test_same_picks_as_sorted_set_pool(self, dispatch):
        """On a seeded churn trace the column pool picks the client the
        historical sorted-set pool would have, draw for draw."""
        n = 200
        with build_engine("fedbuff", n_clients=n, dispatch=dispatch) as server:
            fleet, fleet_state = server.fleet, server.fleet_state
            twin_rng = run_rng(server.config.seed, STREAM_DISPATCH)

            def sorted_set_pick(idle: set[int], now: float) -> int | None:
                pool = np.fromiter(idle, dtype=np.int64, count=len(idle))
                pool.sort()
                pool = fleet.online_ids(now, pool)
                if pool.size == 0:
                    return None
                if dispatch == "fairness":
                    return int(fleet_state.fairest(pool, 1)[0])
                return int(pool[twin_rng.integers(pool.size)])

            trace = np.random.default_rng(7)
            column = np.ones(n, dtype=bool)
            idle_set = set(range(n))
            busy: list[int] = []
            now, picks = 0.0, []
            for _ in range(400):
                now += float(trace.exponential(0.4))
                want = sorted_set_pick(idle_set, now)
                got = server._pick_client(column, now)
                assert got == want
                picks.append(got)
                if got is not None:
                    column[got] = False
                    idle_set.discard(got)
                    fleet_state.record_jobs([got])
                    busy.append(got)
                # Arrivals hand clients back, out of id order.
                while busy and trace.random() < 0.2:
                    back = busy.pop(int(trace.integers(len(busy))))
                    column[back] = True
                    idle_set.add(back)
            assert len({p for p in picks if p is not None}) > 50

    def test_nobody_idle_picks_nobody(self):
        with build_engine("fedbuff") as server:
            assert server._pick_client(np.zeros(12, dtype=bool), 0.0) is None
