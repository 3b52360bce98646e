"""FedDRL runs: the system invariants, agent health metrics, old snapshots.

The agent trains in the server process, so a FedDRL run must still be
bit-identical across serial / thread / process, traced / untraced and
killed / resumed, on either substrate dtype.  When tracing, each window
records the agent's health as ``sim.*`` gauges, outside
``history_digest``'s input.  A snapshot written before the replay buffer
became a columnar ring (its ``_items`` list of transitions, a float64
agent) restores: the list becomes columns in the items' dtype, and the
old agent keeps running in the precision it was saved in.
"""

from __future__ import annotations

import os
import pickle
from functools import partial

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.drl.agent import DRLConfig
from repro.drl.replay import ReplayBuffer
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedDRL
from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import build_simulation
from repro.nn.dtypes import default_dtype
from repro.nn.models import mlp
from repro.obs import Tracer
from repro.runtime.checkpoint import Checkpointer, load_snapshot
from tests.drl import reference_replay as R

# A sync-engine snapshot of build_engine() taken after its fifth round by
# the commit before the replay ring: a list-backed ReplayBuffer that has
# wrapped (capacity 3, cursor 1) inside a float64 agent.
LIST_REPLAY_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "feddrl_list_replay_v1.ckpt"
)
# history_digest of that snapshot resumed to round 8 on this commit.
RESUMED_DIGEST = "6b7edfdc90ce8376433d434f6618d32d2b0a31379e4f9be3adb905f698389ce2"

CFG = dict(method="feddrl", scale="ci", n_clients=6, clients_per_round=4,
           rounds=10, drl_updates_per_round=2, latency_model="lognormal")
DTYPES = ("float64", "float32")
DRL_GAUGES = ("sim.drl.reward", "sim.drl.critic_loss", "sim.drl.actor_q",
              "sim.drl.td_error", "sim.drl.replay_size", "sim.drl.noise_scale",
              "sim.drl.alpha_entropy", "sim.drl.alpha_l1_fedavg")


def build_engine() -> FederatedSimulation:
    """A small FedDRL sync engine (tiny agent, wrapping replay)."""
    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=4, noise=0.3)
    train, test = make_synthetic_dataset(spec, 240, 80, np.random.default_rng(0))
    parts = iid_partition(train.y, 8, np.random.default_rng(1))
    strategy = FedDRL(
        4,
        drl_config=DRLConfig(hidden=8, buffer_capacity=3, min_buffer=2,
                             batch_size=4, updates_per_round=2),
        seed=5,
    )
    return FederatedSimulation(
        make_clients(train, parts, seed=2), test,
        partial(mlp, 16, train.num_classes, hidden=(16,)), strategy,
        FLConfig(rounds=8, clients_per_round=4, local_epochs=1, lr=0.05,
                 batch_size=8, eval_every=1, seed=0),
    )


class _Stop(Exception):
    """Stands in for a kill right after a save."""


class _StopAfter(Checkpointer):
    def __init__(self, path: str, n: int) -> None:
        super().__init__(path)
        self.n = n

    def step(self, state_fn) -> bool:
        saved = super().step(state_fn)
        if self.saves >= self.n:
            raise _Stop
        return saved


def run(dtype: str, backend: str = "serial", tracer: Tracer | None = None):
    cfg = ExperimentConfig(**CFG, dtype=dtype, backend=backend, workers=2)
    with default_dtype(dtype), build_simulation(cfg, tracer=tracer) as sim:
        return history_digest(sim.run()), sim.strategy


@pytest.fixture(scope="module")
def serial_digests():
    return {dtype: run(dtype)[0] for dtype in DTYPES}


class TestInvariants:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backends_agree_with_serial(self, serial_digests, dtype, backend):
        assert run(dtype, backend)[0] == serial_digests[dtype]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_killed_and_resumed_equals_uninterrupted(self, dtype, tmp_path):
        path = str(tmp_path / "run.ckpt")
        with default_dtype(dtype):
            with build_engine() as sim:
                clean = history_digest(sim.run())
            with build_engine() as sim:
                sim.checkpointer = _StopAfter(path, 3)
                with pytest.raises(_Stop):
                    sim.run()
            with build_engine() as sim:
                sim.restore_state(load_snapshot(path)["state"])
                assert history_digest(sim.run()) == clean


class TestAgentHealthMetrics:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_traced_equals_untraced_and_gauges_match_the_agent(
        self, serial_digests, dtype, monkeypatch
    ):
        # The last window's view of the strategy, as window_metrics saw it.
        seen = {}
        original = FedDRL.window_metrics

        def window_metrics(self):
            seen.update(train=self.last_train, alphas=self.last_alphas,
                        state=self._pending[0])
            return original(self)

        monkeypatch.setattr(FedDRL, "window_metrics", window_metrics)
        tracer = Tracer()
        digest, strategy = run(dtype, tracer=tracer)
        assert digest == serial_digests[dtype]
        gauges = tracer.metrics.sim_totals()["gauges"]
        assert set(DRL_GAUGES) <= set(gauges)
        agent = strategy.agent
        assert gauges["sim.drl.replay_size"] == len(agent.buffer) == CFG["rounds"] - 1
        assert gauges["sim.drl.noise_scale"] == agent.noise_scale
        assert gauges["sim.drl.reward"] == strategy.reward_history[-1]
        # The gauges report the last *joined* pass, one window behind: the
        # final window's own pass (buffer of rounds - 1) is joined by the
        # end of run(), after the window was recorded.
        assert strategy.last_train.buffer_size == CFG["rounds"] - 1
        assert seen["train"].buffer_size == CFG["rounds"] - 2
        assert gauges["sim.drl.critic_loss"] == seen["train"].critic_loss
        assert gauges["sim.drl.actor_q"] == seen["train"].actor_q
        assert gauges["sim.drl.td_error"] == seen["train"].td_error > 0
        alphas = seen["alphas"]
        assert alphas is strategy.last_alphas
        k = CFG["clients_per_round"]
        fedavg = seen["state"][-k:].astype(float)
        assert gauges["sim.drl.alpha_entropy"] == pytest.approx(
            -np.sum(alphas * np.log(alphas)))
        assert 0 < gauges["sim.drl.alpha_entropy"] <= np.log(k)
        assert gauges["sim.drl.alpha_l1_fedavg"] == pytest.approx(
            np.abs(alphas - fedavg).sum())

    def test_gauges_are_backend_identical(self):
        totals = {}
        for backend in ("serial", "process"):
            tracer = Tracer()
            run("float64", backend, tracer=tracer)
            totals[backend] = {
                k: v for k, v in tracer.metrics.sim_totals()["gauges"].items()
                if k.startswith("sim.drl.")
            }
        assert totals["serial"] == totals["process"]
        assert set(totals["serial"]) == set(DRL_GAUGES)

    def test_non_drl_runs_record_no_agent_gauges(self):
        tracer = Tracer()
        cfg = ExperimentConfig(**{**CFG, "method": "fedavg"})
        with build_simulation(cfg, tracer=tracer) as sim:
            sim.run()
        assert not [k for k in tracer.metrics.snapshot()["gauges"]
                    if k.startswith("sim.drl.")]


class TestListReplaySnapshot:
    def test_restores_and_finishes(self):
        state = load_snapshot(LIST_REPLAY_FIXTURE)["state"]
        agent = state["strategy"].agent
        assert isinstance(agent.buffer, ReplayBuffer)
        assert "_items" not in vars(agent.buffer)
        assert (len(agent.buffer), agent.buffer._cursor) == (3, 1)
        # The old agent keeps the precision it was saved in.
        assert agent.policy_main.dtype == agent.buffer.dtype == np.float64
        with build_engine() as sim:
            sim.restore_state(state)
            assert history_digest(sim.run()) == RESUMED_DIGEST
            assert len(sim.strategy.agent.buffer) == 3
            assert sim.strategy.last_train is not None

    def test_columns_hold_the_pickled_list_in_slot_order(self):
        class AsListBuffer(pickle.Unpickler):
            def find_class(self, module, name):
                if (module, name) == ("repro.drl.replay", "ReplayBuffer"):
                    return R.ReplayBuffer
                return super().find_class(module, name)

        with open(LIST_REPLAY_FIXTURE, "rb") as f:
            old = AsListBuffer(f).load()["state"]["strategy"].agent.buffer
        ring = load_snapshot(LIST_REPLAY_FIXTURE)["state"]["strategy"].agent.buffer
        assert isinstance(old, R.ReplayBuffer) and ring._cursor == old._cursor
        for got, want in zip(ring.snapshot(), old.snapshot()):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
