"""The FedDRL agent's side-process trainer (``repro.drl.side``).

The inline path — ``agent.train()`` called where the pass starts — is the
oracle.  With the helper forced on, a run must give the same history and
leave the agent with the same bits (the four networks, both Adams' moments
and step counts, the rng state, ``total_updates``) on flat sync, hier sync
and flat FedBuff.  ``run()`` returns with the last pass joined; a
checkpoint taken while a pass runs resumes exactly; a helper killed
mid-run costs only time; closing leaves no helper and no shared block.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.drl import side
from repro.drl.agent import DDPGAgent, DRLConfig
from repro.fl.strategies import FedDRL
from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import build_simulation, build_strategy
from repro.runtime.checkpoint import Checkpointer, load_snapshot

BASE = dict(method="feddrl", scale="ci", n_clients=6, clients_per_round=4,
            rounds=14, drl_updates_per_round=2, latency_model="lognormal")
CELLS = {
    "flat_sync": {},
    "hier_sync": dict(topology="hier", n_edges=2),
    "flat_fedbuff": dict(aggregation="fedbuff", buffer_size=2),
}

can_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the side process needs fork",
)


def use_side(monkeypatch, on: bool) -> list[int]:
    """Force the path (the rule has its own tests); return the forked pids."""
    if on and threading.active_count() > 1:
        pytest.skip("another thread is alive: forking could deadlock")
    monkeypatch.setattr(side, "side_process_available", lambda: on)
    pids: list[int] = []
    original = side._Helper.__init__

    def init(self, agent):
        original(self, agent)
        pids.append(self._proc.pid)

    monkeypatch.setattr(side._Helper, "__init__", init)
    return pids


def run(cell: str, **overrides):
    """(digest, strategy) of one cell; the strategy is read without a join."""
    cfg = ExperimentConfig(**{**BASE, **CELLS[cell], **overrides})
    with build_simulation(cfg) as sim:
        digest = history_digest(sim.run())
        assert not sim.strategy._side.busy  # run() returned with the pass joined
    return digest, sim.strategy


def assert_same_agent(got, want) -> None:
    for a, b in zip(side.pass_arrays(got), side.pass_arrays(want), strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    for a, b in zip(got.network_weights().values(), want.network_weights().values()):
        np.testing.assert_array_equal(a, b)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state
    assert got.total_updates == want.total_updates
    assert (got.policy_opt._t, got.value_opt._t) == (want.policy_opt._t, want.value_opt._t)
    for a, b in zip(got.buffer.snapshot(), want.buffer.snapshot()):
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def inline_runs():
    with pytest.MonkeyPatch.context() as mp:
        use_side(mp, False)
        return {cell: run(cell) for cell in CELLS}


class TestRule:
    def test_one_cpu_trains_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not side.side_process_available()

    def test_a_live_thread_trains_inline(self):
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            assert not side.side_process_available()
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()

    def test_no_fork_trains_inline(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert not side.side_process_available()


def test_the_block_holds_only_what_a_pass_leaves_live():
    """Four value arenas and both Adams' moments; the gradient arenas stay
    out, since every backward overwrites them before a step reads them."""
    agent = DDPGAgent(9, 3, DRLConfig(), rng=np.random.default_rng(0))
    arrays = side.pass_arrays(agent)
    grads = (agent.policy_main.flat_grads(), agent.value_main.flat_grads())
    assert not any(np.shares_memory(a, g) for a in arrays for g in grads)
    nets = (agent.policy_main, agent.policy_target, agent.value_main, agent.value_target)
    moments = sum(opt._m.nbytes + opt._v.nbytes for opt in (agent.policy_opt, agent.value_opt))
    assert sum(a.nbytes for a in arrays) == sum(n.flat_state().nbytes for n in nets) + moments


@can_fork
class TestSideEqualsInline:
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_same_history_and_agent_bits(self, inline_runs, monkeypatch, cell):
        pids = use_side(monkeypatch, True)
        digest, strategy = run(cell)
        want_digest, want = inline_runs[cell]
        assert len(pids) == 1  # one helper served every pass
        assert digest == want_digest
        assert_same_agent(strategy._agent, want._agent)
        assert strategy.last_train == want.last_train

    def test_kill_and_resume_with_a_pass_in_flight(self, inline_runs, monkeypatch, tmp_path):
        use_side(monkeypatch, True)
        path = str(tmp_path / "run.ckpt")
        in_flight = []

        class StopAfter(Checkpointer):
            def step(self, state_fn) -> bool:
                in_flight.append(sim.strategy._side.busy)
                saved = super().step(state_fn)
                if self.saves == 10:
                    raise KeyboardInterrupt  # stands in for the kill
                return saved

        cfg = ExperimentConfig(**BASE)
        with build_simulation(cfg) as sim:
            sim.checkpointer = StopAfter(path)
            with pytest.raises(KeyboardInterrupt):
                sim.run()
        assert in_flight[-1]  # the checkpoint joined a running pass
        with build_simulation(cfg) as sim:
            sim.restore_state(load_snapshot(path)["state"])
            digest = history_digest(sim.run())
        want_digest, want = inline_runs["flat_sync"]
        assert digest == want_digest
        assert_same_agent(sim.strategy._agent, want._agent)

    def test_killed_helper_reruns_the_pass_inline(self, inline_runs, monkeypatch):
        pids = use_side(monkeypatch, True)
        original = FedDRL.on_round_end

        def on_round_end(self, updates, round_idx):
            original(self, updates, round_idx)
            helper = self._side._helper
            if self._side.busy and helper is not None and round_idx == 10:
                os.kill(helper._proc.pid, signal.SIGKILL)

        monkeypatch.setattr(FedDRL, "on_round_end", on_round_end)
        digest, strategy = run("flat_sync")
        want_digest, want = inline_runs["flat_sync"]
        assert len(pids) == 1 and strategy._side.inline  # never forked again
        assert digest == want_digest
        assert_same_agent(strategy._agent, want._agent)

    def test_close_is_idempotent_and_leaves_nothing(self, monkeypatch, live_blocks):
        pids = use_side(monkeypatch, True)
        cfg = ExperimentConfig(**BASE)
        sim = build_simulation(cfg)
        # Rounds by hand, so the helper is alive with a pass running.
        for t in range(12):
            sim.run_round(t)
        strategy = sim.strategy
        assert strategy._side.busy and strategy._side._helper._proc.pid == pids[0]
        assert live_blocks()
        updates = strategy._agent.total_updates
        sim.close()
        sim.close()
        strategy.close()
        assert not strategy._side.busy
        assert strategy._agent.total_updates == updates + BASE["drl_updates_per_round"]
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):
            os.kill(pids[0], 0)
        assert not live_blocks()

    def test_pretraining_workers_merge_every_transition(self, monkeypatch):
        cfg = ExperimentConfig(
            method="feddrl", scale="ci", n_clients=5, clients_per_round=5,
            drl_pretrain_rounds=9, drl_pretrain_workers=2, drl_offline_updates=5,
        ).with_(rounds=2, n_train=150, n_test=60)
        agents = {}
        for on in (False, True):
            pids = use_side(monkeypatch, on)
            agents[on] = build_strategy(cfg).agent
            assert len(pids) == (2 if on else 0)  # one helper per worker engine
        assert len(agents[True].buffer) == 2 * 9
        assert_same_agent(agents[True], agents[False])
