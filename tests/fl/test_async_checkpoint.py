"""Checkpoint/resume for the async engine.

The kill-safe ``snapshot_state``/``restore_state`` loop capture is the
engine's one checkpoint route: a run restored from a mid-timeline
snapshot must finish bit-identical to an uninterrupted one, and a
snapshot that does not fit the engine is refused before anything is
installed.
"""

import pickle

import numpy as np
import pytest

from repro.fl.async_ import AsyncFederatedServer
from repro.fl.simulation import FLConfig
from repro.fl.strategies import FedAvg
from repro.runtime import VirtualClock


# FedBuff with a buffer of three, and FedAsync: a buffer of one at mix 0.6.
SERVERS = {
    "fedbuff": dict(buffer_size=3),
    "fedasync": dict(buffer_size=1, server_mix=0.6),
}


def make_server(tiny_clients, tiny_model_factory, tiny_data, rounds=4,
                buffer_size=3, server_mix=None):
    _, test = tiny_data
    clock = VirtualClock(
        "lognormal", len(tiny_clients), seed=23,
        straggler_fraction=0.3, straggler_slowdown=8.0,
    )
    return AsyncFederatedServer(
        tiny_clients, test, tiny_model_factory, FedAvg(),
        FLConfig(rounds=rounds, clients_per_round=4, local_epochs=1, lr=0.05,
                 batch_size=16, seed=0),
        clock=clock, buffer_size=buffer_size, max_concurrency=4,
        server_mix=server_mix,
    )


class TestAsyncServerCheckpoint:
    def test_shape_mismatch_rejected(self, tiny_data, tiny_clients, tiny_model_factory):
        with make_server(tiny_clients, tiny_model_factory, tiny_data) as server:
            state = server.snapshot_state()
            before = server.global_weights.copy()
            state["global_weights"] = np.zeros(3)
            with pytest.raises(ValueError, match=f"3 global weights.*{before.size}"):
                server.restore_state(state)
            np.testing.assert_array_equal(server.global_weights, before)


class _GrabSnapshot:
    """A checkpointer stand-in that captures the state at one step — by
    pickling it before ``step`` returns, as the real one does: the engine
    hands over live state."""

    def __init__(self, at: int) -> None:
        self.at = at
        self.steps = 0
        self.state = None

    def step(self, state_fn) -> bool:
        self.steps += 1
        if self.steps == self.at:
            self.state = pickle.loads(pickle.dumps(state_fn()))
            return True
        return False


class TestAsyncSnapshotRestore:
    @pytest.mark.parametrize("mode", sorted(SERVERS))
    def test_mid_run_restore_bit_identical(self, mode, tiny_data, tiny_clients,
                                           tiny_model_factory):
        """Continue from a mid-timeline snapshot; History and weights must
        match an uninterrupted run exactly."""
        with make_server(tiny_clients, tiny_model_factory, tiny_data,
                         **SERVERS[mode]) as clean:
            clean_hist = clean.run()

        grab = _GrabSnapshot(at=2)
        with make_server(tiny_clients, tiny_model_factory, tiny_data,
                         **SERVERS[mode]) as first:
            first.checkpointer = grab
            first.run()
        assert grab.state is not None, "run too short to snapshot mid-timeline"

        with make_server(tiny_clients, tiny_model_factory, tiny_data,
                         **SERVERS[mode]) as resumed:
            resumed.restore_state(grab.state)
            resumed_hist = resumed.run()
            resumed_weights = resumed.global_weights.copy()

        ref_events = [(e.job_idx, e.client_id, e.arrival_time_s, e.staleness)
                      for e in clean_hist.events]
        events = [(e.job_idx, e.client_id, e.arrival_time_s, e.staleness)
                  for e in resumed_hist.events]
        assert events == ref_events
        assert resumed_hist.accuracy_series() == clean_hist.accuracy_series()
        np.testing.assert_array_equal(resumed_weights, clean.global_weights)

    def test_snapshot_is_deep_copy(self, tiny_data, tiny_clients,
                                   tiny_model_factory):
        """Mutating the live server after a snapshot must not leak into it."""
        with make_server(tiny_clients, tiny_model_factory, tiny_data) as server:
            state = server.snapshot_state()
            server.global_weights[:] = 9.0
            assert not np.any(np.asarray(state["global_weights"]) == 9.0)

    def test_wrong_engine_rejected(self, tiny_data, tiny_clients,
                                   tiny_model_factory):
        with make_server(tiny_clients, tiny_model_factory, tiny_data) as server:
            with pytest.raises(ValueError, match="sync"):
                server.restore_state({"engine": "sync"})
