"""End-to-end wire runs: cross-backend bit-identity in both engines,
the dense no-op guarantee, EF convergence, byte fields in History, and
checkpoint/resume with live error-feedback residuals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import build_simulation, run_experiment
from repro.nn.dtypes import default_dtype

BACKENDS = ("serial", "thread", "process")

BASE = dict(method="fedavg", scale="ci", n_clients=6, clients_per_round=6,
            rounds=3)
SYNC_WIRE = dict(
    **BASE, latency_model="uniform", codec="topk+qsgd8", topk_frac=0.05,
    bandwidth_model="uniform", straggler_fraction=0.2, straggler_slowdown=4.0,
)
FEDBUFF_WIRE = dict(
    **BASE, latency_model="lognormal", aggregation="fedbuff", buffer_size=3,
    codec="topk+qsgd8", topk_frac=0.05, bandwidth_model="lognormal",
)


def _run(cfg_kwargs, backend="serial", workers=None, **extra):
    kwargs = dict(cfg_kwargs, **extra)
    cfg = ExperimentConfig(**kwargs, backend=backend, workers=workers)
    with default_dtype(cfg.dtype):
        with build_simulation(cfg) as sim:
            history = sim.run()
            final = np.array(sim.global_weights, copy=True)
    return final, history


@pytest.fixture(scope="module")
def sync_wire_runs():
    return {b: _run(SYNC_WIRE, b, workers=2) for b in BACKENDS}


@pytest.fixture(scope="module")
def fedbuff_wire_runs():
    return {b: _run(FEDBUFF_WIRE, b, workers=2) for b in BACKENDS}


class TestCrossBackendDeterminism:
    def test_sync_wire_bit_identical(self, sync_wire_runs):
        w = {b: final for b, (final, _) in sync_wire_runs.items()}
        np.testing.assert_array_equal(w["serial"], w["thread"])
        np.testing.assert_array_equal(w["serial"], w["process"])
        digests = {b: history_digest(h) for b, (_, h) in sync_wire_runs.items()}
        assert digests["serial"] == digests["thread"] == digests["process"]

    def test_fedbuff_wire_bit_identical(self, fedbuff_wire_runs):
        w = {b: final for b, (final, _) in fedbuff_wire_runs.items()}
        np.testing.assert_array_equal(w["serial"], w["thread"])
        np.testing.assert_array_equal(w["serial"], w["process"])
        digests = {b: history_digest(h) for b, (_, h) in fedbuff_wire_runs.items()}
        assert digests["serial"] == digests["thread"] == digests["process"]

    def test_wire_actually_engaged(self, sync_wire_runs, fedbuff_wire_runs):
        for runs in (sync_wire_runs, fedbuff_wire_runs):
            _, history = runs["serial"]
            assert history.total_bytes_up() > 0
            assert history.total_bytes_down() > 0
            assert history.wire_compression_ratio() > 10


class TestDenseIsANoOp:
    def test_dense_codec_matches_no_wire_run(self):
        """The dense codec moves counters, never numerics: weights and
        accuracy trajectory are bit-identical to a run without a wire."""
        plain_w, plain_h = _run(BASE)
        dense_w, dense_h = _run(dict(**BASE, latency_model="uniform",
                                     bandwidth_model="uniform"))
        np.testing.assert_array_equal(plain_w, dense_w)
        assert plain_h.accuracy_series() == dense_h.accuracy_series()
        # ... but the dense run accounted its (uncompressed) bytes.
        assert plain_h.total_bytes_up() == 0
        assert dense_h.total_bytes_up() == dense_h.total_dense_bytes_up() > 0
        assert dense_h.wire_compression_ratio() == 1.0


class TestErrorFeedbackConvergence:
    def test_ef_recovers_accuracy_at_aggressive_sparsity(self):
        """At topk 1%, error feedback must land closer to the dense
        trajectory than dropping the residual does."""
        cfg = dict(method="fedavg", scale="ci", n_clients=6,
                   clients_per_round=6, rounds=6)
        dense_w, _ = _run(cfg)
        ef_w, _ = _run(dict(**cfg, codec="topk", topk_frac=0.01))
        noef_w, _ = _run(dict(**cfg, codec="topk", topk_frac=0.01,
                              error_feedback=False))
        ef_gap = float(np.linalg.norm(ef_w - dense_w))
        noef_gap = float(np.linalg.norm(noef_w - dense_w))
        assert ef_gap < noef_gap


class TestHistoryByteFields:
    def test_sync_round_records_carry_bytes(self, sync_wire_runs):
        _, history = sync_wire_runs["serial"]
        for rec in history.records:
            assert rec.payload_bytes_up > 0
            assert rec.payload_bytes_down > 0
            assert rec.dense_bytes_up > rec.payload_bytes_up
        series = history.payload_bytes_series()
        assert len(series) == len(history.records)
        assert history.total_bytes_up() == sum(up for _, up, _ in series)

    def test_fedbuff_events_carry_bytes(self, fedbuff_wire_runs):
        _, history = fedbuff_wire_runs["serial"]
        arrived = [e for e in history.events if not e.dropped]
        assert arrived
        assert all(e.payload_bytes > 0 for e in arrived)
        assert all(e.payload_bytes == 0 for e in history.events if e.dropped)


class _Interrupted(Exception):
    """Stands in for a crash partway through a checkpointed run."""


class TestCheckpointResume:
    @pytest.mark.parametrize("aggregation", ["sync", "fedbuff"])
    def test_resume_preserves_live_residuals(self, aggregation, tmp_path,
                                             monkeypatch):
        """A wire run crashed mid-timeline resumes bit-identically — the
        EF residual accumulators and byte ledger travel in the snapshot.
        (Same-length runs: the async dispatch horizon is part of the
        timeline, so extension resumes are a sync-only guarantee.)"""
        from repro.runtime.checkpoint import Checkpointer

        kwargs = dict(method="fedavg", scale="ci", n_clients=5,
                      clients_per_round=5, codec="topk+qsgd8", topk_frac=0.05)
        if aggregation != "sync":
            kwargs.update(aggregation=aggregation, latency_model="lognormal")

        def cfg(**kw):
            return ExperimentConfig(**kwargs, **kw).with_(rounds=6)

        clean = run_experiment(cfg())
        assert clean.history.total_bytes_up() > 0

        ck = str(tmp_path / "wire.ckpt")
        original = Checkpointer.step

        def step_then_interrupt(self, state_fn):
            saved = original(self, state_fn)
            if self.saves >= 2:
                raise _Interrupted
            return saved

        monkeypatch.setattr(Checkpointer, "step", step_then_interrupt)
        with pytest.raises(_Interrupted):
            run_experiment(cfg(checkpoint_path=ck))
        monkeypatch.undo()

        resumed = run_experiment(cfg(resume=ck))
        assert history_digest(resumed.history) == history_digest(clean.history)
        assert resumed.history.total_bytes_up() == clean.history.total_bytes_up()

    def test_codec_change_invalidates_resume(self, tmp_path):
        kwargs = dict(method="fedavg", scale="ci", n_clients=5,
                      clients_per_round=5, rounds=2)
        ck = str(tmp_path / "wire.ckpt")
        run_experiment(ExperimentConfig(**kwargs, codec="topk",
                                        checkpoint_path=ck))
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(**kwargs, codec="qsgd8", resume=ck))
