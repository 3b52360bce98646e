"""Kill-safe checkpoint/resume through the harness.

The acceptance guarantee: a run that is checkpointed — even one killed
with SIGKILL mid-round — resumes to a History bit-identical to an
uninterrupted run, for both the sync and the FedBuff engines.
"""

import os
import pickle
import signal
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from repro.harness.checkpoint import (
    EXCLUDED_FROM_FINGERPRINT,
    checkpoint_fingerprint,
    validate_resume,
)
from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import run_experiment
from repro.runtime.checkpoint import (
    SNAPSHOT_SCHEMA,
    CheckpointError,
    Checkpointer,
    _tmp_prefix,
    load_snapshot,
    save_snapshot,
)

FAST = dict(scale="ci", n_clients=5, clients_per_round=5)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        save_snapshot(path, {"x": 1}, meta={"tag": "t"})
        payload = load_snapshot(path)
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["meta"] == {"tag": "t"}
        assert payload["state"] == {"x": 1}

    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        for i in range(3):
            save_snapshot(path, {"i": i})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.ckpt"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        save_snapshot(path, {"i": 0})
        save_snapshot(path, {"i": 1})
        assert load_snapshot(path)["state"] == {"i": 1}

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "snap.ckpt")
        save_snapshot(path, {})
        assert os.path.exists(path)

    def test_rejects_foreign_pickle(self, tmp_path):
        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="snapshot"):
            load_snapshot(str(path))

    def test_unsaved_tmp_removed_on_failure(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        with pytest.raises(Exception):
            save_snapshot(path, {"bad": lambda: None})  # unpicklable
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("damage", ["empty", "truncated", "bit_flipped"])
    def test_damaged_file_raises_checkpoint_error(self, tmp_path, damage):
        """Hostile input: one typed error naming the file, never a leaked
        EOFError / UnpicklingError."""
        path = tmp_path / "snap.ckpt"
        save_snapshot(str(path), {"w": np.arange(64.0), "history": list(range(50))})
        blob = bytearray(path.read_bytes())
        if damage == "empty":
            blob = bytearray()
        elif damage == "truncated":
            blob = blob[: len(blob) // 2]
        else:
            blob[0] ^= 0x40  # the PROTO opcode: no longer a pickle stream
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="snap.ckpt") as err:
            load_snapshot(str(path))
        assert isinstance(err.value, ValueError)

    def test_missing_file_is_still_an_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(str(tmp_path / "nope.ckpt"))


class TestCheckpointer:
    def test_saves_on_interval(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        ck = Checkpointer(path, every=3)
        calls = []
        for step in range(7):
            ck.step(lambda step=step: calls.append(step) or {"step": step})
        assert calls == [2, 5]  # state_fn only runs on saving steps
        assert ck.saves == 2
        assert load_snapshot(path)["state"] == {"step": 5}

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(str(tmp_path / "x"), every=0)

    def test_init_removes_only_its_own_stale_temp_files(self, tmp_path):
        """A SIGKILL mid-write strands the temp file; the next
        Checkpointer on the same target sweeps it — and nothing else."""
        path = str(tmp_path / "run.ckpt")
        save_snapshot(path, {"i": 0})
        fd, stale = tempfile.mkstemp(
            dir=tmp_path, prefix=_tmp_prefix(path), suffix=".tmp")
        os.write(fd, b"half a snapshot")
        os.close(fd)

        bystanders = {
            "notes.txt": b"unrelated",
            ".ckpt-other.ckpt-abc123.tmp": b"a neighbour's in-flight write",
            "run.ckpt.bak": b"user copy",
        }
        for name, blob in bystanders.items():
            (tmp_path / name).write_bytes(blob)

        Checkpointer(path)
        assert not os.path.exists(stale)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["run.ckpt", *bystanders])
        assert load_snapshot(path)["state"] == {"i": 0}


class TestFingerprint:
    def test_excluded_fields_do_not_invalidate(self):
        a = ExperimentConfig(**FAST)
        b = a.with_(rounds=99, backend="process", workers=7, trace=True,
                    fault_crash_prob=0.1, max_retries=9)
        assert checkpoint_fingerprint(a) == checkpoint_fingerprint(b)

    def test_identity_fields_do_invalidate(self):
        a = ExperimentConfig(**FAST)
        assert checkpoint_fingerprint(a) != checkpoint_fingerprint(a.with_(seed=1))

    def test_validate_resume_names_mismatches(self):
        cfg = ExperimentConfig(**FAST)
        snap = {"meta": {"fingerprint": checkpoint_fingerprint(cfg.with_(seed=5))},
                "state": {"engine": "sync"}}
        with pytest.raises(ValueError, match="seed"):
            validate_resume(snap, cfg)

    def test_validate_resume_requires_fingerprint(self):
        with pytest.raises(ValueError, match="fingerprint"):
            validate_resume({"meta": {}, "state": {}}, ExperimentConfig(**FAST))

    def test_validate_resume_checks_engine(self):
        cfg = ExperimentConfig(**FAST)
        snap = {"meta": {"fingerprint": checkpoint_fingerprint(cfg)},
                "state": {"engine": "async"}}
        with pytest.raises(ValueError, match="engine"):
            validate_resume(snap, cfg)

    def test_validate_resume_returns_state(self):
        cfg = ExperimentConfig(**FAST)
        snap = {"meta": {"fingerprint": checkpoint_fingerprint(cfg)},
                "state": {"engine": "sync", "next_round": 3}}
        assert validate_resume(snap, cfg)["next_round"] == 3


class TestConfigValidation:
    def test_fault_knobs_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fault_crash_prob=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(fault_crash_prob=0.5, fault_hang_prob=0.5)
        with pytest.raises(ValueError):
            ExperimentConfig(fault_hang_prob=0.1, fault_hang_s=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(task_timeout_s=0.0)

    def test_checkpoint_knobs_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(checkpoint_every=0, checkpoint_path="x")
        with pytest.raises(ValueError, match="checkpoint_path"):
            ExperimentConfig(checkpoint_every=2)
        # The DRL agent pickles with the engine, so FedDRL checkpoints too.
        assert ExperimentConfig(method="feddrl", checkpoint_path="x").resume is None
        assert ExperimentConfig(method="feddrl", resume="x").resume == "x"

    def test_faults_active_property(self):
        assert not ExperimentConfig().faults_active
        assert ExperimentConfig(fault_crash_prob=0.05).faults_active


def fast_cfg(aggregation="sync", **kw):
    base = dict(method="fedavg", **FAST)
    if aggregation != "sync":
        base.update(aggregation=aggregation, latency_model="lognormal")
    return ExperimentConfig(**base, **kw).with_(rounds=6)


class _Interrupted(Exception):
    """Stands in for a crash partway through a checkpointed run."""


def interrupt_after_saves(monkeypatch, n: int) -> None:
    original = Checkpointer.step

    def step_then_interrupt(self, state_fn):
        saved = original(self, state_fn)
        if self.saves >= n:
            raise _Interrupted
        return saved

    monkeypatch.setattr(Checkpointer, "step", step_then_interrupt)


class TestResumeEndToEnd:
    @pytest.mark.parametrize("aggregation", ["sync", "fedbuff"])
    def test_interrupted_resume_matches_uninterrupted(self, aggregation,
                                                      tmp_path, monkeypatch):
        """Crash mid-run (same config), resume from the last snapshot:
        History must match a never-interrupted run exactly."""
        clean = history_digest(run_experiment(fast_cfg(aggregation)).history)

        ck = str(tmp_path / "run.ckpt")
        interrupt_after_saves(monkeypatch, 2)
        with pytest.raises(_Interrupted):
            run_experiment(fast_cfg(aggregation, checkpoint_path=ck))
        monkeypatch.undo()

        resumed = run_experiment(fast_cfg(aggregation, resume=ck))
        assert history_digest(resumed.history) == clean
        assert resumed.extra["resumed_from"] == ck

    @pytest.mark.parametrize("topology", ["flat", "hier"])
    def test_feddrl_interrupted_resume_matches_uninterrupted(
        self, topology, tmp_path, monkeypatch
    ):
        """The agent's networks, optimiser state and replay ring ride in
        the snapshot: a crashed FedDRL run resumes bit-identically."""
        cfg = ExperimentConfig(
            method="feddrl", **FAST, latency_model="lognormal",
            drl_updates_per_round=2, topology=topology,
        ).with_(rounds=6)
        clean = history_digest(run_experiment(cfg).history)

        ck = str(tmp_path / "run.ckpt")
        interrupt_after_saves(monkeypatch, 3)
        with pytest.raises(_Interrupted):
            run_experiment(cfg.with_(checkpoint_path=ck))
        monkeypatch.undo()

        resumed = run_experiment(cfg.with_(resume=ck))
        assert history_digest(resumed.history) == clean
        assert resumed.extra["resumed_from"] == ck

    def test_sync_resume_extends_rounds(self, tmp_path):
        """The sync engine can resume a *finished* short run and train
        further — bit-identical to having run the full length.  (The
        async engine has no such guarantee: its dispatch horizon is part
        of the timeline, so extension resumes continue the real run
        rather than replaying a longer one.)"""
        clean = history_digest(run_experiment(fast_cfg()).history)
        ck = str(tmp_path / "run.ckpt")
        run_experiment(fast_cfg(checkpoint_path=ck).with_(rounds=3))
        resumed = run_experiment(fast_cfg(resume=ck))
        assert history_digest(resumed.history) == clean

    def test_checkpointing_does_not_change_history(self, tmp_path):
        clean = history_digest(run_experiment(fast_cfg()).history)
        ck = str(tmp_path / "run.ckpt")
        result = run_experiment(fast_cfg(checkpoint_path=ck, checkpoint_every=2))
        assert history_digest(result.history) == clean
        assert result.extra["checkpoint"]["saves"] == 3

    def test_resume_on_different_backend(self, tmp_path):
        """Backends are bit-identical, so a serial checkpoint resumes on
        the thread backend (excluded from the fingerprint by design)."""
        clean = history_digest(run_experiment(fast_cfg()).history)
        ck = str(tmp_path / "run.ckpt")
        run_experiment(fast_cfg(checkpoint_path=ck).with_(rounds=3))
        resumed = run_experiment(fast_cfg(resume=ck, backend="thread", workers=2))
        assert history_digest(resumed.history) == clean

    def test_faulted_then_fault_free_resume(self, tmp_path):
        """A crashed faulty run may resume without its fault plan: the
        fault knobs are excluded from the fingerprint and recovery is
        bit-identical."""
        clean = history_digest(run_experiment(fast_cfg()).history)
        ck = str(tmp_path / "run.ckpt")
        faulty = fast_cfg(checkpoint_path=ck, fault_crash_prob=0.05,
                          fault_exception_prob=0.05).with_(rounds=3)
        run_experiment(faulty)
        resumed = run_experiment(fast_cfg(resume=ck))
        assert history_digest(resumed.history) == clean

    def test_wrong_experiment_resume_fails_loudly(self, tmp_path):
        ck = str(tmp_path / "run.ckpt")
        run_experiment(fast_cfg(checkpoint_path=ck).with_(rounds=2))
        with pytest.raises(ValueError, match="seed"):
            run_experiment(fast_cfg(resume=ck, seed=123))


KILL_CHILD = textwrap.dedent("""
    import os, signal, sys
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import run_experiment
    from repro.runtime.checkpoint import Checkpointer

    original_step = Checkpointer.step

    def step_then_die(self, state_fn):
        saved = original_step(self, state_fn)
        if self.saves == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return saved

    Checkpointer.step = step_then_die
    cfg = ExperimentConfig(
        method="fedavg", scale="ci", n_clients=5, clients_per_round=5,
        checkpoint_path=sys.argv[1],
    ).with_(rounds=6)
    run_experiment(cfg)
    sys.exit(99)  # unreachable: the SIGKILL fires first
""")


class TestKillAndResume:
    def test_sigkill_then_resume_bit_identical(self, tmp_path):
        """The acceptance test: SIGKILL mid-run, then --resume; History
        matches an uninterrupted run exactly."""
        clean = history_digest(run_experiment(fast_cfg()).history)

        ck = str(tmp_path / "run.ckpt")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run(
            [sys.executable, "-c", KILL_CHILD, ck],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert os.path.exists(ck), "no snapshot survived the kill"

        resumed = run_experiment(fast_cfg(resume=ck))
        assert history_digest(resumed.history) == clean
