"""Kill-safe checkpoint/resume through the harness.

The acceptance guarantee: a run that is checkpointed — even one killed
with SIGKILL mid-round — resumes to a History bit-identical to an
uninterrupted run, for both the sync and the FedBuff engines.
"""

import gc
import glob
import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc

import numpy as np
import pytest

from repro.__main__ import main
from repro.fl.wire.format import ErrorFeedback
from repro.harness.checkpoint import (
    EXCLUDED_FROM_FINGERPRINT,
    checkpoint_fingerprint,
    validate_resume,
)
from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import run_experiment
from repro.runtime import checkpoint
from repro.runtime.checkpoint import (
    MIN_EXTERNAL_NBYTES,
    SNAPSHOT_SCHEMA,
    CheckpointError,
    Checkpointer,
    _external,
    _file_id,
    _mapping,
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


# Snapshots written before every stream derived from repro.runtime.seeding:
# a fedbuff engine whose loop["idle"] is a set of ids, and a FedDRL engine
# whose agent holds a list-backed replay buffer.  Kept to be refused.
V1_FIXTURES = [
    os.path.join(os.path.dirname(__file__), os.pardir, "fl", "fixtures", name)
    for name in ("fedbuff_set_idle_v1.ckpt", "feddrl_list_replay_v1.ckpt")
]


class TestRefusedSchemas:
    """v1 and v2 snapshots would rebuild a different dataset and clock
    beneath their recorded history: load_snapshot refuses them, naming
    the file and the reason, before unpickling any state."""

    @pytest.mark.parametrize("path", V1_FIXTURES, ids=os.path.basename)
    def test_committed_v1_fixtures_are_refused(self, path):
        name = os.path.basename(path)
        with pytest.raises(CheckpointError, match=f"{name} is a repro-checkpoint/v1 "
                                                  f"snapshot, refused: it predates"):
            load_snapshot(path)

    def test_a_v2_head_is_refused(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps(
            {"schema": "repro-checkpoint/v2", "meta": {}, "state": {"x": 1}},
            protocol=pickle.HIGHEST_PROTOCOL,
        ))
        with pytest.raises(CheckpointError, match="old.ckpt is a repro-checkpoint/v2"):
            load_snapshot(str(path))

    def test_cli_resume_exits_2_with_one_line(self):
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--resume", V1_FIXTURES[0]],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "repro-checkpoint/v1" in proc.stderr


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


def frozen(shape, fill: float = 0.0) -> np.ndarray:
    """A read-only float64 array that owns its data: stored in the array
    file once it holds ``MIN_EXTERNAL_NBYTES``."""
    array = np.full(shape, fill)
    array.flags.writeable = False
    return array


BIG = MIN_EXTERNAL_NBYTES // 8


class TestArrayFile:
    def test_no_qualifying_array_writes_no_array_file(self, tmp_path):
        """Writable, small, borrowed or object arrays stay in the head."""
        path = str(tmp_path / "snap.ckpt")
        view = frozen(4 * BIG)[: 2 * BIG]
        state = {"writable": np.zeros(4 * BIG), "small": frozen(BIG - 1),
                 "view": view, "objects": np.array([None] * BIG)}
        state["objects"].flags.writeable = False
        assert not any(_external(a) for a in state.values())
        save_snapshot(path, state)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.ckpt"]

    def test_external_arrays_round_trip_through_the_array_file(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        a, b = frozen(BIG, 1.0), frozen((2, BIG), 2.0)
        save_snapshot(path, {"a": a, "b": b, "a_again": a})
        assert os.path.getsize(tmp_path / "snap.ckpt.arrays-1") == a.nbytes + b.nbytes
        state = load_snapshot(path)["state"]
        np.testing.assert_array_equal(state["a"], a)
        np.testing.assert_array_equal(state["b"], b)
        assert state["a_again"] is state["a"]  # one object, as in a pickle

    def test_a_save_appends_only_arrays_it_has_not_written(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        ck = Checkpointer(path)
        a, b = frozen(BIG, 1.0), frozen(BIG, 2.0)
        ck.save({"a": a})
        arrays = tmp_path / "snap.ckpt.arrays-1"
        assert os.path.getsize(arrays) == a.nbytes
        head = os.path.getsize(path)
        assert ck.save({"a": a, "b": b}) == b.nbytes + os.path.getsize(path)
        assert os.path.getsize(arrays) == a.nbytes + b.nbytes
        assert ck.save({"a": a, "b": b}) == os.path.getsize(path) < head + 200

    def test_a_recycled_id_is_not_mistaken_for_a_stored_array(self, tmp_path):
        """Identity is checked through a weak reference: a new array that
        lands on a dead one's id is written, not referenced."""
        path = str(tmp_path / "snap.ckpt")
        ck = Checkpointer(path)
        for fill in range(6):
            ck.save({"a": frozen(BIG, float(fill))})  # the last one dies here
            assert load_snapshot(path)["state"]["a"][0] == fill

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "emptied"])
    def test_damaged_array_file_names_that_file(self, tmp_path, damage):
        """Checked against the file's size before it is mapped: an empty
        file cannot be mapped at all."""
        path = str(tmp_path / "snap.ckpt")
        save_snapshot(path, {"w": frozen(2 * BIG, 3.0)})
        arrays = tmp_path / "snap.ckpt.arrays-1"
        if damage == "deleted":
            arrays.unlink()
        else:
            arrays.write_bytes(arrays.read_bytes()[:BIG if damage == "truncated" else 0])
        with pytest.raises(CheckpointError, match="snap.ckpt.arrays-1"):
            load_snapshot(path)

    def test_moved_snapshot_loads_when_both_files_move(self, tmp_path):
        save_snapshot(str(tmp_path / "snap.ckpt"), {"w": frozen(BIG, 4.0)})
        moved = tmp_path / "elsewhere"
        moved.mkdir()
        for name in ("snap.ckpt", "snap.ckpt.arrays-1"):
            os.replace(tmp_path / name, moved / name)
        os.replace(moved / "snap.ckpt", moved / "renamed.ckpt")
        state = load_snapshot(str(moved / "renamed.ckpt"))["state"]
        np.testing.assert_array_equal(state["w"], np.full(BIG, 4.0))

    def test_start_removes_only_unreferenced_generations(self, tmp_path):
        """A kill can strand a generation the head no longer (or never)
        references; the next Checkpointer on the target deletes exactly
        those: the referenced one and bystanders survive."""
        path = str(tmp_path / "run.ckpt")
        save_snapshot(path, {"w": frozen(BIG, 5.0)})
        assert (tmp_path / "run.ckpt.arrays-1").exists()
        stranded = ["run.ckpt.arrays-0", "run.ckpt.arrays-7"]
        bystanders = ["run.ckpt.arrays-7.bak", "other.ckpt.arrays-2",
                      "run.ckpt.arrays-x", "notes.txt"]
        for name in stranded + bystanders:
            (tmp_path / name).write_bytes(b"stale")
        ck = Checkpointer(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["run.ckpt", "run.ckpt.arrays-1", *bystanders])
        np.testing.assert_array_equal(
            load_snapshot(path)["state"]["w"], np.full(BIG, 5.0))
        # Its first save starts a generation past every one it saw, and
        # the replaced head's generation goes once nothing references it.
        ck.save({"w": frozen(BIG, 6.0)})
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["run.ckpt", "run.ckpt.arrays-8", *bystanders])

    def test_a_copied_head_never_deletes_its_source_generation(self, tmp_path):
        """A head copied to another target still names the source's array
        file; saving over the copy must leave that file alone."""
        save_snapshot(str(tmp_path / "run.ckpt"), {"w": frozen(BIG, 1.0)})
        copy = tmp_path / "copy.ckpt"
        copy.write_bytes((tmp_path / "run.ckpt").read_bytes())
        Checkpointer(str(copy)).save({"w": frozen(BIG, 2.0)})
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "copy.ckpt", "copy.ckpt.arrays-1", "run.ckpt", "run.ckpt.arrays-1"]
        np.testing.assert_array_equal(
            load_snapshot(str(tmp_path / "run.ckpt"))["state"]["w"], np.full(BIG, 1.0))

    def test_unreadable_head_keeps_every_generation(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"not a pickle")
        (tmp_path / "run.ckpt.arrays-3").write_bytes(b"maybe needed")
        Checkpointer(str(path))
        assert (tmp_path / "run.ckpt.arrays-3").exists()

    def test_loaded_arrays_are_read_only_views_of_the_array_file(self, tmp_path):
        """A load maps the array file instead of reading it; what it hands
        out cannot be written, and a save stores it as a reference again
        (it counts as external though it does not own its data)."""
        path = str(tmp_path / "snap.ckpt")
        save_snapshot(path, {"a": frozen(BIG, 1.0), "b": frozen((2, BIG), 2.0)})
        state = load_snapshot(path)["state"]
        for array in state.values():
            assert not array.flags.writeable and not array.flags.owndata
            assert _mapping(array) is _mapping(state["a"]) is not None
            assert _external(array)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0
        assert not _external(state["b"][:, : BIG // 2])  # not contiguous

    def test_a_save_of_loaded_arrays_continues_the_heads_file(self, tmp_path):
        """Saving what a load mapped from the head's own array file writes
        only the head and the new arrays, appended past what the head
        references: a resume neither copies nor rewrites what it
        inherits."""
        path = str(tmp_path / "snap.ckpt")
        save_snapshot(path, {"a": frozen(BIG, 1.0), "b": frozen(BIG, 2.0)})
        state = load_snapshot(path)["state"]
        c = frozen(BIG, 3.0)
        ck = Checkpointer(path)
        assert ck.save({**state, "c": c}) == c.nbytes + os.path.getsize(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap.ckpt", "snap.ckpt.arrays-1"]
        assert os.path.getsize(tmp_path / "snap.ckpt.arrays-1") == 3 * c.nbytes
        # The next save references all three where they are.
        assert ck.save({**state, "c": c}) == os.path.getsize(path)
        again = load_snapshot(path)["state"]
        for key, fill in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            np.testing.assert_array_equal(again[key], np.full(BIG, fill))

    def test_a_continued_file_overwrites_only_an_unreferenced_tail(self, tmp_path):
        """A kill between a save's array fsync and its head's replace leaves
        bytes past the end the head references; the resumed save appends
        over them, never below that end."""
        path = str(tmp_path / "snap.ckpt")
        save_snapshot(path, {"a": frozen(BIG, 1.0)})
        arrays = tmp_path / "snap.ckpt.arrays-1"
        with open(arrays, "ab") as f:
            f.write(b"\xff" * (3 * BIG * 8))  # the stranded tail
        state = load_snapshot(path)["state"]
        Checkpointer(path).save({**state, "b": frozen(BIG, 2.0)})
        assert os.path.getsize(arrays) == 2 * BIG * 8
        again = load_snapshot(path)["state"]
        np.testing.assert_array_equal(state["a"], np.full(BIG, 1.0))
        np.testing.assert_array_equal(again["b"], np.full(BIG, 2.0))

    def test_a_continued_file_still_compacts(self, tmp_path):
        """Keeping one loaded array of four leaves the inherited file three
        quarters dead: the save writes a new generation, copying the kept
        array out of the mapping, and deletes the old file while that
        mapping still reads it (unlinking a mapped file is safe)."""
        path = str(tmp_path / "snap.ckpt")
        save_snapshot(path, {f"a{i}": frozen(BIG, float(i)) for i in range(4)})
        state = load_snapshot(path)["state"]
        kept = state["a3"]
        assert Checkpointer(path).save({"a3": kept}) == kept.nbytes + os.path.getsize(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap.ckpt", "snap.ckpt.arrays-2"]
        np.testing.assert_array_equal(state["a0"], np.full(BIG, 0.0))
        np.testing.assert_array_equal(
            load_snapshot(path)["state"]["a3"], np.full(BIG, 3.0))

    def test_arrays_loaded_from_another_target_are_copied(self, tmp_path):
        """Only the head's own array file is continued: arrays mapped from
        another snapshot's file are written into this target's."""
        src = str(tmp_path / "src.ckpt")
        save_snapshot(src, {"a": frozen(BIG, 1.0)})
        state = load_snapshot(src)["state"]
        dst = str(tmp_path / "dst.ckpt")
        save_snapshot(dst, {"old": frozen(BIG, 0.0)})
        save_snapshot(dst, state)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dst.ckpt", "dst.ckpt.arrays-2", "src.ckpt", "src.ckpt.arrays-1"]
        np.testing.assert_array_equal(
            load_snapshot(dst)["state"]["a"], np.full(BIG, 1.0))

    def test_array_file_stays_within_twice_the_live_bytes(self, tmp_path):
        """Replacing every array on every save makes the file compact into
        a new generation instead of growing past 2x what the head needs."""
        path = str(tmp_path / "run.ckpt")
        ck = Checkpointer(path)
        for i in range(20):
            live = [frozen(BIG, float(i * 10 + k)) for k in range(3)]
            ck.save({"live": live})
            (arrays,) = [p for p in tmp_path.iterdir() if ".arrays-" in p.name]
            assert os.path.getsize(arrays) <= 2 * sum(a.nbytes for a in live)
            assert all(np.array_equal(a, b) for a, b in
                       zip(load_snapshot(path)["state"]["live"], live))
        assert ck.saves == 20


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

    def test_snapshot_listing_removed_fields_names_them(self):
        # A snapshot written while the deadline policy and the quantizer's
        # bit width were fields of their own: resuming it names both.
        cfg = ExperimentConfig(**FAST)
        old = {**checkpoint_fingerprint(cfg), "deadline_policy": "wait",
               "quant_bits": 8}
        snap = {"meta": {"fingerprint": old}, "state": {"engine": "sync"}}
        with pytest.raises(ValueError, match=(
            r"\(deadline_policy: snapshot='wait' config=None, "
            r"quant_bits: snapshot=8 config=None\)$"
        )):
            validate_resume(snap, cfg)

    @pytest.mark.parametrize("field, value", [
        ("latency_model", "none"),
        ("drl_prioritized", True),
        ("fairness_weight", 1.0),
        ("straggler_comm_slowdown", 2.0),
        ("labels_per_client", 3),
        ("drl_explore", True),
        ("fleet_mode", "eager"),
    ])
    def test_resume_of_a_removed_setting_exits_2(self, field, value, monkeypatch,
                                                 capsys):
        # A snapshot written while the clock could be off, or while FedDRL's
        # replay rule, reward weight and exploration switch, the straggler
        # comm factor or the labels-per-client override were fields, or
        # while clients could be built eagerly: --resume names the field.
        cfg = ExperimentConfig(**FAST)
        old = {**checkpoint_fingerprint(cfg), field: value}
        monkeypatch.setattr(
            "repro.harness.runner.load_snapshot",
            lambda path: {"meta": {"fingerprint": old}, "state": {"engine": "sync"}},
        )
        assert main(["--method", "fedavg", "--scale", "ci", "--clients", "5",
                     "--per-round", "5", "--resume", "old.ckpt"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("python -m repro: error: --resume:")
        assert f"{field}: snapshot={value!r}" in err and "\n" not in err

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

    def test_singleset_interrupted_resume_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        """SingleSet is a one-client engine run, so it resumes like one."""
        cfg = ExperimentConfig(method="singleset", **FAST).with_(rounds=30)
        clean = history_digest(run_experiment(cfg).history)
        ck = str(tmp_path / "run.ckpt")
        interrupt_after_saves(monkeypatch, 2)
        with pytest.raises(_Interrupted):
            run_experiment(cfg.with_(checkpoint_path=ck))
        monkeypatch.undo()
        resumed = run_experiment(cfg.with_(resume=ck))
        assert len(resumed.history.records) == 6
        assert history_digest(resumed.history) == clean

    @pytest.mark.parametrize(
        "topology, pretrain", [("flat", 0), ("hier", 0), ("flat", 2)],
        ids=["flat", "hier", "flat-pretrain"],
    )
    def test_feddrl_interrupted_resume_matches_uninterrupted(
        self, topology, pretrain, tmp_path, monkeypatch
    ):
        """The agent's networks, optimiser state and replay ring ride in
        the snapshot: a crashed FedDRL run resumes bit-identically.  A
        pretrained run's workers checkpoint nothing; the resumed run
        pretrains again and the snapshot's agent replaces the result."""
        cfg = ExperimentConfig(
            method="feddrl", **FAST, latency_model="lognormal",
            drl_updates_per_round=2, topology=topology,
            drl_pretrain_rounds=pretrain, drl_offline_updates=5,
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

    @pytest.mark.parametrize("engine, done", [
        ("sync", "run 4 rounds, more than this config's 2"),
        ("fedbuff", "dispatched 20 jobs, more than --rounds x --per-round = 10"),
    ])
    def test_resume_below_the_snapshots_progress_exits_2(self, engine, done,
                                                         tmp_path, capsys):
        """A resume may extend a run, never cut it short: fewer rounds
        than the snapshot has run (sync), or fewer jobs than it has
        dispatched (fedbuff), exit 2 with one line."""
        ck = str(tmp_path / "run.ckpt")
        flags = ["--method", "fedavg", "--scale", "ci", "--clients", "5",
                 "--per-round", "5"]
        if engine == "fedbuff":
            flags += ["--aggregation", "fedbuff", "--latency-model", "lognormal"]
        assert main([*flags, "--rounds", "4", "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main([*flags, "--rounds", "2", "--resume", ck]) == 2
        err = capsys.readouterr().err
        assert err == f"python -m repro: error: --resume: the snapshot has already {done}\n"

    def test_wrong_experiment_resume_fails_loudly(self, tmp_path):
        ck = str(tmp_path / "run.ckpt")
        run_experiment(fast_cfg(checkpoint_path=ck).with_(rounds=2))
        with pytest.raises(ValueError, match="seed"):
            run_experiment(fast_cfg(resume=ck, seed=123))


def after_each_adoption(monkeypatch, check) -> None:
    """Call ``check(ef, checkpointer)`` once the engine has handed a save's
    views to the error feedback."""
    original = ErrorFeedback.adopt

    def adopt_then_check(self, mapped):
        original(self, mapped)
        check(self, mapped.__self__)

    monkeypatch.setattr(ErrorFeedback, "adopt", adopt_then_check)


def current_arrays(ck: Checkpointer) -> str:
    return os.path.join(ck.directory, ck._arrays)


def numpy_heap() -> int:
    """Bytes of live numpy data allocations tracemalloc sees."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(stat.size for stat in snap.statistics("filename"))


class TestArrayFileEndToEnd:
    SMALL = dict(n_clients=10, clients_per_round=3)

    def test_saved_residuals_are_views_of_the_array_file(self, tmp_path,
                                                          monkeypatch):
        """An uninterrupted topk+qsgd8 FedBuff run: after each save every
        residual is a view of the current array file, and the run's
        History is the run's without a checkpoint and the resumed one's."""
        cfg = fast_cfg("fedbuff", codec="topk+qsgd8").with_(**self.SMALL, rounds=12)
        clean = history_digest(run_experiment(cfg).history)
        adopted = []

        def check(ef, ck):
            current = _file_id(current_arrays(ck))
            assert ef.residuals and all(
                _mapping(r) is not None and _mapping(r).file_id == current
                for r in ef.residuals.values())
            adopted.append(len(ef.residuals))

        after_each_adoption(monkeypatch, check)
        run = run_experiment(cfg.with_(checkpoint_path=str(tmp_path / "a.ckpt")))
        monkeypatch.undo()
        assert history_digest(run.history) == clean
        assert len(adopted) == run.extra["checkpoint"]["saves"] > 2

        ck = str(tmp_path / "b.ckpt")
        interrupt_after_saves(monkeypatch, 2)
        with pytest.raises(_Interrupted):
            run_experiment(cfg.with_(checkpoint_path=ck))
        monkeypatch.undo()
        assert history_digest(run_experiment(cfg.with_(resume=ck)).history) == clean

    def test_every_save_maps_no_more_than_the_array_file(self, tmp_path,
                                                         monkeypatch):
        """150 saves at checkpoint_every=1: each maps only the extent it
        appended, so the mappings live residuals hold never add up past
        the array file, and after the compactions none is of a deleted
        generation."""
        cfg = fast_cfg(codec="topk+qsgd8").with_(**self.SMALL, rounds=150)
        generations = set()

        def check(ef, ck):
            path = current_arrays(ck)
            mappings = {id(m): m for r in ef.residuals.values()
                        if (m := _mapping(r)) is not None}
            assert all(m.file_id == _file_id(path) for m in mappings.values())
            assert sum(m.size for m in mappings.values()) <= os.path.getsize(path)
            generations.add(ck._arrays)

        after_each_adoption(monkeypatch, check)
        run = run_experiment(cfg.with_(checkpoint_path=str(tmp_path / "run.ckpt")))
        assert run.extra["checkpoint"]["saves"] == 150
        assert len(generations) > 1  # it compacted

    def test_after_the_last_save_the_heap_holds_only_newer_residuals(
            self, tmp_path, monkeypatch):
        """tracemalloc: once the run is over, the residual bytes on the heap
        are at most those absorbed since the last save."""
        cfg = fast_cfg("fedbuff", codec="topk+qsgd8").with_(**self.SMALL, rounds=12)
        seen = {"since": {}}
        original = ErrorFeedback.absorb

        def absorb(self, client_id, residual):
            original(self, client_id, residual)
            seen["ef"] = self
            seen["since"][client_id] = self.residuals[client_id].nbytes

        monkeypatch.setattr(ErrorFeedback, "absorb", absorb)
        after_each_adoption(monkeypatch, lambda ef, ck: seen.update(since={}))
        tracemalloc.start()
        try:
            run_experiment(cfg.with_(checkpoint_path=str(tmp_path / "run.ckpt"),
                                     checkpoint_every=5))
            gc.collect()
            held = numpy_heap()
            seen["ef"].residuals.clear()
            gc.collect()
            held -= numpy_heap()
        finally:
            tracemalloc.stop()
        absorbed = sum(seen["since"].values())
        assert 0 < held <= absorbed

    def test_an_unmappable_array_file_keeps_residuals_on_the_heap(
            self, tmp_path, monkeypatch):
        cfg = fast_cfg("fedbuff", codec="topk+qsgd8").with_(**self.SMALL, rounds=12)
        clean = history_digest(run_experiment(cfg).history)
        adopted = []

        def refuse(cls, *args, **kwargs):
            raise OSError("mmap refused")

        def check(ef, ck):
            assert ef.residuals and all(_mapping(r) is None and _external(r)
                                        for r in ef.residuals.values())
            adopted.append(len(ef.residuals))

        monkeypatch.setattr(checkpoint._ArrayFile, "__new__", refuse)
        after_each_adoption(monkeypatch, check)
        run = run_experiment(cfg.with_(checkpoint_path=str(tmp_path / "run.ckpt")))
        assert adopted and history_digest(run.history) == clean

    def test_every_save_run_stays_bounded_and_resumes(self, tmp_path, monkeypatch):
        """200 saves at checkpoint_every=1 with topk+qsgd8 error feedback:
        after every save the array file is at most 2x the residual bytes
        the head references, and a kill after save 150 resumes to the
        uninterrupted History."""
        cfg = fast_cfg(codec="topk+qsgd8").with_(
            n_clients=10, clients_per_round=3, rounds=200)
        clean = history_digest(run_experiment(cfg).history)
        ck = str(tmp_path / "run.ckpt")
        original = Checkpointer.step
        sizes = []

        def step_and_measure(self, state_fn):
            saved = original(self, state_fn)
            residuals = state_fn()["wire"]["residuals"].values()
            live = sum(r.nbytes for r in residuals if _external(r))
            (arrays,) = tmp_path.glob("run.ckpt.arrays-*")
            assert live > 0 and os.path.getsize(arrays) <= 2 * live
            sizes.append(os.path.getsize(arrays))
            if self.saves >= 150:
                raise _Interrupted
            return saved

        monkeypatch.setattr(Checkpointer, "step", step_and_measure)
        with pytest.raises(_Interrupted):
            run_experiment(cfg.with_(checkpoint_path=ck))
        monkeypatch.undo()
        assert len(sizes) == 150
        # It compacted along the way and stranded no generation.
        assert sorted(os.listdir(tmp_path))[0] == "run.ckpt"
        assert len(os.listdir(tmp_path)) == 2
        assert not (tmp_path / "run.ckpt.arrays-1").exists()

        resumed = run_experiment(cfg.with_(resume=ck))
        assert history_digest(resumed.history) == clean

    def test_an_ef_resume_continues_the_inherited_array_file(self, tmp_path,
                                                            monkeypatch):
        """A FedBuff cell with topk+qsgd8 error feedback, killed after 2
        saves and resumed to the same path, matches the uninterrupted run.
        Its first save after the resume writes the head plus only the
        residuals absorbed since the resume, into the inherited array file,
        and the head never inlines the loaded residuals."""
        cfg = fast_cfg("fedbuff", codec="topk+qsgd8").with_(
            n_clients=10, clients_per_round=3, rounds=12)
        assert cfg.error_feedback
        original = Checkpointer.step
        saves = {"clean": [], "resumed": []}

        def step_and_measure(self, state_fn):
            saved = original(self, state_fn)
            if saved:
                residuals = state_fn()["wire"]["residuals"].values()
                mapped = sum(_mapping(r) is not None for r in residuals)
                absorbed = sum(r.nbytes for r in residuals
                               if _external(r) and _mapping(r) is None)
                head = os.path.getsize(self.path)
                saves[os.path.basename(self.directory)].append(dict(
                    head=head, arrays_written=self.last_bytes - head,
                    absorbed=absorbed, mapped=mapped,
                    files=sorted(glob.glob("run.ckpt.arrays-*", root_dir=self.directory))))
            return saved

        monkeypatch.setattr(Checkpointer, "step", step_and_measure)
        clean = history_digest(run_experiment(
            cfg.with_(checkpoint_path=str(tmp_path / "clean" / "run.ckpt"))).history)

        ck = str(tmp_path / "resumed" / "run.ckpt")
        interrupt_after_saves(monkeypatch, 2)
        with pytest.raises(_Interrupted):
            run_experiment(cfg.with_(checkpoint_path=ck))
        monkeypatch.undo()
        inherited = sorted(glob.glob("run.ckpt.arrays-*", root_dir=tmp_path / "resumed"))
        monkeypatch.setattr(Checkpointer, "step", step_and_measure)
        saves["resumed"].clear()
        resumed = run_experiment(cfg.with_(checkpoint_path=ck, resume=ck))
        monkeypatch.undo()

        assert history_digest(resumed.history) == clean
        first = saves["resumed"][0]
        assert first["mapped"] > 0 and first["absorbed"] > 0
        assert first["arrays_written"] == first["absorbed"]
        assert first["files"] == inherited  # no new generation
        for after, uninterrupted in zip(saves["resumed"], saves["clean"][2:], strict=True):
            assert after["head"] <= 2 * uninterrupted["head"]

    def test_traced_saves_are_wall_only_spans_with_bytes(self, tmp_path):
        """Each save is one ``checkpoint.save`` span in the program's own
        trace, carrying the bytes it wrote; the counter sums them."""
        trace = tmp_path / "run.trace.jsonl"
        ck = str(tmp_path / "run.ckpt")
        result = run_experiment(fast_cfg(
            codec="topk+qsgd8", checkpoint_path=ck, trace=str(trace)))
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        saves = [r for r in records if r.get("name") == "checkpoint.save"]
        assert len(saves) == result.extra["checkpoint"]["saves"] == 6
        for span in saves:
            assert span["sim_t0"] is None and span["sim_dur"] is None
            assert span["wall_dur"] > 0 and span["args"]["bytes_written"] > 0
        final = [r for r in records if r.get("type") == "metrics" and r.get("final")]
        assert final[-1]["counters"]["rt.checkpoint.bytes_written"] == sum(
            span["args"]["bytes_written"] for span in saves)


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
