"""WireFormat mechanics: error feedback, the dense short-circuit, stats,
and checkpoint snapshot/restore of live residuals."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.fl.client import ClientUpdate
from repro.fl.wire import WireFormat
from repro.runtime import checkpoint
from repro.runtime.checkpoint import Checkpointer, _file_id, _mapping, load_snapshot


def _update(weights, cid=3):
    return ClientUpdate(
        client_id=cid, weights=np.asarray(weights, dtype=np.float64),
        loss_before=1.0, loss_after=0.5, n_samples=10,
    )


def _wire(name="topk", **kw):
    return WireFormat(name, base_seed=0, **kw)


class TestDenseShortCircuit:
    def test_update_object_passes_through_untouched(self):
        wire = _wire("dense")
        anchor = np.zeros(16)
        update = _update(np.linspace(-1, 1, 16))
        out, nbytes = wire.transmit(update, 0, anchor)
        assert out is update  # same object, zero numeric perturbation
        assert nbytes == wire.upload_nbytes(16, np.float64)

    def test_dense_never_accumulates_residuals(self):
        wire = _wire("dense")
        wire.transmit(_update(np.ones(8)), 0, np.zeros(8))
        assert wire.ef.residuals == {}
        assert wire.lossless


class TestErrorFeedback:
    def test_residual_is_untransmitted_mass(self):
        wire = _wire("topk", topk_frac=0.25)  # keeps 1 of 4 coords
        anchor = np.zeros(4)
        update = _update(np.array([10.0, 1.0, 2.0, 3.0]))
        out, _ = wire.transmit(update, 0, anchor)
        np.testing.assert_array_equal(out.weights, [10.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            wire.ef.residuals[3], [0.0, 1.0, 2.0, 3.0])

    def test_residual_carried_into_next_upload(self):
        wire = _wire("topk", topk_frac=0.25)
        anchor = np.zeros(4)
        wire.transmit(_update(np.array([10.0, 1.0, 2.0, 3.0])), 0, anchor)
        # Next round the same client sends a small delta: the carried
        # residual makes coordinate 3 (value 3 + 0.5) the top magnitude.
        out, _ = wire.transmit(_update(np.array([0.5, 0.5, 0.5, 0.5])), 1, anchor)
        np.testing.assert_array_equal(out.weights, [0.0, 0.0, 0.0, 3.5])

    def test_residuals_keyed_per_client(self):
        wire = _wire("topk", topk_frac=0.5)
        anchor = np.zeros(2)
        wire.transmit(_update(np.array([5.0, 1.0]), cid=0), 0, anchor)
        wire.transmit(_update(np.array([1.0, 5.0]), cid=1), 0, anchor)
        np.testing.assert_array_equal(wire.ef.residuals[0], [0.0, 1.0])
        np.testing.assert_array_equal(wire.ef.residuals[1], [1.0, 0.0])

    def test_no_error_feedback_drops_the_residual(self):
        wire = _wire("topk", topk_frac=0.25, error_feedback=False)
        anchor = np.zeros(4)
        wire.transmit(_update(np.array([10.0, 1.0, 2.0, 3.0])), 0, anchor)
        assert wire.ef.residuals == {}
        out, _ = wire.transmit(_update(np.array([0.5, 0.6, 0.5, 0.5])), 1, anchor)
        np.testing.assert_array_equal(out.weights, [0.0, 0.6, 0.0, 0.0])

    def test_ef_conserves_the_signal(self):
        """Transmitted mass plus the final residual equals the full
        summed signal exactly: EF never loses anything, it only delays."""
        wire = _wire("topk", topk_frac=0.25)
        anchor = np.zeros(4)
        delta = np.array([4.0, 3.0, 2.0, 1.0])
        total = np.zeros(4)
        for r in range(12):
            out, _ = wire.transmit(_update(delta), r, anchor)
            total += out.weights
        np.testing.assert_allclose(total + wire.ef.residuals[3], delta * 12)
        # ... and every coordinate got through at least once.
        assert np.all(total > 0)


class TestStats:
    def test_byte_ledger(self):
        wire = _wire("topk", topk_frac=0.1)
        dim, dtype = 1000, np.float64
        down = wire.record_downloads(4, dim, dtype)
        assert down == 4 * wire.download_nbytes(dim, dtype)
        for cid in range(4):
            wire.transmit(_update(np.random.default_rng(cid).standard_normal(dim),
                                  cid=cid), 0, np.zeros(dim))
        assert wire.stats.uploads == 4 and wire.stats.downloads == 4
        assert wire.stats.bytes_up == 4 * wire.upload_nbytes(dim, dtype)
        assert wire.stats.dense_bytes_up == 4 * wire.download_nbytes(dim, dtype)
        assert wire.stats.compression_ratio() > 5

    @pytest.mark.parametrize("codec", ["dense", "topk+qsgd8"])
    def test_ledger_follows_shape_changes(self, codec):
        """Sizes are cached per (dim, dtype); a new shape recomputes them."""
        wire = _wire(codec)
        expect_up = expect_dense = 0
        shapes = [(50, np.float64), (50, np.float64), (70, np.float64),
                  (70, np.float32), (50, np.float64)]
        for cid, (dim, dtype) in enumerate(shapes):
            w = np.random.default_rng(dim).standard_normal(dim).astype(dtype)
            update = ClientUpdate(client_id=cid, weights=w, loss_before=1.0,
                                  loss_after=0.5, n_samples=10)
            _, nbytes = wire.transmit(update, 0, np.zeros(dim, dtype))
            assert nbytes == wire.upload_nbytes(dim, dtype)
            expect_up += nbytes
            expect_dense += wire.download_nbytes(dim, dtype)
        assert wire.stats.bytes_up == expect_up
        assert wire.stats.dense_bytes_up == expect_dense

    def test_ratio_is_identity_before_any_upload(self):
        assert _wire("topk").stats.compression_ratio() == 1.0


class TestSnapshotRestore:
    def test_round_trip_with_live_residuals(self):
        wire = _wire("topk+qsgd8", topk_frac=0.25)
        anchor = np.zeros(8)
        for cid in range(3):
            wire.transmit(
                _update(np.arange(8, dtype=float) + cid, cid=cid), 0, anchor)
        state = wire.snapshot()
        fresh = _wire("topk+qsgd8", topk_frac=0.25)
        fresh.restore(state)
        assert set(fresh.ef.residuals) == set(wire.ef.residuals)
        for cid in wire.ef.residuals:
            np.testing.assert_array_equal(
                fresh.ef.residuals[cid], wire.ef.residuals[cid])
        assert fresh.stats.snapshot() == wire.stats.snapshot()

    def test_restored_run_continues_identically(self):
        a = _wire("topk", topk_frac=0.25)
        anchor = np.zeros(4)
        a.transmit(_update(np.array([10.0, 1.0, 2.0, 3.0])), 0, anchor)
        b = _wire("topk", topk_frac=0.25)
        b.restore(a.snapshot())
        nxt = _update(np.array([0.5, 0.5, 0.5, 0.5]))
        out_a, _ = a.transmit(nxt, 1, anchor)
        out_b, _ = b.transmit(nxt, 1, anchor)
        np.testing.assert_array_equal(out_a.weights, out_b.weights)

    def test_codec_mismatch_rejected(self):
        state = _wire("topk").snapshot()
        with pytest.raises(ValueError, match="codec"):
            _wire("qsgd8").restore(state)


class TestReadOnlyResiduals:
    """Residuals are immutable: absorb and restore hand out read-only
    arrays, which is what lets snapshots share them and checkpoints
    write each one once."""

    DIM = 1024  # 8 KiB float64 residuals: large enough for the array file

    def _sent(self, cids, index=0):
        wire = _wire("topk+qsgd8", topk_frac=0.1)
        self._send(wire, cids, index)
        return wire

    def _send(self, wire, cids, index):
        rng = np.random.default_rng(index)
        for cid in cids:
            wire.transmit(
                _update(rng.standard_normal(self.DIM), cid=cid), index,
                np.zeros(self.DIM))

    def test_absorbed_residual_is_read_only(self):
        wire = self._sent([0, 1])
        for residual in wire.ef.residuals.values():
            assert not residual.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                residual[0] = 1.0

    def test_restored_residual_is_read_only(self):
        fresh = _wire("topk+qsgd8", topk_frac=0.1)
        fresh.restore({**self._sent([0, 1]).snapshot(),
                       "residuals": {0: np.ones(self.DIM)}})
        residual = fresh.ef.residuals[0]
        assert not residual.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            residual += 1.0

    def test_restore_keeps_loaded_residuals_by_reference(self, tmp_path):
        """A loaded snapshot's residuals are read-only views of its array
        file: restore keeps them as they are (no copy, pages untouched)
        and copies only a writable residual, leaving the caller's alone."""
        path = str(tmp_path / "wire.ckpt")
        Checkpointer(path).save(self._sent([0, 1]).snapshot())
        state = load_snapshot(path)["state"]
        writable = np.ones(self.DIM)
        fresh = _wire("topk+qsgd8", topk_frac=0.1)
        fresh.restore({**state, "residuals": {**state["residuals"], 2: writable}})
        for cid in (0, 1):
            residual = fresh.ef.residuals[cid]
            assert residual is state["residuals"][cid]
            assert _mapping(residual) is not None and not residual.flags.writeable
        assert fresh.ef.residuals[2] is not writable and writable.flags.writeable

    def test_snapshot_shares_residuals_by_reference(self):
        wire = self._sent([0, 1])
        state = wire.snapshot()
        for cid, residual in wire.ef.residuals.items():
            assert state["residuals"][cid] is residual

    def test_second_save_appends_only_new_residuals(self, tmp_path):
        path = str(tmp_path / "wire.ckpt")
        wire = self._sent([0, 1, 2, 3])
        ck = Checkpointer(path)
        ck.save(wire.snapshot())
        arrays = os.path.join(tmp_path, "wire.ckpt.arrays-1")
        first = os.path.getsize(arrays)
        assert first == 4 * self.DIM * 8
        self._send(wire, [1, 5], index=1)  # one replaced, one new
        ck.save(wire.snapshot())
        assert os.path.getsize(arrays) - first == 2 * self.DIM * 8
        restored = load_snapshot(path)["state"]["residuals"]
        for cid, residual in wire.ef.residuals.items():
            np.testing.assert_array_equal(restored[cid], residual)


class TestAdoptedResiduals:
    """After a save, ``ErrorFeedback.adopt(checkpointer.mapped)`` swaps
    every residual that save wrote for a read-only view of the array
    file: the bits a resume from that save would hold."""

    DIM = TestReadOnlyResiduals.DIM

    def _send(self, wire, cids, index):
        rng = np.random.default_rng(index)
        for cid in cids:
            wire.transmit(
                _update(rng.standard_normal(self.DIM), cid=cid), index,
                np.zeros(self.DIM))

    def _saved(self, tmp_path, cids=(0, 1, 2)):
        wire = _wire("topk+qsgd8", topk_frac=0.1)
        self._send(wire, cids, 0)
        ck = Checkpointer(str(tmp_path / "wire.ckpt"))
        ck.save(wire.snapshot())
        return wire, ck

    @staticmethod
    def _on_current_file(ck, residual) -> bool:
        mapping = _mapping(residual)
        current = _file_id(os.path.join(ck.directory, ck._arrays))
        return mapping is not None and mapping.file_id == current

    def test_adopted_residuals_are_views_of_the_array_file(self, tmp_path):
        wire, ck = self._saved(tmp_path)
        heap = dict(wire.ef.residuals)
        wire.ef.adopt(ck.mapped)
        for cid, residual in wire.ef.residuals.items():
            assert residual is not heap[cid] and self._on_current_file(ck, residual)
            assert not residual.flags.writeable
            np.testing.assert_array_equal(residual, heap[cid])

    def test_mapped_passes_through_what_the_save_did_not_write(self, tmp_path):
        wire, ck = self._saved(tmp_path)
        other = np.ones(self.DIM)
        assert ck.mapped(other) is other
        self._send(wire, [0], 1)  # absorbed after the save
        fresh = wire.ef.residuals[0]
        wire.ef.adopt(ck.mapped)
        assert wire.ef.residuals[0] is fresh and _mapping(fresh) is None

    def test_an_adopted_run_continues_identically(self, tmp_path):
        wire, ck = self._saved(tmp_path)
        twin = _wire("topk+qsgd8", topk_frac=0.1)
        self._send(twin, (0, 1, 2), 0)
        wire.ef.adopt(ck.mapped)
        self._send(wire, [0, 1, 5], 1)
        self._send(twin, [0, 1, 5], 1)
        for cid, residual in twin.ef.residuals.items():
            np.testing.assert_array_equal(wire.ef.residuals[cid], residual)

    def test_a_save_of_adopted_residuals_writes_only_the_head(self, tmp_path):
        """The views keep their offsets in the file (a mapping starts where
        its save's extent did), so the next save references them."""
        wire, ck = self._saved(tmp_path)
        wire.ef.adopt(ck.mapped)
        self._send(wire, [1, 7], 1)  # one replaced, one new
        ck.save(wire.snapshot())
        assert ck.last_bytes - os.path.getsize(ck.path) == 2 * self.DIM * 8
        wire.ef.adopt(ck.mapped)
        ck.save(wire.snapshot())
        assert ck.last_bytes == os.path.getsize(ck.path)
        restored = load_snapshot(ck.path)["state"]["residuals"]
        for cid, residual in wire.ef.residuals.items():
            assert self._on_current_file(ck, residual)
            np.testing.assert_array_equal(restored[cid], residual)

    def test_a_new_checkpointer_finds_the_views_offsets(self, tmp_path):
        """A checkpointer that did not write the views (a restart on the
        same target) reads their offsets off their mappings, the second
        of which starts past the file's first byte, and continues."""
        wire, ck = self._saved(tmp_path)
        wire.ef.adopt(ck.mapped)
        self._send(wire, [1, 7], 1)
        ck.save(wire.snapshot())
        wire.ef.adopt(ck.mapped)
        again = Checkpointer(ck.path)
        again.save(wire.snapshot())
        assert again.last_bytes == os.path.getsize(ck.path)
        restored = load_snapshot(ck.path)["state"]["residuals"]
        for cid, residual in wire.ef.residuals.items():
            np.testing.assert_array_equal(restored[cid], residual)

    def test_a_compaction_rebinds_every_residual(self, tmp_path):
        """Replacing the residuals save after save pushes the file past 2x
        its live bytes: the compacting save writes a new generation, and
        adoption moves every residual onto it."""
        wire, ck = self._saved(tmp_path)
        generations = {ck._arrays}
        for index in range(1, 8):
            wire.ef.adopt(ck.mapped)
            self._send(wire, [index % 3], index)
            ck.save(wire.snapshot())
            wire.ef.adopt(ck.mapped)
            generations.add(ck._arrays)
            assert all(self._on_current_file(ck, r) for r in wire.ef.residuals.values())
        assert len(generations) > 1
        assert sorted(os.listdir(tmp_path)) == ["wire.ckpt", ck._arrays]

    def test_an_unmappable_file_leaves_the_residuals_on_the_heap(
            self, tmp_path, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise OSError("mmap refused")

        monkeypatch.setattr(checkpoint._ArrayFile, "__new__", refuse)
        wire, ck = self._saved(tmp_path)
        heap = dict(wire.ef.residuals)
        wire.ef.adopt(ck.mapped)
        assert all(wire.ef.residuals[cid] is r for cid, r in heap.items())
        monkeypatch.undo()
        restored = load_snapshot(ck.path)["state"]["residuals"]
        for cid, residual in heap.items():
            np.testing.assert_array_equal(restored[cid], residual)


class TestSeeding:
    def test_stochastic_rounding_keyed_by_cell(self):
        wire = _wire("qsgd8", error_feedback=False)
        delta = np.random.default_rng(0).standard_normal(2000)
        anchor = np.zeros_like(delta)

        def sent(index, cid):
            return wire.transmit(_update(delta, cid=cid), index, anchor)[0].weights

        a = sent(0, 1)
        np.testing.assert_array_equal(a, sent(0, 1))
        assert not np.array_equal(a, sent(1, 1))
        assert not np.array_equal(a, sent(0, 2))
