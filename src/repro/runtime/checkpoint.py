"""Kill-safe run snapshots: atomic save/load plus a periodic stepper.

A snapshot is one pickle holding a schema tag, caller-supplied metadata
(the harness stores a config fingerprint there), and the engine's full
state dict.  Writes are crash-atomic: the payload goes to a temp file in
the destination directory, is fsync'd, and then ``os.replace``'d over
the target — a SIGKILL at any instant leaves either the previous
complete snapshot or the new complete snapshot, never a torn file.

A save is one serialization pass: ``state`` is pickled straight into the
temp file before ``save_snapshot`` returns, so callers may pass live state.
"""

from __future__ import annotations

import glob
import os
import pickle
import tempfile

SNAPSHOT_SCHEMA = "repro-checkpoint/v1"


class CheckpointError(ValueError):
    """The file is truncated, empty, corrupted or not a snapshot at all."""


def _tmp_prefix(path: str) -> str:
    """In-flight temp files carry their target's name, so a stale one is
    told apart from a neighbour's live write."""
    return f".ckpt-{os.path.basename(path)}-"


def save_snapshot(path: str, state: dict, meta: dict | None = None) -> None:
    """Atomically write ``state`` (plus ``meta``) to ``path``."""
    payload = {"schema": SNAPSHOT_SCHEMA, "meta": dict(meta or {}), "state": state}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=_tmp_prefix(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by :func:`save_snapshot`; schema-checked.

    Anything unreadable raises :class:`CheckpointError` naming the file."""
    with open(path, "rb") as f:
        try:
            payload = pickle.load(f)
        except Exception as exc:  # EOFError, UnpicklingError, bad opcodes, ...
            raise CheckpointError(
                f"{path} is not a readable snapshot "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
        raise CheckpointError(
            f"{path} is not a {SNAPSHOT_SCHEMA} snapshot "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    return payload


class Checkpointer:
    """Saves a snapshot every ``every`` completed units of work.

    The engine calls :meth:`step` after each round (sync) or aggregation
    flush (async) with a zero-argument callable producing its state dict;
    the callable only runs on the steps that actually save, and may
    return live state: it is pickled before ``step`` returns.
    """

    def __init__(self, path: str, every: int = 1, meta: dict | None = None) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        # A SIGKILL mid-write strands this target's temp file; nothing
        # else ever deletes it.
        stem = os.path.join(os.path.dirname(os.path.abspath(path)), _tmp_prefix(path))
        for stale in glob.glob(glob.escape(stem) + "*.tmp"):
            os.unlink(stale)
        self.path = path
        self.every = every
        self.meta = dict(meta or {})
        self.steps = 0
        self.saves = 0

    def step(self, state_fn) -> bool:
        """Count one completed unit; save when the interval divides it."""
        self.steps += 1
        if self.steps % self.every != 0:
            return False
        save_snapshot(self.path, state_fn(), meta=self.meta)
        self.saves += 1
        return True
