"""Kill-safe run snapshots: atomic save/load plus a periodic stepper.

A snapshot is two files in one directory:

* the **head** at the target path: one pickle holding a schema tag,
  caller-supplied metadata (the harness stores a config fingerprint
  there) and the engine's state dict;
* an append-only **array file** beside it, ``<target>.arrays-<gen>``,
  written only when the state holds an *external* array: a read-only
  ``np.ndarray`` that owns (or maps, see below) its C-contiguous data and
  is at least :data:`MIN_EXTERNAL_NBYTES` (the error-feedback residuals).
  Such an array is appended the first time a :class:`Checkpointer` sees
  that object (identity checked through a weak reference, so a recycled
  ``id()`` cannot alias) and pickled as an ``(array file, offset, dtype,
  shape)`` reference from then on, so a save writes only the arrays that
  appeared since the previous one.  Read-only is the promise that makes
  this safe: whoever holds such an array never writes into it.

:func:`load_snapshot` maps each array file read-only and resolves every
reference to a view of it, so a load costs the head.  After each save a
:class:`Checkpointer` maps the extent that save appended and offers the
same kind of view for every array it wrote (:meth:`Checkpointer.mapped`),
so a running owner can drop its heap copies and hold what a resume from
that save would.  A :class:`Checkpointer` whose first save holds views of
its head's own array file appends to that file past the end the head
references; otherwise it starts a new generation.  Unlinking a mapped file
is safe, but truncating one below a view's bytes makes reading them raise
SIGBUS: nothing here cuts below a head's end.

Writes are crash-atomic: the head is pickled into a temp file in the
destination directory, the new arrays are appended past everything the
current head references and fsync'd, then the head is fsync'd and
``os.replace``'d over the target — a SIGKILL at any instant leaves either
the previous complete snapshot or the new complete snapshot, never a torn
one.  A save that would leave the array file above twice the bytes its
head references writes the live arrays into a new generation instead and
deletes the old one after the replace, so the disk holds at most 2x the
live arrays and the bytes written over a run stay linear in its length.
A starting :class:`Checkpointer` deletes the generations of its target
that the head does not reference.  The head names its array file relative
to its own directory: moving a snapshot means moving both files.

A save pickles ``state`` before it returns, so callers may pass live state.
"""

from __future__ import annotations

import glob
import itertools
import math
import os
import pickle
import pickletools
import re
import tempfile
import weakref

import numpy as np

SNAPSHOT_SCHEMA = "repro-checkpoint/v3"
# Written before every generator derived from repro.runtime.seeding, so a
# resume would rebuild a different dataset and clock beneath their history.
_REFUSED_SCHEMAS = ("repro-checkpoint/v1", "repro-checkpoint/v2")
MIN_EXTERNAL_NBYTES = 4096


class CheckpointError(ValueError):
    """The file is truncated, empty, corrupted or not a snapshot at all."""


def _tmp_prefix(path: str) -> str:
    """In-flight temp files carry their target's name, so a stale one is
    told apart from a neighbour's live write."""
    return f".ckpt-{os.path.basename(path)}-"


class _ArrayFile(np.memmap):
    """An array file (or, after a save, the extent it appended) mapped
    read-only, with its :func:`_file_id`: views match that very file,
    never a namesake."""


def _file_id(file) -> tuple[int, int]:
    """``(st_dev, st_ino)`` of a path or a file descriptor."""
    st = os.stat(file)
    return st.st_dev, st.st_ino


def _mapping(obj: np.ndarray) -> _ArrayFile | None:
    """The array file ``obj`` is a view of, if :func:`load_snapshot` or a
    :class:`Checkpointer` mapped it (a view's ``.base`` chain ends there).
    A mapping may start past the file's first byte, at its ``.offset``."""
    base = obj.base
    while type(base) is np.ndarray:
        base = base.base
    return base if isinstance(base, _ArrayFile) else None


def _external(obj) -> bool:
    """True for the arrays a snapshot stores in its array file."""
    return (
        type(obj) is np.ndarray
        and not obj.flags.writeable
        and (obj.flags.owndata or _mapping(obj) is not None)
        and obj.flags.c_contiguous
        and obj.nbytes >= MIN_EXTERNAL_NBYTES
        and not obj.dtype.hasobject
    )


def _array_ref(arrays, offset, dtype, shape):
    """What an external array pickles as; only :func:`load_snapshot`
    (which swaps this global for a view of the array file) resolves it."""
    raise CheckpointError("an array reference resolves only through load_snapshot")


class _StatePickler(pickle.Pickler):
    """Pickles a payload with every external array as a reference into the
    array file ``arrays``: an array in ``known`` (id -> (weakref, offset))
    or mapped from that file (``file_id``) keeps its offset, any other is
    queued in ``new`` at the next free offset, starting at ``end``.  Without
    an array file yet, the first external array names one via ``new_file()``."""

    def __init__(self, file, known: dict, end: int, arrays: str | None,
                 file_id: tuple | None, new_file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.known, self.end, self.arrays = known, end, arrays
        self.file_id, self.new_file = file_id, new_file
        self.new: list[tuple[np.ndarray, int]] = []
        self.live = 0  # bytes the references point at
        self.inherited = 0  # ... of which are mapped from ``arrays``

    def reducer_override(self, obj):
        if not _external(obj):
            return NotImplemented
        hit = self.known.get(id(obj))
        mapping = _mapping(obj)
        if hit is not None and hit[0]() is obj:
            offset = hit[1]
        elif mapping is not None and mapping.file_id == self.file_id:
            offset = obj.ctypes.data - mapping.ctypes.data + mapping.offset
            self.inherited += obj.nbytes
        else:
            if self.arrays is None:
                self.arrays = self.new_file()
            offset = self.end
            self.end += obj.nbytes
            self.new.append((obj, offset))
        self.live += obj.nbytes
        return _array_ref, (self.arrays, offset, obj.dtype, obj.shape)


class _StateUnpickler(pickle.Unpickler):
    """Resolves array references to read-only views of the array files
    (mapped on first use, in the head's directory, kept in ``files``)."""

    def __init__(self, file, path: str, files: dict) -> None:
        super().__init__(file)
        self.directory = os.path.dirname(os.path.abspath(path))
        self.path, self.files = path, files

    def find_class(self, module, name):
        if module == __name__ and name == "_array_ref":
            return self._read_array
        return super().find_class(module, name)

    def _read_array(self, arrays, offset, dtype, shape):
        arrays_path = os.path.join(self.directory, arrays)
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        mapping = self.files.get(arrays_path)
        try:  # the size first: an empty file cannot be mapped
            size = os.path.getsize(arrays_path) if mapping is None else mapping.size
            if mapping is None and offset + nbytes <= size:
                with open(arrays_path, "rb") as f:
                    mapping = self.files[arrays_path] = _ArrayFile(f, np.uint8, "r")
                    mapping.file_id = _file_id(f.fileno())
        except OSError as exc:
            raise CheckpointError(
                f"{arrays_path} (the array file of {self.path}) cannot "
                f"be read: {exc}"
            ) from exc
        if offset + nbytes > size:
            raise CheckpointError(
                f"{arrays_path} is short: {self.path} references "
                f"{nbytes} bytes at offset {offset}"
            )
        return np.ndarray(shape, dtype, buffer=mapping, offset=offset)


class _ReferenceScan(_StateUnpickler):
    """Reads a head without its arrays: the end it references in each file."""

    def _read_array(self, arrays, offset, dtype, shape):
        end = offset + np.dtype(dtype).itemsize * math.prod(shape)
        self.files[arrays] = max(end, self.files.get(arrays, 0))


def _unpickle(path: str, unpickler: pickle.Unpickler):
    try:
        return unpickler.load()
    except CheckpointError:
        raise
    except Exception as exc:  # EOFError, UnpicklingError, bad opcodes, ...
        raise CheckpointError(
            f"{path} is not a readable snapshot ({type(exc).__name__}: {exc})"
        ) from exc


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by :class:`Checkpointer` or
    :func:`save_snapshot`; schema-checked.

    Anything unreadable raises :class:`CheckpointError` naming the file —
    the array file, when that is what is missing or short — and so does a
    snapshot of a refused (pre-seeding-rule) schema."""
    with open(path, "rb") as f:
        # Every writer pickles "schema" first: read its tag off the first
        # opcodes, building no object, so a refused snapshot is named as
        # such even when its state no longer unpickles.
        try:
            head = [arg for _, arg, _ in itertools.islice(pickletools.genops(f), 8)
                    if isinstance(arg, str)]
        except ValueError:  # not a pickle: reported below
            head = []
    if len(head) > 1 and head[0] == "schema" and head[1] in _REFUSED_SCHEMAS:
        raise CheckpointError(
            f"{path} is a {head[1]} snapshot, refused: it predates the stream "
            f"derivation of repro.runtime.seeding, so resuming it would "
            f"rebuild a different dataset and clock beneath its history"
        )
    with open(path, "rb") as f:
        payload = _unpickle(path, _StateUnpickler(f, path, {}))
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SNAPSHOT_SCHEMA:
        raise CheckpointError(
            f"{path} is not a {SNAPSHOT_SCHEMA} snapshot (schema={schema!r})"
        )
    return payload


def _referenced_arrays(path: str) -> dict | None:
    """:class:`_ReferenceScan` of the head at ``path`` (empty without a
    head); None when the head does not parse."""
    ends: dict = {}
    try:
        with open(path, "rb") as f:
            _ReferenceScan(f, path, ends).load()
    except FileNotFoundError:
        return {}
    except Exception:  # a damaged head: reporting it is load_snapshot's job
        return None
    return ends


def save_snapshot(path: str, state: dict, meta: dict | None = None) -> int:
    """Atomically write ``state`` (plus ``meta``) to ``path``: one save of
    a fresh :class:`Checkpointer`.  Returns the bytes written."""
    return Checkpointer(path, meta=meta).save(state)


class Checkpointer:
    """Saves a snapshot every ``every`` completed units of work.

    The engine calls :meth:`step` after each round (sync) or aggregation
    flush (async) with a zero-argument callable producing its state dict;
    the callable only runs on the steps that actually save, and may
    return live state: it is pickled before ``step`` returns.
    ``last_bytes`` is what the latest save wrote (head + array file);
    :meth:`mapped` swaps an array that save wrote for its view of the file.
    """

    def __init__(self, path: str, every: int = 1, meta: dict | None = None) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.directory = os.path.dirname(os.path.abspath(path))
        # A SIGKILL mid-write strands this target's temp file; nothing
        # else ever deletes it.
        stem = os.path.join(self.directory, _tmp_prefix(path))
        for stale in glob.glob(glob.escape(stem) + "*.tmp"):
            os.unlink(stale)
        self.path = path
        self.every = every
        self.meta = dict(meta or {})
        self.steps = 0
        self.saves = 0
        self.last_bytes = 0
        self._pattern = re.compile(
            re.escape(os.path.basename(path)) + r"\.arrays-(\d+)")
        # The array files the head on disk references (None: unknown).
        self._head_arrays = _referenced_arrays(path)
        self._next_gen = self._sweep_generations() + 1
        # The array file this checkpointer appends to, its committed size
        # and id, and the arrays it wrote there: id -> (weakref, offset).
        # It starts as the head's own, kept by a first save that saves
        # arrays mapped from there.
        self._arrays, self._end, self._file_id = None, 0, None
        for name, end in (self._head_arrays or {}).items():
            own = os.path.join(self.directory, name)
            if self._pattern.fullmatch(name) and os.path.exists(own):
                self._arrays, self._end, self._file_id = name, end, _file_id(own)
        self._known: dict[int, tuple[weakref.ref, int]] = {}
        # The latest save's arrays as views of the file: id -> (weakref, view).
        self._views: dict[int, tuple[weakref.ref, np.ndarray]] = {}

    def _sweep_generations(self) -> int:
        """Delete this target's array files the head does not reference (a
        kill can strand a new generation or an old one); returns the
        highest generation number seen.  An unreadable head keeps them all."""
        if not os.path.isdir(self.directory):
            return 0
        highest = 0
        for name in os.listdir(self.directory):
            match = self._pattern.fullmatch(name)
            if match is None:
                continue
            highest = max(highest, int(match.group(1)))
            if self._head_arrays is not None and name not in self._head_arrays:
                os.unlink(os.path.join(self.directory, name))
        return highest

    def _new_file(self) -> str:
        """Name the next generation of this target's array file."""
        self._next_gen += 1
        return f"{os.path.basename(self.path)}.arrays-{self._next_gen - 1}"

    def step(self, state_fn) -> bool:
        """Count one completed unit; save when the interval divides it."""
        self.steps += 1
        if self.steps % self.every != 0:
            return False
        self.save(state_fn())
        return True

    def save(self, state: dict) -> int:
        """Atomically write ``state`` as the snapshot at :attr:`path`;
        returns the bytes written (head + arrays appended)."""
        payload = {"schema": SNAPSHOT_SCHEMA, "meta": self.meta, "state": state}
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=_tmp_prefix(self.path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickled = self._pickle(f, payload, self._known, self._end,
                                       self._arrays, self._file_id)
                if pickled.end > 2 * pickled.live or (
                        self._arrays and not (self.saves or pickled.inherited)):
                    # The array file would hold more dead bytes than live
                    # ones, or is the head's and nothing saved came from
                    # it: write the live arrays into a new generation.
                    f.seek(0)
                    f.truncate()
                    pickled = self._pickle(f, payload, {}, 0, None, None)
                written = self._append(pickled) if pickled.new else 0
                f.flush()
                os.fsync(f.fileno())
                written += f.tell()
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # Committed: the head on disk now references ``pickled.arrays``.
        for obj, offset in pickled.new:
            pickled.known[id(obj)] = (weakref.ref(obj), offset)
        self._arrays, self._known, self._end = pickled.arrays, pickled.known, pickled.end
        self._file_id = pickled.file_id
        # The replaced head's array files this target owns (a copied
        # head may name another target's), unless still in use.
        for name in self._head_arrays or ():
            if name != self._arrays and self._pattern.fullmatch(name):
                os.unlink(os.path.join(self.directory, name))
        self._head_arrays = {} if self._arrays is None else {self._arrays: self._end}
        self._views = self._map(pickled)
        self.saves += 1
        self.last_bytes = written
        return written

    def mapped(self, array: np.ndarray) -> np.ndarray:
        """The read-only view of the array file that the latest save wrote
        ``array`` to (equal bits, what :func:`load_snapshot` would return
        for it), or ``array`` itself when that save did not write it or
        could not map the file."""
        hit = self._views.get(id(array))
        return hit[1] if hit is not None and hit[0]() is array else array

    def _map(self, pickled: _StatePickler) -> dict:
        """Views of the arrays a committed save appended, through one
        mapping of only the extent it appended (a whole-file map per save
        would hold O(saves x file) of address space), each known at its
        offset; none when the file cannot be mapped, so the arrays stay
        where they are."""
        if not pickled.new:
            return {}
        start = pickled.new[0][1]
        try:
            with open(os.path.join(self.directory, pickled.arrays), "rb") as f:
                if _file_id(f.fileno()) != pickled.file_id:
                    return {}  # a namesake, not the file this save wrote
                mapping = _ArrayFile(f, np.uint8, "r", offset=start,
                                     shape=(pickled.end - start,))
        except OSError:
            return {}
        mapping.file_id = pickled.file_id
        views = {}
        for obj, offset in pickled.new:
            view = np.ndarray(obj.shape, obj.dtype, buffer=mapping,
                              offset=offset - start)
            views[id(obj)] = (weakref.ref(obj), view)
            self._known[id(view)] = (weakref.ref(view), offset)
        return views

    def _pickle(self, f, payload, known, end, arrays, file_id) -> _StatePickler:
        pickled = _StatePickler(f, known, end, arrays, file_id, self._new_file)
        pickled.dump(payload)
        return pickled

    def _append(self, pickled: _StatePickler) -> int:
        """Write the new arrays at their offsets, cut anything a failed save
        left beyond them (never below the head's end: a mapping may read
        up to it), and fsync; returns the bytes written."""
        start = pickled.new[0][1]
        path = os.path.join(self.directory, pickled.arrays)
        with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o644), "r+b") as f:
            f.seek(start)
            for obj, _ in pickled.new:
                f.write(obj)
            f.truncate(pickled.end)
            f.flush()
            os.fsync(f.fileno())
            pickled.file_id = _file_id(f.fileno())
        return pickled.end - start
