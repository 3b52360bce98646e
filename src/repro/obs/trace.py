"""Span-based tracing with dual timestamps: simulated *and* wall time.

Every record carries up to two clock domains:

* **sim** — :class:`~repro.runtime.clock.VirtualClock` seconds.  These
  fields are pure functions of the experiment seed (device profiles,
  jitter streams, fleet draws), so they are **bit-identical across the
  serial / thread / process backends** and across reruns.
* **wall** — host ``perf_counter`` seconds.  These describe where the
  *real* time went (executor dispatch, aggregation BLAS, worker-side
  training) and naturally differ between backends and machines.

The tracer is a bounded in-memory buffer of plain dicts; exceeding
``max_records`` drops new records (the count is reported in the export
header, and the export warns) rather than growing without bound or
stalling the run.  Nothing in this module draws random numbers, so
tracing can never perturb an experiment's RNG streams.

A run writes one artifact, :meth:`Tracer.export_jsonl`: a header line
(schema ``repro-trace/v1``, the record counts and the run's manifest),
then one record per line (see :func:`validate_record`).  The Chrome
``trace_event`` view, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``, is derived from a written trace on demand
(:func:`write_chrome`, ``python -m repro trace-summary PATH --chrome
OUT``): the two clock domains appear as two processes ("simulated time"
and "wall time"), with one thread track per client / server / worker.

Worker-side spans (measured inside executor processes) are shipped back
with task results and merged via :meth:`Tracer.add_worker_spans` — the
obs layer never writes shared state from worker processes.
"""

from __future__ import annotations

import json
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

from repro.obs.metrics import MetricsRegistry

TRACE_SCHEMA = "repro-trace/v1"

# Span phase categories (the trace-summary vocabulary).  "window" marks
# the top-level server-timeline spans (one per round / aggregation
# window) whose simulated durations tile the whole run; client-side
# spans classify the parallel device work inside them.
CAT_WINDOW = "window"
CAT_COMPUTE = "compute"
CAT_COMM = "comm"
CAT_QUEUE_WAIT = "queue_wait"
CAT_AGGREGATION = "aggregation"
CAT_IDLE = "idle"
CAT_RUNTIME = "runtime"
CAT_FLEET = "fleet"
CATEGORIES = (
    CAT_WINDOW, CAT_COMPUTE, CAT_COMM, CAT_QUEUE_WAIT,
    CAT_AGGREGATION, CAT_IDLE, CAT_RUNTIME, CAT_FLEET,
)

_RECORD_TYPES = ("span", "instant", "metrics")


def _json_default(obj):
    """Coerce numpy scalars (span args often carry ``np.int64`` client
    ids) to native Python at export time — keeps the hot recording path
    free of per-field conversions."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def validate_record(rec: dict) -> None:
    """Raise ``ValueError`` unless ``rec`` is a well-formed trace record."""
    if not isinstance(rec, dict):
        raise ValueError(f"record must be a dict, got {type(rec).__name__}")
    rtype = rec.get("type")
    if rtype not in _RECORD_TYPES:
        raise ValueError(f"record type must be one of {_RECORD_TYPES}, got {rtype!r}")
    if rtype == "metrics":
        for key in ("counters", "gauges", "histograms"):
            if not isinstance(rec.get(key), dict):
                raise ValueError(f"metrics record needs a {key!r} dict")
        for key in ("sim_t", "wall_t"):
            if rec.get(key) is not None and not isinstance(rec[key], (int, float)):
                raise ValueError(f"metrics {key} must be a number or None")
        return
    for key in ("name", "cat", "track"):
        if not isinstance(rec.get(key), str) or not rec[key]:
            raise ValueError(f"{rtype} record needs a non-empty string {key!r}")
    if rec["cat"] not in CATEGORIES:
        raise ValueError(f"cat must be one of {CATEGORIES}, got {rec['cat']!r}")
    if not isinstance(rec.get("args", {}), dict):
        raise ValueError("args must be a dict when present")
    if rtype == "instant":
        time_fields = ("sim_t", "wall_t")
    else:
        time_fields = ("sim_t0", "sim_dur", "wall_t0", "wall_dur")
    present = False
    for key in time_fields:
        value = rec.get(key)
        if value is None:
            continue
        if not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number or None")
        if key.endswith("_dur") and value < -1e-9:
            raise ValueError(f"{key} must be non-negative, got {value}")
        present = True
    if not present:
        raise ValueError(f"{rtype} record has no timestamps in either clock domain")


class Tracer:
    """Bounded in-memory trace buffer with a metrics registry attached.

    Engines hold ``tracer=None`` when tracing is disabled and guard every
    call site with an ``is not None`` check — the disabled path costs one
    branch per site and allocates nothing.
    """

    def __init__(
        self,
        max_records: int = 200_000,
        metrics: MetricsRegistry | None = None,
        metrics_interval: float = 0.0,
    ) -> None:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        if metrics_interval < 0:
            raise ValueError("metrics_interval must be >= 0")
        self.max_records = max_records
        self.records: list[dict] = []
        self.dropped_records = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics_interval = metrics_interval
        self._last_snapshot_t: float | None = None

    # -- recording ------------------------------------------------------------
    def _append(self, rec: dict) -> None:
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        self.records.append(rec)

    def span(
        self,
        name: str,
        cat: str,
        *,
        track: str = "server",
        sim_t0: float | None = None,
        sim_dur: float | None = None,
        wall_t0: float | None = None,
        wall_dur: float | None = None,
        **args,
    ) -> None:
        """Record one completed span (durations already known)."""
        rec = {
            "type": "span",
            "name": name,
            "cat": cat,
            "track": track,
            "sim_t0": sim_t0,
            "sim_dur": sim_dur,
            "wall_t0": wall_t0,
            "wall_dur": wall_dur,
        }
        if args:
            rec["args"] = args
        self._append(rec)

    def instant(
        self,
        name: str,
        cat: str,
        *,
        track: str = "server",
        sim_t: float | None = None,
        wall_t: float | None = None,
        **args,
    ) -> None:
        """Record a point event (a dropout decision, a deadline cut)."""
        rec = {
            "type": "instant",
            "name": name,
            "cat": cat,
            "track": track,
            "sim_t": sim_t,
            "wall_t": wall_t,
        }
        if args:
            rec["args"] = args
        self._append(rec)

    @contextmanager
    def wall_span(
        self,
        name: str,
        cat: str,
        *,
        track: str = "server",
        sim_t0: float | None = None,
        **args,
    ):
        """Context manager measuring a wall-time span around a block.

        Wall timestamps are epoch seconds (``time.time``) so spans from
        worker processes land on the same axis; durations come from
        ``perf_counter`` for resolution.
        """
        t0 = time.time()
        p0 = time.perf_counter()
        try:
            yield
        finally:
            self.span(
                name, cat, track=track, sim_t0=sim_t0,
                wall_t0=t0, wall_dur=time.perf_counter() - p0, **args,
            )

    def add_worker_spans(self, spans: list[dict]) -> None:
        """Merge spans measured inside executor workers (already dicts)."""
        for rec in spans:
            self._append(rec)

    # -- metric snapshots -----------------------------------------------------
    def snapshot_metrics(self, sim_t: float | None = None) -> None:
        """Dump the registry's current state into the trace stream."""
        snap = self.metrics.snapshot()
        snap.update({
            "type": "metrics",
            "sim_t": sim_t,
            "wall_t": time.time(),
        })
        self._append(snap)
        if sim_t is not None:
            self._last_snapshot_t = sim_t

    def maybe_snapshot(self, sim_t: float) -> None:
        """Periodic snapshot: emit when ``metrics_interval`` simulated
        seconds have passed since the last one (0 disables)."""
        if self.metrics_interval <= 0:
            return
        if (
            self._last_snapshot_t is None
            or sim_t - self._last_snapshot_t >= self.metrics_interval
        ):
            self.snapshot_metrics(sim_t)

    # -- export ---------------------------------------------------------------
    def export_jsonl(self, path: str | Path, manifest: dict | None = None) -> Path:
        """The run's trace: a header line (carrying ``manifest`` when
        given), then one record per line, then the final metrics."""
        path = Path(path)
        if self.dropped_records:
            warnings.warn(
                f"trace {path}: {self.dropped_records} records dropped past "
                f"max_records={self.max_records}", RuntimeWarning, stacklevel=2,
            )
        header = {"type": "header", "schema": TRACE_SCHEMA,
                  "records": len(self.records),
                  "dropped_records": self.dropped_records}
        if manifest is not None:
            header["manifest"] = manifest
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec, default=_json_default) + "\n")
            final = self.metrics.snapshot()
            final.update({"type": "metrics", "sim_t": None, "wall_t": None,
                          "final": True})
            fh.write(json.dumps(final, default=_json_default) + "\n")
        return path


# -- Chrome trace_event conversion ------------------------------------------

_SIM_PID = 1
_WALL_PID = 2


def _wall_epoch(records: list[dict]) -> float:
    starts = [
        r["wall_t0"] for r in records
        if r.get("type") == "span" and r.get("wall_t0") is not None
    ]
    starts += [
        r["wall_t"] for r in records
        if r.get("type") in ("instant", "metrics") and r.get("wall_t") is not None
    ]
    return min(starts) if starts else 0.0


def chrome_events(records: list[dict]) -> list[dict]:
    """Convert trace records into Chrome ``trace_event`` dicts.

    Simulated-time records land in process 1 ("simulated time"), wall
    records in process 2 ("wall time"); a record carrying both clocks
    appears in both.  Thread ids are assigned per track in first-seen
    order — deterministic, because record order is.
    """
    tids: dict[tuple[int, str], int] = {}
    n_tracks = {_SIM_PID: 0, _WALL_PID: 0}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": _SIM_PID, "tid": 0,
         "args": {"name": "simulated time"}},
        {"ph": "M", "name": "process_name", "pid": _WALL_PID, "tid": 0,
         "args": {"name": "wall time"}},
    ]
    epoch = _wall_epoch(records)

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            tids[key] = n_tracks[pid] = n_tracks[pid] + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tids[key],
                "args": {"name": track},
            })
        return tids[key]

    for rec in records:
        rtype = rec.get("type")
        args = rec.get("args", {})
        if rtype == "span":
            if rec.get("sim_t0") is not None:
                events.append({
                    "ph": "X", "name": rec["name"], "cat": rec["cat"],
                    "pid": _SIM_PID, "tid": tid_for(_SIM_PID, rec["track"]),
                    "ts": rec["sim_t0"] * 1e6,
                    "dur": (rec.get("sim_dur") or 0.0) * 1e6,
                    "args": args,
                })
            if rec.get("wall_t0") is not None:
                events.append({
                    "ph": "X", "name": rec["name"], "cat": rec["cat"],
                    "pid": _WALL_PID, "tid": tid_for(_WALL_PID, rec["track"]),
                    "ts": (rec["wall_t0"] - epoch) * 1e6,
                    "dur": (rec.get("wall_dur") or 0.0) * 1e6,
                    "args": args,
                })
        elif rtype == "instant":
            if rec.get("sim_t") is not None:
                events.append({
                    "ph": "i", "s": "t", "name": rec["name"], "cat": rec["cat"],
                    "pid": _SIM_PID, "tid": tid_for(_SIM_PID, rec["track"]),
                    "ts": rec["sim_t"] * 1e6, "args": args,
                })
            if rec.get("wall_t") is not None:
                events.append({
                    "ph": "i", "s": "t", "name": rec["name"], "cat": rec["cat"],
                    "pid": _WALL_PID, "tid": tid_for(_WALL_PID, rec["track"]),
                    "ts": (rec["wall_t"] - epoch) * 1e6, "args": args,
                })
        elif rtype == "metrics" and rec.get("sim_t") is not None:
            ts = rec["sim_t"] * 1e6
            for name, value in rec.get("counters", {}).items():
                events.append({
                    "ph": "C", "name": name, "pid": _SIM_PID,
                    "tid": tid_for(_SIM_PID, "metrics"),
                    "ts": ts, "args": {"value": value},
                })
            for name, value in rec.get("gauges", {}).items():
                events.append({
                    "ph": "C", "name": name, "pid": _SIM_PID,
                    "tid": tid_for(_SIM_PID, "metrics"),
                    "ts": ts, "args": {"value": value},
                })
    return events


def read_trace(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a JSONL trace back: ``(header, records)``."""
    header: dict = {}
    records: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "header":
                header = rec
            else:
                records.append(rec)
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"not a {TRACE_SCHEMA} trace: {path} "
            f"(schema={header.get('schema')!r})"
        )
    return header, records


def write_chrome(path: str | Path, header: dict, records: list[dict]) -> Path:
    """Write a read-back trace as Chrome ``trace_event`` JSON (open in
    Perfetto); ``otherData`` is the trace's header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"traceEvents": chrome_events(records), "displayTimeUnit": "ms",
         "otherData": header},
    ))
    return path
