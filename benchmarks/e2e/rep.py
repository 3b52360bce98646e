"""One rep: run one workload once through ``run_experiment`` and report.

Started by ``run.py`` as a fresh process per rep, so cold start and peak RSS
are per run, as a user pays them.  Reads a JSON spec on stdin and prints one
JSON object as the last line of stdout:

spec    ``{"config": {...ExperimentConfig kwargs...}, "traced": bool,
          "skip_rows": [...], "spawn_t": epoch seconds, "floor": float}``
result  end-to-end measurements, the correctness verdicts of this rep, and
        (traced reps) the per-layer table.

Timed reps carry two hooks only: a timer around ``runner.build_simulation``
(splits set-up from the run) and a ``perf_counter`` stamp per
``History.append`` (one per round or flush).  Both patch module/class
attributes, never instances, so nothing extra is pickled into checkpoints.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from time import perf_counter


def _trace_records(path: str) -> tuple[dict, list[dict]]:
    """Parse the program's ``repro-trace/v1`` JSONL: (header, records)."""
    header, records = {}, []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("type") == "header":
                    header = rec
                else:
                    records.append(rec)
    if header.get("schema") != "repro-trace/v1":
        raise ValueError(f"{path}: not a repro-trace/v1 file")
    return header, records


def expected_windows(cfg, history) -> int:
    """Rounds (sync) or buffer flushes (fedbuff) this run must have made."""
    if cfg.aggregation == "sync":
        return cfg.resolved("rounds")
    kept = sum(1 for e in history.events if not e.dropped)
    return math.ceil(kept / cfg.buffer_size)


def main() -> int:
    spec = json.load(sys.stdin)
    traced = spec["traced"]

    t0 = perf_counter()
    from repro.fl.simulation import History
    from repro.harness import runner
    from repro.harness.config import ExperimentConfig
    from repro.harness.reporting import history_digest
    from repro.runtime.checkpoint import load_snapshot
    import_s = perf_counter() - t0

    cfg = ExperimentConfig(**spec["config"])

    stamps: list[float] = []
    original_append = History.append

    def append(self, record):
        original_append(self, record)
        stamps.append(perf_counter())

    History.append = append

    build: dict = {}
    original_build = runner.build_simulation

    def build_simulation(*args, **kwargs):
        start = perf_counter()
        sim = original_build(*args, **kwargs)
        build.update(start=start, end=perf_counter(), epoch=time.time(), sim=sim)
        return sim

    runner.build_simulation = build_simulation

    recorder = None
    missing: list[str] = []
    resident = [0]
    if traced:
        import spans
        from repro.fleet.scale import LazyClientPool

        original_ensure = LazyClientPool.ensure

        def ensure(self, ids):
            out = original_ensure(self, ids)
            resident[0] = max(resident[0], self.materialized)
            return out

        LazyClientPool.ensure = ensure
        recorder = spans.SpanRecorder()
        missing = spans.install(recorder, frozenset(spec.get("skip_rows", ())))
        root = recorder.enter(spans.ROOT)

    run_start = perf_counter()
    result = runner.run_experiment(cfg)
    run_end = perf_counter()
    if traced:
        recorder.exit(root)

    history = result.history
    records = history.records
    sim = build["sim"]
    build_s = build["end"] - build["start"]
    edges = [build["end"], *stamps]
    windows_ms = [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]
    sim_total = history.total_sim_time()
    accuracy = records[-1].test_accuracy

    failures = []
    if accuracy is None or accuracy < spec["floor"]:
        failures.append(f"final_accuracy {accuracy} below floor {spec['floor']}")
    want = expected_windows(cfg, history)
    if len(windows_ms) != want:
        failures.append(f"{len(windows_ms)} windows, expected {want}")
    trace_header, trace_records = {}, []
    if cfg.trace is not None:
        try:
            trace_header, trace_records = _trace_records(cfg.trace)
        except (OSError, ValueError) as exc:
            failures.append(f"trace does not parse: {exc}")
        else:
            tiled = sum(
                r["sim_dur"] for r in trace_records
                if r.get("type") == "span" and r.get("cat") == "window"
            )
            if abs(tiled - sim_total) > 1e-9 * max(1.0, abs(sim_total)):
                failures.append(
                    f"window sim durations sum to {tiled!r}, "
                    f"total_sim_time() is {sim_total!r}"
                )
    checkpoint_bytes = 0
    if cfg.checkpoint_path is not None:
        try:
            load_snapshot(cfg.checkpoint_path)
            checkpoint_bytes = os.path.getsize(cfg.checkpoint_path)
        except Exception as exc:  # any failure to load is the finding
            failures.append(f"checkpoint does not load: {exc!r}")
    ratio = history.wire_compression_ratio()
    if cfg.codec != "dense" and not ratio > 1.0:
        failures.append(f"compression ratio {ratio} is not above 1")

    out = {
        "failures": failures,
        "digest": history_digest(history),
        "setup_s": build["epoch"] - spec["spawn_t"],
        "wall_s": (run_end - run_start) - build_s,
        "run_s": run_end - run_start,
        "updates": sum(len(r.participants) for r in records),
        "windows_ms": windows_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_accuracy": accuracy,
        "sim_makespan_s": sim_total,
    }
    if traced:
        rows = spans.self_times(recorder.spans)
        worker_spans = [
            r for r in trace_records
            if r.get("type") == "span" and r.get("name") == "worker.local_train"
        ]
        counters = {}
        for r in trace_records:
            if r.get("type") == "metrics" and r.get("final"):
                counters = r.get("counters", {})
        is_process = cfg.backend == "process"
        agent = getattr(sim.strategy, "agent", None)
        out["traced"] = {
            "rows": rows,
            "missing_targets": missing,
            "import_s": import_s,
            "client_steps": recorder.counts.get("client_steps", 0),
            "workers": sim.executor.workers if is_process else 1,
            # Process backend: worker time comes from the program's own
            # worker spans (the shims do not reach into the pool).
            "worker_train_s": (
                sum(r["wall_dur"] for r in worker_spans) if is_process else None
            ),
            "ipc_bytes_out": counters.get("rt.ipc.bytes_out", 0),
            "ipc_bytes_in": counters.get("rt.ipc.bytes_in", 0),
            # Largest waited-for child; only a pool worker is worth reporting
            # (every run also forks a small `git` for the manifest).
            "worker_rss_mb": (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                if is_process else 0.0
            ),
            "checkpoint_saves": (
                sim.checkpointer.saves if sim.checkpointer is not None else 0
            ),
            "checkpoint_bytes": checkpoint_bytes,
            "wire_bytes_up": history.total_bytes_up(),
            "wire_compression_ratio": ratio if sim.wire is not None else 0.0,
            "wire_ef_clients": (
                len(sim.wire.ef.residuals) if sim.wire is not None else 0
            ),
            "robust_rejected": history.total_rejected(),
            "robust_clipped": history.total_clipped(),
            "resident_clients_max": resident[0],
            "replay_size": len(agent.buffer) if agent is not None else 0,
            "trace_records": trace_header.get("records", 0),
            "trace_dropped": trace_header.get("dropped_records", 0),
        }
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
