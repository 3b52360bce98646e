"""Result serialisation: experiment outcomes as JSON and Markdown.

The benches print paper-style text tables; downstream users usually want
machine-readable results too (for plotting, CI regression tracking, or
aggregating multi-seed sweeps).  These helpers convert the harness's
result objects into plain dicts / JSON / Markdown without adding any
dependency.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.fl.simulation import History
from repro.harness.runner import ExperimentResult


def history_to_dict(history: History) -> dict:
    """Flatten a :class:`History` into JSON-serialisable primitives.

    Covers the virtual-clock, async-engine, and fleet-simulator fields:
    the round-trip ``json.loads(json.dumps(history_to_dict(h)))`` keeps
    every summary a figure bench might read.
    """
    out = {
        "rounds": len(history.records),
        "accuracy_series": [[r, float(a)] for r, a in history.accuracy_series()],
        "best_accuracy": history.best_accuracy(),
        "loss_mean_series": history.loss_mean_series(),
        "loss_var_series": history.loss_var_series(),
        "mean_impact_time_ms": history.mean_impact_time() * 1e3,
        "mean_aggregation_time_ms": history.mean_aggregation_time() * 1e3,
        # Virtual-clock timing (empty/zero without a clock).
        "makespan_series": [float(m) for m in history.makespan_series()],
        "total_sim_time_s": history.total_sim_time(),
        "total_dropped": history.total_dropped(),
        # Fleet behavior (empty/identity on an ideal fleet).
        "online_series": [[r, int(n)] for r, n in history.online_series()],
        "total_connectivity_dropped": history.total_connectivity_dropped(),
        "mean_work_fraction": history.mean_work_fraction(),
        # Adversarial fleet (empty/zero on honest, undefended runs).
        "backdoor_accuracy_series": [
            [r, float(a)] for r, a in history.backdoor_accuracy_series()
        ],
        "rejected_series": [
            [r.round_idx, len(r.rejected_updates)]
            for r in history.records
            if r.rejected_updates
        ],
        "total_rejected_updates": history.total_rejected(),
        "total_clipped_updates": history.total_clipped(),
        "total_malicious_aggregated": history.total_malicious_aggregated(),
        # Wire payloads (zero/identity without a wire format).
        "total_payload_bytes_up": history.total_bytes_up(),
        "total_payload_bytes_down": history.total_bytes_down(),
        "total_dense_bytes_up": history.total_dense_bytes_up(),
        "wire_compression_ratio": history.wire_compression_ratio(),
        "payload_bytes_series": [
            [r, int(up), int(down)]
            for r, up, down in history.payload_bytes_series()
        ],
        # Async engine (empty/zero for synchronous runs).
        "mean_staleness": history.mean_staleness(),
        "events": [
            {
                "job_idx": e.job_idx,
                "client_id": e.client_id,
                "dispatch_time_s": float(e.dispatch_time_s),
                "arrival_time_s": float(e.arrival_time_s),
                "dispatch_version": e.dispatch_version,
                "arrival_version": e.arrival_version,
                "staleness": e.staleness,
                "staleness_factor": float(e.staleness_factor),
                "dropped": bool(e.dropped),
                "payload_bytes": int(e.payload_bytes),
            }
            for e in history.events
        ],
    }
    return out


# Wall-clock measurements: real host timings that legitimately differ
# between two runs of the same experiment, so the digest excludes them.
_WALL_TIME_KEYS = ("mean_impact_time_ms", "mean_aggregation_time_ms")


def history_digest(history: History) -> str:
    """A stable hash of the run's History, simulation domain only.

    The comparison surface for the fault-tolerance guarantees: a faulted
    -and-recovered run, a resumed run, and a clean run of the same
    experiment must all produce the same digest.  Hashes the canonical
    JSON form (sorted keys) minus the wall-clock fields — everything
    left (accuracies, losses, makespans, events) is a pure function of
    the experiment seed.
    """
    payload = history_to_dict(history)
    for key in _WALL_TIME_KEYS:
        payload.pop(key, None)
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_to_dict(result: ExperimentResult) -> dict:
    """Flatten an :class:`ExperimentResult`, including its config cell."""
    cfg = result.config
    out = {
        "config": {
            "dataset": cfg.dataset,
            "partition": cfg.partition,
            "method": cfg.method,
            "n_clients": cfg.n_clients,
            "clients_per_round": cfg.clients_per_round,
            "scale": cfg.scale,
            "delta": cfg.delta,
            "seed": cfg.seed,
            "rounds": cfg.resolved("rounds"),
        },
        "best_accuracy": result.best_accuracy,
        "wall_time_s": result.wall_time_s,
        "history": history_to_dict(result.history),
    }
    if result.extra:
        out["extra"] = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in result.extra.items()
        }
    return out


def save_results_json(results: list[ExperimentResult], path: str | Path) -> Path:
    """Write a list of experiment results to a JSON file; returns the path."""
    path = Path(path)
    payload = [result_to_dict(r) for r in results]
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_results_json(path: str | Path) -> list[dict]:
    """Read back what :func:`save_results_json` wrote."""
    return json.loads(Path(path).read_text())


def results_to_markdown(results: list[ExperimentResult], title: str = "Results") -> str:
    """A Markdown table of one row per experiment (for reports / PRs)."""
    lines = [
        f"## {title}",
        "",
        "| dataset | partition | method | N | K | rounds | best acc | time (s) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in results:
        c = r.config
        lines.append(
            f"| {c.dataset} | {c.partition} | {c.method} | {c.n_clients} "
            f"| {c.clients_per_round} | {c.resolved('rounds')} "
            f"| {r.best_accuracy:.4f} | {r.wall_time_s:.1f} |"
        )
    return "\n".join(lines)


def compare_methods(results: list[ExperimentResult]) -> dict[str, float]:
    """Best accuracy per method over a result list (cells must share the
    same dataset/partition for the comparison to be meaningful)."""
    out: dict[str, float] = {}
    for r in results:
        method = r.config.method
        out[method] = max(out.get(method, 0.0), r.best_accuracy)
    return out
