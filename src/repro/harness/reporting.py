"""Result serialisation: a run's History as JSON primitives and a digest.

The benches print paper-style text tables; ``python -m repro --json``
and the benchmarks want machine-readable results too.  These helpers
flatten a :class:`~repro.fl.simulation.History` into plain dicts and hash
its simulation domain, without adding any dependency.
"""

from __future__ import annotations

import hashlib
import json

from repro.fl.simulation import History


def history_to_dict(history: History) -> dict:
    """Flatten a :class:`History` into JSON-serialisable primitives.

    Covers the virtual-clock, async-engine, and fleet-simulator fields:
    the round-trip ``json.loads(json.dumps(history_to_dict(h)))`` keeps
    every summary a figure bench might read.
    """
    out = {
        "rounds": len(history.records),
        "accuracy_series": [[r, float(a)] for r, a in history.accuracy_series()],
        # null when no window was evaluated (every update was lost)
        "best_accuracy": max((a for _, a in history.accuracy_series()), default=None),
        "loss_mean_series": history.loss_mean_series(),
        "loss_var_series": history.loss_var_series(),
        "mean_impact_time_ms": history.mean_impact_time() * 1e3,
        "mean_aggregation_time_ms": history.mean_aggregation_time() * 1e3,
        # Virtual-clock timing.
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
    JSON form (sorted keys) minus the wall-clock fields, plus the
    per-record fields no summary carries: who was aggregated, with which
    impact factors (FedDRL's alpha), on how many samples, and the losses
    after local training and on the test set.  Everything hashed is a pure
    function of the experiment seed.
    """
    payload = history_to_dict(history)
    for key in _WALL_TIME_KEYS:
        payload.pop(key, None)
    payload["records"] = [
        [r.participants, r.impact_factors, r.client_sizes, r.client_losses_after, r.test_loss]
        for r in history.records
    ]
    canonical = json.dumps(payload, sort_keys=True, default=lambda a: a.tolist())
    return hashlib.sha256(canonical.encode()).hexdigest()
