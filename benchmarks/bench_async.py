#!/usr/bin/env python
"""Async-aggregation benchmark: sync vs FedBuff under 30% stragglers.

Runs the same federated workload twice under a heavy-tailed (lognormal)
device-latency profile with 30% of devices slowed 8x:

* **sync** — the classic round barrier: every round waits for its
  slowest participant.
* **fedbuff** — the event-driven engine (``repro.fl.async_``): up to K
  jobs in flight, aggregation every ``buffer-size`` arrivals with
  hinge staleness decay.  It runs a 2x job budget — the async pitch is
  that non-blocking devices complete more work per unit of virtual
  time — and still finishes far earlier on the simulated clock.

``BENCH_async.json`` records, per protocol, the simulated makespan and
the full accuracy-vs-simulated-time series, plus the headline
``makespan_speedup`` and the accuracy each protocol has reached at
fractions of the sync makespan (accuracy-at-time).

Run ``python benchmarks/bench_async.py`` for the full numbers (tens of
seconds) or ``--smoke`` for a seconds-long CI pass with the same JSON
shape.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.harness import ExperimentConfig, run_experiment

STRAGGLER_FRACTION = 0.3
STRAGGLER_SLOWDOWN = 8.0


def base_config(scale: str, rounds: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset="mnist", partition="CE", method="fedavg",
        n_clients=10, clients_per_round=10, scale=scale, rounds=rounds,
        seed=seed, latency_model="lognormal",
        straggler_fraction=STRAGGLER_FRACTION,
        straggler_slowdown=STRAGGLER_SLOWDOWN,
    )


def accuracy_at(series: list[tuple[float, float]], t: float) -> float | None:
    """Best accuracy reached at or before simulated time ``t``."""
    reached = [acc for when, acc in series if when <= t]
    return max(reached) if reached else None


def run_protocol(cfg: ExperimentConfig) -> dict:
    result = run_experiment(cfg)
    series = result.history.accuracy_vs_time()
    entry = {
        "rounds": cfg.resolved("rounds"),
        "final_accuracy": result.history.accuracy_series()[-1][1],
        "best_accuracy": result.best_accuracy,
        "sim_makespan_s": round(result.extra["sim_time_s"], 3),
        "wall_time_s": round(result.wall_time_s, 2),
        "accuracy_vs_time": [(round(t, 3), acc) for t, acc in series],
    }
    if "arrivals" in (result.extra or {}):
        entry.update({
            "aggregations": result.extra["aggregations"],
            "arrivals": result.extra["arrivals"],
            "mean_staleness": round(result.extra["mean_staleness"], 3),
        })
    return entry


def bench(scale: str, sync_rounds: int, seed: int) -> dict:
    sync_cfg = base_config(scale, sync_rounds, seed)
    fedbuff_cfg = base_config(scale, 2 * sync_rounds, seed).with_(
        aggregation="fedbuff", buffer_size=5, staleness="hinge",
    )
    sync = run_protocol(sync_cfg)
    fedbuff = run_protocol(fedbuff_cfg)

    sync_makespan = sync["sim_makespan_s"]
    checkpoints = {}
    for fraction in (0.25, 0.5, 1.0):
        t = fraction * sync_makespan
        checkpoints[f"{fraction:g}x_sync_makespan"] = {
            "sim_time_s": round(t, 3),
            "sync": accuracy_at(sync["accuracy_vs_time"], t),
            "fedbuff": accuracy_at(fedbuff["accuracy_vs_time"], t),
        }
    return {
        "straggler_fraction": STRAGGLER_FRACTION,
        "straggler_slowdown": STRAGGLER_SLOWDOWN,
        "sync": sync,
        "fedbuff": fedbuff,
        "makespan_speedup": round(sync_makespan / fedbuff["sim_makespan_s"], 3),
        "accuracy_gap": round(
            sync["final_accuracy"] - fedbuff["final_accuracy"], 4
        ),
        "accuracy_at_time": checkpoints,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long pass with the same JSON shape")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="default: BENCH_async.json, or the "
                        "git-ignored bench_smoke/BENCH_async.json under --smoke")
    args = parser.parse_args(argv)

    scale, sync_rounds = ("ci", 12) if args.smoke else ("bench", 30)

    t_start = time.perf_counter()
    result = bench(scale, sync_rounds, args.seed)
    payload = {
        "schema": "bench_async/v1",
        "smoke": args.smoke,
        "scale": scale,
        "seed": args.seed,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **result,
        "bench_wall_s": round(time.perf_counter() - t_start, 2),
    }
    out_path = os.path.abspath(args.out or os.path.join(
        os.path.dirname(__file__), "..", "bench_smoke" if args.smoke else "",
        "BENCH_async.json"))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")

    print(f"wrote {out_path}")
    print(f"sync:    {payload['sync']['final_accuracy']:.3f} final acc in "
          f"{payload['sync']['sim_makespan_s']:.1f}s simulated "
          f"({payload['sync']['rounds']} rounds)")
    print(f"fedbuff: {payload['fedbuff']['final_accuracy']:.3f} final acc in "
          f"{payload['fedbuff']['sim_makespan_s']:.1f}s simulated "
          f"({payload['fedbuff']['arrivals']} arrivals, "
          f"{payload['fedbuff']['aggregations']} aggregations)")
    print(f"makespan speedup: {payload['makespan_speedup']}x, "
          f"final-accuracy gap (sync - fedbuff): {payload['accuracy_gap']:+.3f}")
    half = payload["accuracy_at_time"]["0.5x_sync_makespan"]
    print(f"accuracy at half the sync makespan: sync={half['sync']}, "
          f"fedbuff={half['fedbuff']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
