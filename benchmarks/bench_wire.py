#!/usr/bin/env python
"""Wire-efficiency benchmark: compressed uploads vs the dense baseline.

Two studies on the same federated workload (float32 substrate, so the
dense baseline is the honest 4-byte-per-coordinate wire format):

* **codec study** — dense vs ``topk+qsgd8`` (top-5% sparsification, then
  8-bit stochastic quantization of the survivors), with and without
  error feedback.  Measures exact uploaded bytes and final accuracy.
  The acceptance bar: >=10x payload reduction at <0.01 final-accuracy
  cost *with* error feedback (without it, aggressive sparsification
  visibly hurts — that gap is the point of EF).
* **bandwidth study** — the same two codecs under a constrained uplink
  (1 Mbit/s up, 50 Mbit/s down, heterogeneous per-client links): comm
  time becomes ``payload_bytes / link_rate``, so shipping fewer bytes
  must translate into a shorter simulated makespan.

``BENCH_wire.json`` records per-codec bytes, accuracy, and makespans,
plus the headline ``payload_reduction``, ``ef_accuracy_cost``, and
``makespan_speedup`` numbers the acceptance criterion reads.

Run ``python benchmarks/bench_wire.py`` for the full numbers or
``--smoke`` for a seconds-long CI pass with the same JSON shape.
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

TOPK_FRAC = 0.05
UP_MBPS = 1.0
DOWN_MBPS = 50.0


def base_config(scale: str, rounds: int, seed: int, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        dataset="mnist", partition="CE", method="fedavg",
        n_clients=10, clients_per_round=10, scale=scale, rounds=rounds,
        seed=seed, dtype="float32", **kw,
    )


def run_cell(cfg: ExperimentConfig) -> dict:
    result = run_experiment(cfg)
    history = result.history
    entry = {
        "codec": cfg.codec,
        "error_feedback": cfg.error_feedback,
        "final_accuracy": history.accuracy_series()[-1][1],
        "best_accuracy": result.best_accuracy,
        "bytes_up": history.total_bytes_up(),
        "bytes_down": history.total_bytes_down(),
        "dense_bytes_up": history.total_dense_bytes_up(),
        "compression_ratio": round(history.wire_compression_ratio(), 2),
        "wall_time_s": round(result.wall_time_s, 2),
    }
    if result.extra and "sim_time_s" in result.extra:
        entry["sim_makespan_s"] = round(result.extra["sim_time_s"], 3)
    return entry


def bench(scale: str, rounds: int, seed: int) -> dict:
    # Codec study: byte-blind timing, identical training schedule.
    dense = run_cell(base_config(scale, rounds, seed, codec="dense"))
    compressed = run_cell(base_config(
        scale, rounds, seed, codec="topk+qsgd8", topk_frac=TOPK_FRAC))
    no_ef = run_cell(base_config(
        scale, rounds, seed, codec="topk+qsgd8", topk_frac=TOPK_FRAC,
        error_feedback=False))

    # Bandwidth study: constrained heterogeneous uplink, same codecs.
    band = dict(latency_model="uniform", bandwidth_model="uniform",
                up_mbps=UP_MBPS, down_mbps=DOWN_MBPS)
    dense_band = run_cell(base_config(scale, rounds, seed, codec="dense", **band))
    compressed_band = run_cell(base_config(
        scale, rounds, seed, codec="topk+qsgd8", topk_frac=TOPK_FRAC, **band))

    # The compressed run's ledger carries its own dense-float32 baseline
    # (what the same uploads would have cost uncompressed), so the
    # reduction is a ratio of two exact byte counts over one schedule.
    payload_reduction = compressed["dense_bytes_up"] / compressed["bytes_up"]
    return {
        "scenario": {
            "dtype": "float32",
            "codec": "topk+qsgd8",
            "topk_frac": TOPK_FRAC,
            "up_mbps": UP_MBPS,
            "down_mbps": DOWN_MBPS,
            "bandwidth_model": "uniform",
        },
        "dense": dense,
        "compressed": compressed,
        "compressed_no_ef": no_ef,
        "dense_bandwidth": dense_band,
        "compressed_bandwidth": compressed_band,
        "payload_reduction": round(payload_reduction, 2),
        "ef_accuracy_cost": round(
            dense["final_accuracy"] - compressed["final_accuracy"], 4),
        "no_ef_accuracy_cost": round(
            dense["final_accuracy"] - no_ef["final_accuracy"], 4),
        "makespan_speedup": round(
            dense_band["sim_makespan_s"] / compressed_band["sim_makespan_s"], 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long pass with the same JSON shape")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="default: BENCH_wire.json, or the "
                        "git-ignored bench_smoke/BENCH_wire.json under --smoke")
    args = parser.parse_args(argv)

    scale, rounds = ("ci", 12) if args.smoke else ("bench", 30)

    t_start = time.perf_counter()
    result = bench(scale, rounds, args.seed)
    payload = {
        "schema": "bench_wire/v1",
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
        "BENCH_wire.json"))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")

    print(f"wrote {out_path}")
    print(f"dense:        {payload['dense']['final_accuracy']:.3f} final acc, "
          f"{payload['compressed']['dense_bytes_up']:,} B uploaded")
    print(f"topk+qsgd8:   {payload['compressed']['final_accuracy']:.3f} final acc, "
          f"{payload['compressed']['bytes_up']:,} B uploaded "
          f"({payload['payload_reduction']}x reduction, "
          f"EF cost {payload['ef_accuracy_cost']:+.4f})")
    print(f"   without EF: {payload['compressed_no_ef']['final_accuracy']:.3f} "
          f"final acc (cost {payload['no_ef_accuracy_cost']:+.4f})")
    print(f"constrained uplink ({UP_MBPS} Mbit/s): "
          f"dense {payload['dense_bandwidth']['sim_makespan_s']:.1f}s vs "
          f"compressed {payload['compressed_bandwidth']['sim_makespan_s']:.1f}s "
          f"simulated ({payload['makespan_speedup']}x faster)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
