#!/usr/bin/env python
"""Fleet scale-out benchmark: per-round overhead vs population size.

Sweeps the columnar fleet substrate from 1k to 1M clients at a fixed
participation level (K=16) and times the three things a round pays
*besides* training, which is K-bound by construction:

* **selection** — the sampling policy over the online pool;
* **availability** — advancing the whole-fleet markov availability
  column (amortized: one vectorized step per slot, a slot spans several
  rounds) and materializing the online id pool;
* **materialization** — building the K sampled participants as real
  ``Client`` objects from the shared base dataset (the run's client pool,
  released after the round).

The per-client *population* never materializes: client state lives in
:class:`repro.fleet.columnar.FleetState` columns and shards are sliced
on demand by :class:`repro.fleet.scale.LazyClientPool`, the client
population of every run (:func:`repro.fl.client.make_clients` builds
it).  The acceptance
criterion is that per-round overhead grows with K, not N — the 1M fleet
stays within 10x of the 1k fleet — and that the columnar state for a
million clients fits in under 100 MB.

``BENCH_scale.json`` records, per N, the component timings, the
per-round total, and ``FleetState.nbytes``, plus the headline
``overhead_ratio_largest_vs_smallest``.

The ``clock`` row times building a :class:`repro.runtime.clock.VirtualClock`
(lognormal latency and lognormal bandwidth) at 10k / 100k / 1M clients,
each in a fresh interpreter so its peak-RSS growth is the clock's alone;
it carries its own host block.

The ``build`` row times the harness's data build — ``build_dataset`` →
``build_partition`` → ``make_clients`` (the pool: no client is built
yet) — at two training-set shapes, the
``sync_mlp_serial`` benchmark workload's (20 000 x 3x8x8, float64) and
the ``paper`` preset's (50 000 x 3x32x32, float32), each in a fresh
interpreter.  It reports build time and peak RSS above the post-import
level, after synthesis and after the clients, next to the size of the
data itself; it carries its own host block.

Run with ``--smoke`` for a seconds-long pass (fleet 1k/10k, clock 10k,
build at the first shape) with the same JSON shape, written to the
git-ignored ``bench_smoke/BENCH_scale.json``; ``--only fleet`` /
``--only clock`` / ``--only build`` re-records one row of an existing
``--out`` file and leaves the rest untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

import numpy as np

from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.selection import UniformSelection
from repro.fleet.columnar import ColumnarAvailability, FleetState
from repro.fleet.scale import LazyClientPool, StridedPartition
from repro.runtime.seeding import STREAM_SELECTION, run_rng

K = 16
SEED = 0
OFFLINE_FRACTION = 0.2
CHURN_RATE = 0.5
# A slot spans this many rounds: availability advances per *slot*, so the
# whole-fleet markov step is amortized exactly as a real run with
# slot_s = ROUNDS_PER_SLOT * round_s would amortize it.
ROUNDS_PER_SLOT = 32
PER_CLIENT = 32  # samples per client shard (sliced from a shared pool)
BASE_SAMPLES = 4096


def build_fleet(n_clients: int):
    """One N-sized fleet: columnar state + the client pool."""
    spec = SyntheticImageSpec(num_classes=4, channels=1, image_size=8, noise=0.3)
    train, _ = make_synthetic_dataset(spec, BASE_SAMPLES, 8,
                                      np.random.default_rng(SEED))
    parts = StridedPartition(len(train), n_clients, per_client=PER_CLIENT)
    clients = LazyClientPool(train, parts)
    availability = ColumnarAvailability(
        "markov", n_clients, SEED,
        offline_fraction=OFFLINE_FRACTION, churn_rate=CHURN_RATE,
    )
    state = FleetState(n_clients, availability=availability,
                       shard_sizes=parts.shard_sizes)
    selector = UniformSelection(run_rng(SEED, STREAM_SELECTION))
    return state, clients, selector


def bench_population(n_clients: int, rounds: int) -> dict:
    state, clients, selector = build_fleet(n_clients)
    # Warm up: first slot pays one-off kernel allocations.
    state.availability.online_ids(0)
    clients.ensure(selector.select(n_clients, K, 0))
    clients.release()

    sel_s = avail_s = mat_s = 0.0
    picked_sizes = []
    for r in range(1, rounds + 1):
        slot = r // ROUNDS_PER_SLOT

        t0 = time.perf_counter()
        pool = state.availability.online_ids(slot)
        t1 = time.perf_counter()
        picked = selector.select(n_clients, min(K, pool.size), r,
                                 available=pool)
        t2 = time.perf_counter()
        clients.ensure(picked)
        state.record_jobs(picked)
        clients.release()
        t3 = time.perf_counter()

        avail_s += t1 - t0
        sel_s += t2 - t1
        mat_s += t3 - t2
        picked_sizes.append(len(picked))

    total_ms = (avail_s + sel_s + mat_s) * 1000 / rounds
    assert clients.materialized == 0
    return {
        "n_clients": n_clients,
        "rounds": rounds,
        "participants_per_round": K,
        "rounds_per_slot": ROUNDS_PER_SLOT,
        "availability_ms_per_round": round(avail_s * 1000 / rounds, 4),
        "selection_ms_per_round": round(sel_s * 1000 / rounds, 4),
        "materialization_ms_per_round": round(mat_s * 1000 / rounds, 4),
        "overhead_ms_per_round": round(total_ms, 4),
        "state_bytes": int(state.nbytes),
        "state_mb": round(state.nbytes / (1024 * 1024), 2),
        "mean_picked": round(float(np.mean(picked_sizes)), 2),
    }


CLOCK_CHILD = """
import json, resource, sys, time
from repro.runtime.clock import VirtualClock
n = int(sys.argv[1])
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
clock = VirtualClock("lognormal", n, seed=0, bandwidth="lognormal")
build_s = time.perf_counter() - t0
rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
columns = (clock.compute_s, clock.comm_s, clock.up_bps, clock.down_bps)
print(json.dumps({
    "n_clients": n,
    "build_s": round(build_s, 4),
    "peak_rss_growth_mb": round((rss1 - rss0) / 1024, 1),
    "columns_mb": round(sum(c.nbytes for c in columns) / 2**20, 2),
}))
"""


def bench_clock(n_clients: int) -> dict:
    """Build one lognormal/lognormal clock in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run(
        [sys.executable, "-c", CLOCK_CHILD, str(n_clients)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


BUILD_CHILD = """
import json, resource, sys, time
import numpy as np
from repro.fl.client import make_clients
from repro.harness.config import ExperimentConfig
from repro.harness.runner import build_dataset, build_partition
from repro.nn.dtypes import set_default_dtype
from repro.runtime.seeding import STREAM_PARTITION, run_rng

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

cfg = ExperimentConfig(**json.loads(sys.argv[1]))
set_default_dtype(cfg.dtype)
rss0 = peak_mb()
t0 = time.perf_counter()
train, test = build_dataset(cfg)
rss1 = peak_mb()
parts = build_partition(cfg, train.y, run_rng(cfg.seed, STREAM_PARTITION))
clients = make_clients(train, parts)
build_s = time.perf_counter() - t0
rss2 = peak_mb()
data_mb = sum(a.nbytes for a in (train.x, train.y, test.x, test.y)) / 2**20
print(json.dumps({
    "n_train": len(train),
    "n_test": len(test),
    "sample_shape": list(train.x.shape[1:]),
    "dtype": cfg.dtype,
    "n_clients": len(clients),
    "build_s": round(build_s, 3),
    "data_mb": round(data_mb, 1),
    "peak_rss_growth_mb": {
        "after_dataset": round(rss1 - rss0, 1),
        "after_clients": round(rss2 - rss0, 1),
    },
    "peak_over_data": round((rss2 - rss0) / data_mb, 3),
}))
"""

# (label, ExperimentConfig kwargs) per training-set shape.
BUILD_SHAPES = (
    ("sync_mlp_serial", dict(
        scale="bench", dataset="cifar100", partition="EQUAL", n_clients=100,
        n_train=20_000, n_test=2_000)),
    ("paper", dict(
        scale="paper", dataset="cifar100", partition="EQUAL", n_clients=100,
        dtype="float32")),
)


def bench_build(label: str, config: dict) -> dict:
    """Build one shape's dataset, partition and clients in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run(
        [sys.executable, "-c", BUILD_CHILD, json.dumps(config)],
        env=env, capture_output=True, text=True, check=True,
    )
    return {"shape": label, **json.loads(out.stdout)}


def host_block() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def fleet_rows(smoke: bool) -> dict:
    if smoke:
        populations, rounds = [1_000, 10_000], 64
    else:
        populations, rounds = [1_000, 100_000, 1_000_000], 128
    sweep = [bench_population(n, rounds) for n in populations]
    smallest, largest = sweep[0], sweep[-1]
    ratio = largest["overhead_ms_per_round"] / smallest["overhead_ms_per_round"]
    for entry in sweep:
        print(f"N={entry['n_clients']:>9,}: "
              f"{entry['overhead_ms_per_round']:7.3f} ms/round "
              f"(avail {entry['availability_ms_per_round']:.3f} + "
              f"select {entry['selection_ms_per_round']:.3f} + "
              f"materialize {entry['materialization_ms_per_round']:.3f}), "
              f"state {entry['state_mb']} MB")
    print(f"overhead ratio {largest['n_clients']:,} vs "
          f"{smallest['n_clients']:,}: {ratio:.2f}x "
          f"(acceptance: <= 10x at fixed K={K})")
    return {
        "sweep": sweep,
        "overhead_ratio_largest_vs_smallest": round(ratio, 2),
        "largest_state_mb": largest["state_mb"],
    }


def clock_row(smoke: bool) -> dict:
    populations = [10_000] if smoke else [10_000, 100_000, 1_000_000]
    sweep = [bench_clock(n) for n in populations]
    for entry in sweep:
        print(f"clock N={entry['n_clients']:>9,}: build {entry['build_s']:.3f} s, "
              f"peak RSS +{entry['peak_rss_growth_mb']} MB "
              f"(columns {entry['columns_mb']} MB)")
    return {"clock": {
        "latency_model": "lognormal",
        "bandwidth_model": "lognormal",
        "host": host_block(),
        "sweep": sweep,
    }}


def build_row(smoke: bool) -> dict:
    shapes = BUILD_SHAPES[:1] if smoke else BUILD_SHAPES
    sweep = [bench_build(label, config) for label, config in shapes]
    for entry in sweep:
        growth = entry["peak_rss_growth_mb"]
        print(f"build {entry['shape']:>15} ({entry['n_train']:,} x "
              f"{'x'.join(map(str, entry['sample_shape']))} {entry['dtype']}): "
              f"{entry['build_s']:.2f} s, peak RSS +{growth['after_dataset']} MB "
              f"after synthesis, +{growth['after_clients']} MB after clients "
              f"(data {entry['data_mb']} MB, {entry['peak_over_data']}x)")
    return {"build": {"host": host_block(), "sweep": sweep}}


ROWS = {"fleet": fleet_rows, "clock": clock_row, "build": build_row}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long 1k/10k pass with the same JSON shape")
    parser.add_argument("--out", help="default: BENCH_scale.json, or the "
                        "git-ignored bench_smoke/BENCH_scale.json under --smoke")
    parser.add_argument("--only", choices=tuple(ROWS),
                        help="re-record one row of an existing --out file")
    args = parser.parse_args(argv)
    out_path = os.path.abspath(args.out or os.path.join(
        os.path.dirname(__file__), "..", "bench_smoke" if args.smoke else "",
        "BENCH_scale.json"))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)

    t_start = time.perf_counter()
    if args.only is not None:
        with open(out_path) as fh:
            payload = json.load(fh)
        payload.update(ROWS[args.only](args.smoke))
    else:
        payload = {
            "schema": "bench_scale/v1",
            "smoke": args.smoke,
            "seed": SEED,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "scenario": {
                "availability": "markov",
                "offline_fraction": OFFLINE_FRACTION,
                "churn_rate": CHURN_RATE,
                "participants_per_round": K,
                "per_client_samples": PER_CLIENT,
                "rounds_per_slot": ROUNDS_PER_SLOT,
            },
            **fleet_rows(args.smoke),
            **clock_row(args.smoke),
            **build_row(args.smoke),
        }
        payload["bench_wall_s"] = round(time.perf_counter() - t_start, 2)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
