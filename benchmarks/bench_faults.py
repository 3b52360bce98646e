#!/usr/bin/env python
"""Fault-tolerance benchmark: recovery must be free when off, cheap when on.

Two gates (see README "Fault tolerance"):

* **Overhead** — with no fault plan and no task timeout, every backend
  keeps its historical fast path; the mean round wall-clock on the
  substrate bench's conv workload must stay within **5%** of the
  ``BENCH_substrate.json`` baseline (plus this host's measured noise
  floor).  Off is measured twice — the off/off gap bounds the noise.
* **Recovery** — under a 5% crash + 5% hang plan, sync and FedBuff runs
  complete on all three backends with a History bit-identical to the
  fault-free run, real worker deaths and pool rebuilds included.

The full bench (``python benchmarks/bench_faults.py``) enforces both via
exit code; ``--smoke`` runs a seconds-long pass with the same JSON shape
that records but does not gate the overhead (CI timing is too noisy to
block merges on 5%) — the bit-identity check always gates.

``BENCH_faults.json`` records round times, overhead ratios, per-backend
recovery wall times, and the injected/recovery counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import run_experiment
from repro.runtime.executor import make_executor

MAX_OVERHEAD = 0.05
CRASH_PROB = 0.05
HANG_PROB = 0.05

SUBSTRATE_BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_substrate.json")


def mean_round_s(backend: str, rounds: int, n_train: int, image_size: int,
                 workers: int) -> float:
    """Mean round wall-clock on the substrate bench's conv workload,
    fault layer present but disabled (the default configuration)."""
    from repro.nn.models import simple_cnn

    n_clients = 8
    spec = SyntheticImageSpec(
        num_classes=10, channels=1, image_size=image_size, noise=0.6
    )
    train, _ = make_synthetic_dataset(spec, n_train, 64, np.random.default_rng(0))
    parts = iid_partition(train.y, n_clients, np.random.default_rng(1))
    factory = partial(simple_cnn, 1, image_size, 10)
    clients = make_clients(train, parts)
    executor = make_executor(
        backend, clients, factory,
        workers=workers if backend == "process" else None,
    )
    sim = FederatedSimulation(
        clients, None, factory, FedAvg(),
        FLConfig(rounds=rounds, clients_per_round=n_clients,
                 local_epochs=1, batch_size=32, lr=0.05, seed=0),
        executor=executor,
    )
    with sim:
        sim.run_round(0)  # warm-up (process pool spin-up, BLAS init)
        t0 = time.perf_counter()
        for r in range(1, rounds + 1):
            sim.run_round(r)
        elapsed = time.perf_counter() - t0
    return elapsed / rounds


def bench_overhead(rounds: int, n_train: int, image_size: int,
                   workers: int) -> dict:
    baseline = None
    if os.path.exists(SUBSTRATE_BASELINE):
        with open(SUBSTRATE_BASELINE) as fh:
            baseline = json.load(fh).get("round", {}).get("float64")
    out: dict = {"baseline_from": "BENCH_substrate.json" if baseline else None}
    for backend in ("serial", "process"):
        off_a = mean_round_s(backend, rounds, n_train, image_size, workers)
        off_b = mean_round_s(backend, rounds, n_train, image_size, workers)
        off = min(off_a, off_b)
        noise = abs(off_a - off_b) / off if off else 0.0
        entry = {
            "mean_round_s": round(off_a, 5),
            "mean_round_repeat_s": round(off_b, 5),
            "noise_floor": round(noise, 4),
        }
        if baseline and backend in baseline:
            base = baseline[backend]["mean_round_s"]
            entry["baseline_round_s"] = base
            entry["overhead_vs_baseline"] = round(off / base - 1.0, 4)
        out[backend] = entry
    return out


def fault_cfg(aggregation: str, backend: str, workers: int | None,
              faulty: bool) -> ExperimentConfig:
    base = dict(
        method="fedavg", scale="ci", n_clients=8, clients_per_round=8,
        seed=0, backend=backend, latency_model="lognormal",
    )
    if workers is not None:
        base["workers"] = workers
    if aggregation != "sync":
        base.update(aggregation=aggregation, buffer_size=4)
    if faulty:
        base.update(
            fault_crash_prob=CRASH_PROB, fault_hang_prob=HANG_PROB,
            fault_hang_s=0.005,
        )
    return ExperimentConfig(**base)


def bench_recovery(rounds: int) -> tuple[list[dict], bool]:
    """Faulted runs across engines x backends; each must match its clean
    digest bit-for-bit."""
    cells = []
    ok = True
    for aggregation in ("sync", "fedbuff"):
        clean = run_experiment(
            fault_cfg(aggregation, "serial", None, faulty=False).with_(rounds=rounds)
        )
        clean_digest = history_digest(clean.history)
        for backend, workers in (("serial", None), ("thread", 2), ("process", 2)):
            cfg = fault_cfg(aggregation, backend, workers, faulty=True)
            t0 = time.perf_counter()
            result = run_experiment(cfg.with_(rounds=rounds))
            wall = time.perf_counter() - t0
            digest = history_digest(result.history)
            identical = digest == clean_digest
            ok = ok and identical
            cells.append({
                "engine": aggregation,
                "backend": backend,
                "wall_s": round(wall, 3),
                "bit_identical": identical,
                "faults": result.extra.get("faults", {}),
            })
    return cells, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long pass; records overhead but only "
                             "gates bit-identity")
    parser.add_argument("--out", help="default: BENCH_faults.json, or the "
                        "git-ignored bench_smoke/BENCH_faults.json under --smoke")
    args = parser.parse_args(argv)

    if args.smoke:
        rounds, n_train, image_size, workers, fl_rounds = 2, 400, 8, 2, 4
    else:
        rounds, n_train, image_size, workers, fl_rounds = 4, 4000, 16, 4, 8

    t_start = time.perf_counter()
    overhead = bench_overhead(rounds, n_train, image_size, workers)
    recovery, identical = bench_recovery(fl_rounds)

    payload = {
        "schema": "bench_faults/v1",
        "smoke": args.smoke,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "plan": {"crash_prob": CRASH_PROB, "hang_prob": HANG_PROB},
        "max_overhead": MAX_OVERHEAD,
        "overhead": overhead,
        "recovery": recovery,
        "bit_identical": identical,
        "bench_wall_s": round(time.perf_counter() - t_start, 2),
    }
    out_path = os.path.abspath(args.out or os.path.join(
        os.path.dirname(__file__), "..", "bench_smoke" if args.smoke else "",
        "BENCH_faults.json"))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")

    failed = False
    for backend in ("serial", "process"):
        e = overhead[backend]
        line = (f"{backend:>8}: {e['mean_round_s']:.3f}s / "
                f"{e['mean_round_repeat_s']:.3f}s per round "
                f"(noise {100 * e['noise_floor']:.1f}%)")
        if "overhead_vs_baseline" in e:
            line += (f", {100 * e['overhead_vs_baseline']:+.1f}% "
                     f"vs substrate baseline")
        print(line)
        if args.smoke or "overhead_vs_baseline" not in e:
            continue
        # A stale baseline (other host, other load) shows up as a big
        # off/off noise floor; gate on threshold + noise like bench_obs.
        budget = MAX_OVERHEAD + e["noise_floor"]
        if e["overhead_vs_baseline"] > budget:
            print(f"  FAIL: overhead {100 * e['overhead_vs_baseline']:.1f}% "
                  f"> {100 * MAX_OVERHEAD:.0f}% + "
                  f"{100 * e['noise_floor']:.1f}% noise")
            failed = True

    for cell in recovery:
        stats = cell["faults"]
        print(f"{cell['engine']:>8}/{cell['backend']:<7} "
              f"{cell['wall_s']:6.2f}s  "
              f"identical={cell['bit_identical']}  "
              f"injected={stats.get('total_injected', 0)} "
              f"rebuilds={stats.get('pool_rebuilds', 0)}")
    if not identical:
        print("FAIL: a faulted run diverged from the clean History")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
