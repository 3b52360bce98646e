"""Runtime bench: round wall-clock per execution backend.

Records the end-to-end time of the same federated run under the serial,
thread, and process backends beside the host it ran on, and asserts the
load-bearing invariant that their histories are bit-identical.  Nothing
about speed is asserted: whether a worker pool beats a loop depends on
the host (``cpu_count >= 2`` does not mean separate cores — two vCPUs
sharing one core measured process vs serial anywhere from 0.61x to
1.87x), so the timings are a record to read next to the host block.

Run:  PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_runtime_speedup.py -q -s
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np
import pytest

from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.harness.reporting import history_digest
from repro.nn.models import mlp
from repro.runtime import make_executor

N_CLIENTS = 8
ROUNDS = 3
LOCAL_EPOCHS = 4


def _run_backend(backend: str, workers: int | None):
    spec = SyntheticImageSpec(num_classes=10, channels=1, image_size=8, noise=0.3)
    train, test = make_synthetic_dataset(spec, 3200, 400, np.random.default_rng(0))
    features = int(np.prod(train.x.shape[1:]))
    factory = partial(mlp, features, train.num_classes, hidden=(128, 64))
    parts = iid_partition(train.y, N_CLIENTS, np.random.default_rng(1))
    clients = make_clients(train, parts)
    executor = make_executor(backend, clients, factory, workers=workers)
    sim = FederatedSimulation(
        clients, test, factory, FedAvg(),
        FLConfig(rounds=ROUNDS, clients_per_round=N_CLIENTS,
                 local_epochs=LOCAL_EPOCHS, lr=0.05, batch_size=10,
                 eval_every=ROUNDS, seed=0),
        executor=executor,
    )
    with sim:
        t0 = time.perf_counter()
        history = sim.run()
        elapsed = time.perf_counter() - t0
    return {"wall_s": elapsed, "per_round_s": elapsed / ROUNDS, "history": history}


def _compare_backends():
    workers = max(2, min(4, os.cpu_count() or 1))
    return {
        "serial": _run_backend("serial", None),
        "thread": _run_backend("thread", workers),
        "process": _run_backend("process", workers),
    }, workers


@pytest.mark.benchmark(group="runtime")
def test_runtime_speedup(benchmark, once):
    out, workers = once(benchmark, _compare_backends)
    host = {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        **{pin: os.environ.get(pin) for pin in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }

    print(f"\nRuntime backends — {N_CLIENTS} clients x {ROUNDS} rounds, "
          f"{workers} workers")
    print(f"  host: {host}")
    print(f"  {'backend':>8} {'wall (s)':>10} {'per-round (s)':>14} {'vs serial':>10}")
    serial_s = out["serial"]["wall_s"]
    for name, row in out.items():
        print(f"  {name:>8} {row['wall_s']:>10.2f} {row['per_round_s']:>14.3f} "
              f"{serial_s / row['wall_s']:>9.2f}x")

    # Bit-identical histories, always, on any host.
    ref = history_digest(out["serial"]["history"])
    assert history_digest(out["thread"]["history"]) == ref
    assert history_digest(out["process"]["history"]) == ref
