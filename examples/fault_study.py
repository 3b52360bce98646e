#!/usr/bin/env python
"""Fault study: a crashy run produces exactly the clean run's History.

The fault substrate's promise (see README "Fault tolerance") is that
failures cost *recovery time*, never *correctness*: a run where workers
crash mid-task, tasks raise, and clients hang — recovered with bounded
retries and process-pool rebuilds — trains the same model, round for
round, as a run where nothing goes wrong.

This script runs the same experiment three times:

1. **clean** — no faults, the baseline trajectory;
2. **faulty / serial** — a seeded plan injecting 5% crashes, 5% hangs
   and 6% task errors into first attempts;
3. **faulty / process** — the same plan on the process backend, where an
   injected crash genuinely ``os._exit``'s a worker: the parent detects
   the broken pool, rebuilds it, re-dispatches, and (if rebuilds keep
   failing) degrades to in-parent execution.

All three History hashes must match.  The faulted runs' recovery effort
is visible in their ``faults`` extras and on the virtual clock's
``fault_recovery_s`` ledger — charged separately from the makespans so
simulated time stays comparable.

Run:  python examples/fault_study.py
"""

from repro.harness import ExperimentConfig, run_experiment
from repro.harness.reporting import history_digest

PLAN = dict(
    fault_crash_prob=0.05, fault_hang_prob=0.05, fault_hang_s=0.01,
    fault_exception_prob=0.06,
)


def base_config(**kw) -> ExperimentConfig:
    return ExperimentConfig(
        dataset="mnist", partition="CE", method="fedavg",
        n_clients=10, clients_per_round=10, scale="ci", seed=0,
        latency_model="lognormal",
        **kw,
    )


def main() -> None:
    print("=== Fault study: crashy runs vs the clean trajectory ===\n")

    cells = {
        "clean": base_config(),
        "faulty/serial": base_config(**PLAN),
        "faulty/process": base_config(backend="process", workers=2, **PLAN),
    }
    hashes = {}
    for name, cfg in cells.items():
        result = run_experiment(cfg)
        hashes[name] = history_digest(result.history)
        line = (f"--- {name}: best acc {result.best_accuracy:.3f}, "
                f"hash {hashes[name][:12]}")
        faults = result.extra.get("faults")
        if faults:
            injected = ", ".join(
                f"{k} x{v}" for k, v in sorted(faults["injected"].items()))
            line += (f"\n    injected {injected}; {faults['sim_retries']} "
                     f"retries, {faults['sim_backoff_s']:.1f}s simulated "
                     f"backoff, {faults['pool_rebuilds']} pool rebuilds"
                     + (", degraded to serial" if faults["degraded"] else ""))
        print(line)

    identical = len(set(hashes.values())) == 1
    print(f"\nall Histories bit-identical: {identical}")
    print(
        "\nWhy it works: a fault only ever hits a task's *first* attempt,"
        "\nbefore any training RNG is touched, and the retry re-derives the"
        "\nsame (round, client)-keyed streams — so the recovered attempt"
        "\ncomputes exactly what the unfaulted one would have.  Retry"
        "\nbackoff is charged to the clock's separate recovery ledger,"
        "\nleaving every round's makespan untouched."
    )
    if not identical:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
