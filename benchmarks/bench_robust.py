#!/usr/bin/env python
"""Adversarial-fleet benchmark: attacks × robust aggregation, both engines.

Runs the markov-churn fleet scenario (the ``bench_fleet`` profile: 20%
mean offline fraction with on/off sessions, 10% mid-round dropout, 30%
of devices slowed 8x under lognormal latency) with a 20%-malicious
client population, sweeping three attack models against every robust
aggregation rule on both the synchronous round loop and the FedBuff
engine:

* **label_flip** (boosted directed flip), **sign_flip** (negated +
  amplified deltas), **backdoor** (fully-poisoned trigger shards with a
  model-replacement boost; success measured on the backdoor test set).
* **mean** (undefended), **median**, **trimmed_mean**, **krum**,
  **multikrum**, **norm_clip**.

Shards are IID: robust statistics assume honest updates cluster, and a
heterogeneous partition breaks that assumption for honest reasons —
coordinate-wise median over non-IID deltas chases the wrong center even
with zero attackers (a known open problem, worth measuring separately
from attack tolerance).

The FedBuff side widens the flush window to the fleet size (buffer 10
vs. the fleet bench's 5): robust rules need compromised clients to be a
*minority of the window*, and the engine additionally coalesces each
client's updates into one alpha-weighted voice per flush so a fast
malicious client cannot amplify its vote by responding often.

``BENCH_robust.json`` records, per engine × attack × aggregator, the
final/best accuracy, backdoor success rate, simulated makespan, and the
defense's rejection/clip counters, plus a per-cell ``acceptance`` block:
defended final accuracy within 0.02 of the clean baseline while the
undefended mean loses >= 0.05, or (backdoor) success >= 50% undefended
vs <= 10% defended.  ``norm_clip`` is a *bounding* defense, not a
filtering one — it caps each update's displacement but keeps every
direction, so a stealthy in-norm backdoor walks through it and a sign
flip still subtracts bounded progress; its cells document that limit.

Run ``python benchmarks/bench_robust.py`` for the full numbers (about a
minute) or ``--smoke`` for a seconds-long CI pass with the same JSON
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

# The bench_fleet markov-churn scenario, on IID shards (see module doc).
OFFLINE_FRACTION = 0.2
CHURN_RATE = 0.5
DROPOUT_PROB = 0.1
STRAGGLER_FRACTION = 0.3
STRAGGLER_SLOWDOWN = 8.0
JOB_BUDGET_FACTOR = 1.6
BUFFER_SIZE = 10

MALICIOUS_FRACTION = 0.2
# Attack scales, tuned so the undefended mean degrades without the arena
# diverging to overflow: a 20%-minority sign flip at 2x stalls training,
# at 4x it explodes; the backdoor's 3x model-replacement boost makes the
# malicious updates salient to distance/coordinate defenses while the
# trigger installs fully through a plain mean.
ATTACKS = {"label_flip": 2.0, "sign_flip": 2.0, "backdoor": 3.0}
AGGREGATORS = ("median", "trimmed_mean", "krum", "multikrum", "norm_clip")

ACCURACY_TOLERANCE = 0.02
UNDEFENDED_LOSS = 0.05
BACKDOOR_UNDEFENDED = 0.50
BACKDOOR_DEFENDED = 0.10


def base_config(scale: str, rounds: int, seed: int, engine: str) -> ExperimentConfig:
    cfg = ExperimentConfig(
        dataset="mnist", partition="IID", method="fedavg",
        n_clients=10, clients_per_round=10, scale=scale, rounds=rounds,
        seed=seed, latency_model="lognormal",
        straggler_fraction=STRAGGLER_FRACTION,
        straggler_slowdown=STRAGGLER_SLOWDOWN,
        availability="markov", offline_fraction=OFFLINE_FRACTION,
        churn_rate=CHURN_RATE, dropout_prob=DROPOUT_PROB,
    )
    if engine == "fedbuff":
        cfg = cfg.with_(
            rounds=int(JOB_BUDGET_FACTOR * rounds),
            aggregation="fedbuff", buffer_size=BUFFER_SIZE,
            staleness="hinge", dispatch="fairness", server_mix="delta",
        )
    return cfg


def run_cell(cfg: ExperimentConfig) -> dict:
    result = run_experiment(cfg)
    extra = result.extra or {}
    entry = {
        "final_accuracy": result.history.accuracy_series()[-1][1],
        "best_accuracy": result.best_accuracy,
        "sim_makespan_s": round(extra.get("sim_time_s", 0.0), 3),
        "wall_time_s": round(result.wall_time_s, 2),
    }
    if cfg.robust_active:
        entry.update({
            "malicious_clients": extra.get("malicious_clients", []),
            "malicious_aggregated": extra.get("malicious_aggregated", 0),
            "rejected_updates": extra.get("rejected_updates", 0),
            "clipped_updates": extra.get("clipped_updates", 0),
        })
    if "backdoor_accuracy" in extra:
        entry["backdoor_success"] = extra["backdoor_accuracy"]
    return entry


def judge(attack: str, clean: dict, undefended: dict, defended: dict) -> dict:
    """The acceptance verdict for one attack × defense cell."""
    gap = clean["final_accuracy"] - defended["final_accuracy"]
    undefended_loss = clean["final_accuracy"] - undefended["final_accuracy"]
    verdict = {
        "defended_gap": round(gap, 4),
        "undefended_loss": round(undefended_loss, 4),
        "accuracy_criterion": bool(
            # Accuracies are multiples of 1/n_test; the epsilon only
            # absorbs float noise on an exactly-at-tolerance gap.
            gap <= ACCURACY_TOLERANCE + 1e-9
            and undefended_loss >= UNDEFENDED_LOSS - 1e-9
        ),
    }
    if attack == "backdoor":
        verdict["backdoor_criterion"] = bool(
            undefended.get("backdoor_success", 0.0) >= BACKDOOR_UNDEFENDED
            and defended.get("backdoor_success", 1.0) <= BACKDOOR_DEFENDED
        )
    verdict["pass"] = bool(
        verdict["accuracy_criterion"] or verdict.get("backdoor_criterion", False)
    )
    return verdict


def bench_engine(engine: str, scale: str, rounds: int, seed: int) -> dict:
    clean = run_cell(base_config(scale, rounds, seed, engine))
    out = {"clean": clean, "attacks": {}}
    for attack, attack_scale in ATTACKS.items():
        attacked = base_config(scale, rounds, seed, engine).with_(
            attack=attack, malicious_fraction=MALICIOUS_FRACTION,
            attack_scale=attack_scale,
        )
        undefended = run_cell(attacked)
        defended = {}
        acceptance = {}
        for agg in AGGREGATORS:
            defended[agg] = run_cell(attacked.with_(aggregator=agg))
            acceptance[agg] = judge(attack, clean, undefended, defended[agg])
        out["attacks"][attack] = {
            "attack_scale": attack_scale,
            "undefended": undefended,
            "defended": defended,
            "acceptance": acceptance,
        }
    return out


def print_engine(engine: str, result: dict) -> None:
    clean = result["clean"]["final_accuracy"]
    print(f"\n{engine}: clean final accuracy {clean:.3f}")
    header = f"  {'attack':<12} {'undef':<7}" + "".join(
        f"{a:<14}" for a in AGGREGATORS
    )
    print(header)
    for attack, block in result["attacks"].items():
        row = f"  {attack:<12} {block['undefended']['final_accuracy']:<7.3f}"
        for agg in AGGREGATORS:
            cell = block["defended"][agg]
            mark = "+" if block["acceptance"][agg]["pass"] else "-"
            row += f"{cell['final_accuracy']:.3f} {mark:<8}"
        print(row)
        if attack == "backdoor":
            row = f"  {'  success':<12} {block['undefended']['backdoor_success']:<7.3f}"
            for agg in AGGREGATORS:
                row += f"{block['defended'][agg]['backdoor_success']:<14.3f}"
            print(row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long pass with the same JSON shape")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="default: BENCH_robust.json, or the "
                        "git-ignored bench_smoke/BENCH_robust.json under --smoke")
    args = parser.parse_args(argv)

    scale, rounds = ("ci", 12) if args.smoke else ("bench", 30)

    t_start = time.perf_counter()
    engines = {
        engine: bench_engine(engine, scale, rounds, args.seed)
        for engine in ("sync", "fedbuff")
    }
    cells = [
        acc
        for result in engines.values()
        for block in result["attacks"].values()
        for acc in block["acceptance"].values()
    ]
    payload = {
        "schema": "bench_robust/v1",
        "smoke": args.smoke,
        "scale": scale,
        "seed": args.seed,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "scenario": {
            "partition": "IID",
            "availability": "markov",
            "offline_fraction": OFFLINE_FRACTION,
            "churn_rate": CHURN_RATE,
            "dropout_prob": DROPOUT_PROB,
            "straggler_fraction": STRAGGLER_FRACTION,
            "straggler_slowdown": STRAGGLER_SLOWDOWN,
            "malicious_fraction": MALICIOUS_FRACTION,
            "fedbuff": {
                "buffer_size": BUFFER_SIZE, "staleness": "hinge",
                "dispatch": "fairness", "server_mix": "delta",
                "job_budget_factor": JOB_BUDGET_FACTOR,
            },
        },
        "criteria": {
            "accuracy_tolerance": ACCURACY_TOLERANCE,
            "undefended_loss": UNDEFENDED_LOSS,
            "backdoor_undefended": BACKDOOR_UNDEFENDED,
            "backdoor_defended": BACKDOOR_DEFENDED,
        },
        "engines": engines,
        "cells_passing": sum(1 for c in cells if c["pass"]),
        "cells_total": len(cells),
        "bench_wall_s": round(time.perf_counter() - t_start, 2),
    }
    out_path = os.path.abspath(args.out or os.path.join(
        os.path.dirname(__file__), "..", "bench_smoke" if args.smoke else "",
        "BENCH_robust.json"))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")

    print(f"wrote {out_path}")
    for engine, result in engines.items():
        print_engine(engine, result)
    print(f"\n{payload['cells_passing']}/{payload['cells_total']} "
          f"attack × defense cells meet the acceptance criteria "
          f"(norm_clip bounds displacement but filters nothing — stealthy "
          f"in-norm attacks walk through it by design)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
