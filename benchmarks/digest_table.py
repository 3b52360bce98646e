#!/usr/bin/env python
"""The end-to-end workloads' history digests, workload x seed.

    python benchmarks/digest_table.py [--seeds 0-9] [--out FILE] [--check FILE]

runs one fresh-process rep per (workload, seed) through the checkout's own
``benchmarks/e2e/run.py::run_rep`` and prints one line per rep: workload,
seed, ``history_digest`` and final accuracy.  Then, per workload, the final
accuracy's mean, min and max over the seeds run.  ``--out`` writes the
table as JSON; ``--check FILE`` compares every rep against the table in
``FILE`` (a rep the table does not hold is a mismatch) and exits 1 on any
difference or failed rep.  ``benchmarks/e2e_digests.json`` is the committed
table for seeds 0-9, so

    python benchmarks/digest_table.py --seeds 0 --check benchmarks/e2e_digests.json

checks the four full-size seed-0 runs (about 15 s of runs on a 2-vCPU host).
A change that moves a digest on purpose re-records the table with
``--seeds 0-9 --out benchmarks/e2e_digests.json`` and lists old -> new.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from run import TMP_ROOT, load_workloads, run_rep  # noqa: E402

SCHEMA = "repro-digest-table/v1"
REP_TIMEOUT_S = 300.0


def parse_seeds(text: str) -> list[int]:
    """``"0-9"``, ``"0,7"`` or ``"3"`` -> sorted seed list."""
    seeds: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def build_table(workloads: dict, seeds: list[int]) -> tuple[dict, list[str]]:
    """``{workload: {seed: {"digest", "final_accuracy"}}}`` plus failures."""
    table: dict[str, dict[str, dict]] = {}
    failures: list[str] = []
    for name, workload in workloads.items():
        for seed in seeds:
            rep = run_rep(workload["config"], seed, workload["accuracy_floor"],
                          time.monotonic() + REP_TIMEOUT_S)
            row = {"digest": rep.get("digest"),
                   "final_accuracy": rep.get("final_accuracy")}
            table.setdefault(name, {})[str(seed)] = row
            failures += [f"{name} seed {seed}: {f}" for f in rep["failures"]]
            print(f"{name} {seed} {row['digest']} {row['final_accuracy']}",
                  flush=True)
    return table, failures


def accuracy_summary(table: dict) -> dict[str, dict[str, float]]:
    out = {}
    for name, rows in table.items():
        acc = [r["final_accuracy"] for r in rows.values()
               if r["final_accuracy"] is not None]
        if acc:
            out[name] = {"mean": statistics.fmean(acc), "min": min(acc),
                         "max": max(acc)}
    return out


def mismatches(table: dict, reference: dict) -> list[str]:
    out = []
    for name, rows in table.items():
        for seed, row in rows.items():
            want = reference.get(name, {}).get(seed)
            if want != row:
                out.append(f"{name} seed {seed}: got {row}, table has {want}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", type=parse_seeds)
    parser.add_argument("--out", type=Path, help="write the table as JSON")
    parser.add_argument("--check", type=Path,
                        help="compare against the table in this JSON file")
    args = parser.parse_args(argv)

    try:
        table, failures = build_table(load_workloads(), args.seeds)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    for name, s in accuracy_summary(table).items():
        print(f"{name} final_accuracy mean {s['mean']:.4f} "
              f"min {s['min']:.4f} max {s['max']:.4f}")
    if args.out is not None:
        args.out.write_text(
            json.dumps({"schema": SCHEMA, "table": table}, indent=1) + "\n")
    if args.check is not None:
        reference = json.loads(args.check.read_text())
        if reference.get("schema") != SCHEMA:
            failures.append(f"{args.check} is not a {SCHEMA} table")
        else:
            failures += mismatches(table, reference["table"])
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
