#!/usr/bin/env python
"""Alternating parent/change pairs of one end-to-end workload.

    python benchmarks/ab_pairs.py ../parent-clone . --workload sync_cnn_process

runs ``--pairs`` pairs of fresh-process reps, one rep per checkout per
pair through that checkout's own ``benchmarks/e2e/run.py::run_rep``,
alternating which side goes first, and prints for every end-to-end metric
of ``BENCHMARK.json`` (each rep's value as B's ``run.end_to_end_metrics``
defines it) each side's median and quartiles and how many pairs the second
checkout (B, the change) won.  This is the protocol a speedup claim needs (at least
nine of ten pairs, and a median gap larger than A's interquartile range);
the host steps 15-40 % for minutes at a stretch, so back-to-back sets do
not substitute for it.  Each side must produce one history digest across
its reps; the two digests are printed, equal or not.

``peak_rss_mb`` has a floor of its own: two byte-identical trees in two
directories read 0.07-0.23 MB apart, so a difference under about 0.5 MB
is below what this harness can tell apart, however many pairs agree.
"""

from __future__ import annotations

import argparse
import importlib.util
import shutil
import statistics
import sys
import time
from pathlib import Path

def load_run(checkout: Path, tag: str):
    """``checkout``'s own e2e ``run`` module (and its own ``spans``)."""
    path = checkout.resolve() / "benchmarks" / "e2e" / "run.py"
    spec = importlib.util.spec_from_file_location(f"e2e_run_{tag}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.pop("spans", None)  # run.py imports its sibling by bare name
    spec.loader.exec_module(module)
    return module


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]``; a single pair is its own quartiles."""
    return statistics.quantiles(values * 2 if len(values) == 1 else values,
                                n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A (the parent)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sides = {"A": load_run(args.a, "a"), "B": load_run(args.b, "b")}
    try:
        return alternate(sides, args)
    finally:
        for run in sides.values():
            shutil.rmtree(run.TMP_ROOT, ignore_errors=True)


def alternate(sides: dict, args) -> int:
    reps: dict[str, list[dict]] = {"A": [], "B": []}
    for pair in range(args.pairs):
        for side in ("A", "B") if pair % 2 == 0 else ("B", "A"):
            run = sides[side]
            workload = run.load_workloads()[args.workload]
            rep = run.run_rep(workload["config"], args.seed,
                              workload["accuracy_floor"], time.monotonic() + 300)
            if rep["failures"]:
                print(f"FAILED pair {pair} side {side}: {rep['failures']}", file=sys.stderr)
                return 1
            reps[side].append(rep)
            print(f"pair {pair} {side} wall_s {rep['wall_s']:.3f}", flush=True)

    print(f"{args.workload} seed={args.seed} pairs={args.pairs} "
          f"A={args.a.resolve()} B={args.b.resolve()}")
    print(f"{'metric':<16} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} B wins")
    run = sides["B"]
    values = {side: [run.end_to_end_metrics([r]) for r in reps[side]] for side in reps}
    for metric in run.load_benchmark()["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a = [v[name] for v in values["A"]]
        b = [v[name] for v in values["B"]]
        cells = [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in (quartiles(a), quartiles(b))]
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        print(f"{name:<16} {cells[0]:<30} {cells[1]:<30} {wins}/{args.pairs}")
    for side in ("A", "B"):
        digests = sorted({r["digest"] for r in reps[side]})
        print(f"digest {side}: {' '.join(digests)}")
        if len(digests) != 1:
            print(f"FAILED side {side} produced {len(digests)} digests", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
