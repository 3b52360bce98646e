#!/usr/bin/env python3
"""End-to-end benchmark of the federated simulator, attributed by layer.

Contract mode (what the PR driver runs, from the root of a checkout)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs fresh-process reps of one fixed workload through the program's real
entry point (``repro.harness.runner.run_experiment``), checks the outputs,
prints every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.

Without ``--workload`` it runs all workloads, timed and traced.  ``--smoke``
shrinks that to a quick pass, ``--repeat-check`` measures the noise floor,
``--record`` rewrites ``baseline.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

from spans import BUILD_ROWS, ENGINE_ROW, ROOT, SPAN_ROWS, TOTAL_ROWS, WORKER_SIDE_ROWS  # noqa: E402

# Rep artifacts (checkpoint, trace) live inside the checkout: the driver
# allows no reads or writes outside it, so no tmpfs.
TMP_ROOT = REPO / ".bench_e2e_tmp"
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}
# Every timed set makes at least this many reps however short --seconds is:
# each metric is a median over reps, and the slowest-round workloads need
# five reps to pool the 100 windows the reported p90 asks for.
MIN_REPS = 5
# The driver allows one invocation 180 s; stop launching reps before that.
INVOCATION_BUDGET_S = 165.0
SMOKE_DIVISOR = 4
P90_MIN_BEYOND = 10


def load_benchmark() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


# -- host ---------------------------------------------------------------------

def fingerprint() -> dict:
    """Where these numbers were measured; printed with every output."""
    import numpy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=5,
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "tmp_dir": "checkout-disk",
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "git_sha": git_sha,
    }


# -- one rep --------------------------------------------------------------------

def run_rep(config: dict, seed: int, floor: float, deadline: float,
            traced: bool = False, skip_rows=(), spans_out=None) -> dict:
    """One fresh child process; returns its result or ``{"failures": [...]}``.

    A rep fails on a non-zero exit, a timeout, unparsable output, or any of
    the child's own correctness checks.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT, prefix="rep-")
    cfg = {
        key: os.path.join(tmp, key) if value == "<tmp>" else value
        for key, value in config.items()
    }
    cfg["seed"] = seed
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spec = {
        "config": cfg, "traced": traced, "skip_rows": sorted(skip_rows),
        "floor": floor, "spans_out": spans_out, "spawn_t": time.time(),
    }
    # Own session: on timeout the whole group (pool workers too) is killed.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=REPO, start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            json.dumps(spec), timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"failures": ["timeout"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        return {"failures": [f"exit {proc.returncode}: {err.strip()[-400:]}"]}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"failures": [f"unparsable rep output: {out[-200:]!r}"]}


# -- statistics -------------------------------------------------------------------

def pooled_percentile(samples, q: float, min_beyond: int = 0):
    """Nearest-rank percentile of ``samples``; ``None`` when fewer than
    ``min_beyond`` samples lie beyond it (too few to trust the tail)."""
    ordered = sorted(samples)
    if not ordered:
        return None
    k = max(0, math.ceil(q * len(ordered)) - 1)
    if len(ordered) - 1 - k < min_beyond:
        return None
    return ordered[k]


def sized(workload: dict, divisor: int) -> tuple[dict, float]:
    """The workload's config and accuracy floor.  ``divisor`` > 1 (smoke)
    divides rounds and the checkpoint cadence, which is counted in flushes,
    and drops the floor: a run that short has not learned anything yet."""
    cfg = dict(workload["config"])
    if divisor == 1:
        return cfg, workload["accuracy_floor"]
    cfg["rounds"] = max(2, cfg["rounds"] // divisor)
    if "checkpoint_every" in cfg:
        cfg["checkpoint_every"] = max(1, cfg["checkpoint_every"] // divisor)
    return cfg, 0.0


class Outcome:
    """Reps attempted / failed and why, across one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()

    def add(self, label: str, rep: dict) -> bool:
        self.attempted += 1
        if rep["failures"]:
            self.failed += 1
            self.failures += [f"{label}: {f}" for f in rep["failures"]]
            return False
        self.digests.add(rep["digest"])
        return True

    @property
    def correct(self) -> bool:
        # Every rep of a workload (timed, traced, serial twin) must produce
        # one history digest.
        return self.attempted > 0 and self.failed == 0 and len(self.digests) == 1


# -- timed set: the end-to-end metrics ------------------------------------------

def timed_set(workload: dict, seed: int, seconds: float, outcome: Outcome,
              divisor: int = 1, min_reps: int = MIN_REPS) -> dict:
    """Closed loop, one rep at a time: launch reps until ``seconds`` have
    been measured (and at least ``min_reps``); medians over reps."""
    cfg, floor = sized(workload, divisor)
    start = time.monotonic()
    deadline = start + INVOCATION_BUDGET_S
    reps = []
    while (len(reps) < min_reps or time.monotonic() - start < seconds) \
            and time.monotonic() < deadline:
        rep = run_rep(cfg, seed, floor, deadline)
        if outcome.add(f"timed rep {outcome.attempted}", rep):
            reps.append(rep)
        elif outcome.failed >= min_reps:
            break  # nothing works; do not spin until the deadline
    if not reps:
        return {}
    windows = pooled_windows(reps)
    return {
        "metrics": end_to_end_metrics(reps),
        "reps": len(reps),
        "pooled_windows": len(windows),
        # Reported, not bounded: the tail of the windows is mostly the
        # host's (see README), so no regression bound can hold on it.
        "window_p90_ms": pooled_percentile(windows, 0.9, P90_MIN_BEYOND),
        "updates_per_rep": reps[0]["updates"],
    }


def pooled_windows(reps: list[dict]) -> list[float]:
    return [w for r in reps for w in r["windows_ms"]]


def end_to_end_metrics(reps: list[dict]) -> dict:
    """End-to-end metric values, by BENCHMARK.json name: medians over reps,
    the window median over the windows of all reps pooled."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "updates_per_s": statistics.median(r["updates"] / r["wall_s"] for r in reps),
        "window_p50_ms": pooled_percentile(pooled_windows(reps), 0.5),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


# -- traced set: the per-layer metrics ------------------------------------------

BLANK = {"self_s": 0.0, "total_s": 0.0, "calls": 0}


def merge_rows(main: dict, process: dict | None) -> dict:
    """The traced rep's rows; for a process workload the executor's rows
    come from the process rep and all others from the serial twin."""
    rows = dict(main["traced"]["rows"])
    if process is not None:
        for name in ("runtime.executor.run_round", "harness.build_executor"):
            rows[name] = process["traced"]["rows"].get(name, BLANK)
    return rows


def traced_set(workload: dict, seed: int, outcome: Outcome, divisor: int = 1,
               reference_reps: int = 2, spans_out=None) -> dict:
    """Untraced reference reps (for the shim overhead), then the traced rep.

    A process-backend workload gets two traced reps: as configured, with the
    program's own trace on, for the ``runtime.executor.*`` rows (worker
    spans and IPC bytes come from that trace); and a serial twin for every
    other row, because the shims do not reach into pool workers.
    """
    cfg, floor = sized(workload, divisor)
    deadline = time.monotonic() + INVOCATION_BUDGET_S
    reference = []
    for _ in range(reference_reps):
        rep = run_rep(cfg, seed, floor, deadline)
        if outcome.add("reference rep", rep):
            reference.append(rep["run_s"])

    process = None
    main_cfg = cfg
    if cfg.get("backend") == "process":
        process = run_rep(dict(cfg, trace="<tmp>"), seed, floor, deadline,
                          traced=True, skip_rows=WORKER_SIDE_ROWS)
        if not outcome.add("traced process rep", process):
            return {}
        main_cfg = {k: v for k, v in cfg.items() if k != "workers"}
        main_cfg["backend"] = "serial"
    main = run_rep(main_cfg, seed, floor, deadline, traced=True, spans_out=spans_out)
    if not outcome.add("traced rep", main) or not reference:
        return {}
    rows = merge_rows(main, process)
    metrics = layer_metrics(rows, main, process, statistics.median(reference))
    stale = sorted(
        row for row in workload["active_rows"] if not rows.get(row, BLANK)["calls"]
    )
    return {
        "metrics": metrics,
        "stale_shims": stale,
        "missing_targets": main["traced"]["missing_targets"],
    }


def layer_metrics(rows: dict, main: dict, process: dict | None,
                  untraced_run_s: float) -> dict:
    """Per-layer metric values from the traced rep(s), by BENCHMARK.json name."""
    t = main["traced"]
    executor = process["traced"] if process is not None else t

    def row(name: str) -> dict:
        return rows.get(name, BLANK)

    m: dict[str, float] = {}
    for name in SPAN_ROWS:
        m[f"{name}.self_s"] = row(name)["self_s"]
        m[f"{name}.calls"] = row(name)["calls"]
    m[f"{ENGINE_ROW}.self_s"] = row(ENGINE_ROW)["self_s"]
    for name in TOTAL_ROWS:
        m[f"{name}.total_s"] = row(name)["total_s"]
    m["harness.import_s"] = t["import_s"]
    for name in BUILD_ROWS:
        m[f"{name}_s"] = row(name)["self_s"]

    train_s = (row("fl.client.local_train")["total_s"]
               - row("fl.client.loss_eval")["total_s"])
    m["nn.us_per_step"] = 1e6 * train_s / t["client_steps"] if t["client_steps"] else 0.0
    worker_s = executor["worker_train_s"]
    if worker_s is None:  # serial: the worker is this process
        worker_s = row("fl.client.local_train")["total_s"]
    dispatch_s = row("runtime.executor.run_round")["total_s"]
    m["runtime.executor.worker_train_s"] = worker_s
    m["runtime.executor.idle_frac"] = (
        1.0 - worker_s / (executor["workers"] * dispatch_s) if dispatch_s else 0.0
    )
    m["runtime.executor.ipc_bytes_out"] = executor["ipc_bytes_out"]
    m["runtime.executor.ipc_bytes_in"] = executor["ipc_bytes_in"]
    m["runtime.executor.worker_rss_mb"] = executor["worker_rss_mb"]
    m["runtime.checkpoint.saves"] = t["checkpoint_saves"]
    m["runtime.checkpoint.bytes"] = t["checkpoint_bytes"]
    m["fl.wire.bytes_up"] = t["wire_bytes_up"]
    m["fl.wire.compression_ratio"] = t["wire_compression_ratio"]
    m["fl.wire.ef_clients"] = t["wire_ef_clients"]
    m["fl.robust.rejected"] = t["robust_rejected"]
    m["fl.robust.clipped"] = t["robust_clipped"]
    m["fleet.resident_clients_max"] = t["resident_clients_max"]
    m["drl.replay_size"] = t["replay_size"]
    # Deterministic per seed; a simulator-only speedup must leave both alone.
    m["final_accuracy"] = main["final_accuracy"]
    m["sim_makespan_s"] = main["sim_makespan_s"]
    m["obs.trace.records"] = t["trace_records"]
    m["obs.trace.dropped"] = t["trace_dropped"]
    # Overhead of tracing: the traced run over the untraced median.  For a
    # process workload the comparable traced run is the process one.
    traced_run_s = (process or main)["run_s"]
    m["bench.shim_overhead_frac"] = traced_run_s / untraced_run_s - 1.0
    root = rows[ROOT]
    m["bench.traced_wall_s"] = root["total_s"]
    m["bench.unattributed_frac"] = root["self_s"] / root["total_s"]
    return m


# -- output -----------------------------------------------------------------------

def with_units(values: dict, declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for the declared metrics, in order."""
    return {
        d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
        for d in declared if d["name"] in values
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>16.6f} {m['unit']}")


def run_workload(name: str, seed: int, seconds: float, bench: dict,
                 workloads: dict, trace: bool, divisor: int = 1,
                 min_reps: int = MIN_REPS, spans_dir=None) -> dict:
    """One workload, timed or traced; prints the table, returns the result."""
    outcome = Outcome()
    workload = workloads[name]
    if trace:
        spans_out = str(Path(spans_dir) / f"{name}.spans.jsonl") if spans_dir else None
        result = traced_set(workload, seed, outcome, divisor,
                            reference_reps=min(2, min_reps), spans_out=spans_out)
        declared = bench["per_layer"]
    else:
        result = timed_set(workload, seed, seconds, outcome, divisor, min_reps)
        declared = bench["end_to_end"]
    metrics = with_units(result.get("metrics", {}), declared)
    print_metrics(f"{name} seed={seed} ({'per layer' if trace else 'end to end'})",
                  metrics)
    for key in ("reps", "pooled_windows", "window_p90_ms", "updates_per_rep",
                "stale_shims", "missing_targets"):
        if result.get(key):
            print(f"{key}: {result[key]}")
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if len(outcome.digests) > 1:
        print(f"FAILED digests differ: {sorted(outcome.digests)}", file=sys.stderr)
    return {
        "correct": outcome.correct and bool(metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "digest": next(iter(outcome.digests)) if len(outcome.digests) == 1 else None,
        "info": {k: v for k, v in result.items() if k != "metrics"},
    }


def run_all(seed: int, seconds: float, bench: dict, workloads: dict,
            divisor: int = 1, min_reps: int = MIN_REPS, trace: bool = True,
            spans_dir=None) -> dict:
    """Every workload, timed then (optionally) traced."""
    out = {}
    for name in workloads:
        timed = run_workload(name, seed, seconds, bench, workloads, False,
                             divisor, min_reps)
        entry = {
            "correct": timed["correct"], "attempted": timed["attempted"],
            "failed": timed["failed"], "digest": timed["digest"],
            "end_to_end": timed["metrics"], "info": timed["info"],
        }
        if trace:
            traced = run_workload(name, seed, seconds, bench, workloads, True,
                                  divisor, min_reps, spans_dir)
            entry["correct"] &= traced["correct"] and traced["digest"] == timed["digest"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["per_layer"] = traced["metrics"]
            entry["info"].update(traced["info"])
        entry["failed_frac"] = entry["failed"] / max(1, entry["attempted"])
        out[name] = entry
    return out


def repeat_check(seed: int, seconds: float, bench: dict, workloads: dict,
                 host: dict) -> int:
    """Two full timed sets of the same code; the relative difference of each
    end-to-end median is this host's noise floor and must sit inside the
    metric's bound.  The history digests (every deterministic output) must
    agree exactly."""
    first = run_all(seed, seconds, bench, workloads, trace=False)
    second = run_all(seed, seconds, bench, workloads, trace=False)
    bounds = {d["name"]: d["bound"] for d in bench["end_to_end"]}
    noise, bad = {}, []
    for name in workloads:
        a, b = first[name], second[name]
        if not (a["correct"] and b["correct"]):
            bad.append(f"{name}: a set failed its correctness checks")
        if a["digest"] != b["digest"]:
            bad.append(f"{name}: digests differ between the two sets")
        noise[name] = {}
        for metric, bound in bounds.items():
            if metric not in a["end_to_end"] or metric not in b["end_to_end"]:
                continue
            x = a["end_to_end"][metric]["value"]
            y = b["end_to_end"][metric]["value"]
            diff = abs(y - x) / abs(x)
            noise[name][metric] = diff
            if diff > bound:
                bad.append(f"{name}.{metric}: {x} vs {y} (bound {bound})")
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"host": host, "noise_floor": noise, "ok": not bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure at least this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"all workloads, rounds / {SMOKE_DIVISOR}, "
                             "1 timed + 1 traced rep each")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two full timed sets; print the noise floor")
    parser.add_argument("--record", action="store_true",
                        help="all workloads, then rewrite baseline.json")
    parser.add_argument("--spans-dir",
                        help="write each traced rep's raw spans here (JSONL)")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print("no src/repro next to the benchmark: nothing to measure",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    workloads = load_workloads()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    host = fingerprint()
    print("host: " + json.dumps(host))
    try:
        if args.repeat_check:
            return repeat_check(args.seed, seconds, bench, workloads, host)
        if args.workload is not None:
            if args.workload not in workloads:
                parser.error(f"unknown workload {args.workload!r}; "
                             f"one of {sorted(workloads)}")
            result = run_workload(args.workload, args.seed, seconds, bench,
                                  workloads, bool(args.trace),
                                  spans_dir=args.spans_dir)
            if not result["metrics"]:
                return 1  # no rep ran to the end: there is no result to print
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0 if result["correct"] else 1
        if args.smoke:
            results = run_all(args.seed, 0.0, bench, workloads,
                              divisor=SMOKE_DIVISOR, min_reps=1,
                              spans_dir=args.spans_dir)
        else:
            results = run_all(args.seed, seconds, bench, workloads,
                              spans_dir=args.spans_dir)
        ok = all(r["correct"] for r in results.values())
        document = {"schema": "repro-e2e-baseline/v1", "seed": args.seed,
                    "smoke": args.smoke, "host": host, "workloads": results}
        if args.record and ok and not args.smoke:
            document["recorded"] = time.strftime("%Y-%m-%d")
            document["note"] = (
                "Baseline of the end-to-end benchmark; claims no gain. The "
                "BENCH_*.json files at the repo root were recorded at "
                "cpu_count: 1 and are superseded by this benchmark for any "
                "speedup claim."
            )
            (HERE / "baseline.json").write_text(json.dumps(document, indent=1) + "\n")
        print(json.dumps(document))
        return 0 if ok else 1
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
