"""Tests of the end-to-end benchmark's own arithmetic and output contract.

Run with ``pytest benchmarks/e2e -q`` (not part of the tier-1 ``testpaths``).
The last test runs ``run.py --smoke`` for real (about 20 s).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def clock(monkeypatch):
    """A fake ``perf_counter`` the test advances by hand."""
    now = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: now[0])
    return now


def rows_of(recorder):
    return spans.self_times(recorder.spans)


# -- self-time arithmetic ---------------------------------------------------------

def test_nested_calls_split_self_and_total(clock):
    rec = spans.SpanRecorder()

    def inner():
        clock[0] += 2.0

    inner = rec.wrap("inner", inner)

    def outer():
        clock[0] += 1.0
        inner()
        inner()
        clock[0] += 0.5

    rec.wrap("outer", outer)()
    rows = rows_of(rec)
    assert rows["outer"] == {"self_s": 1.5, "total_s": 5.5, "calls": 1}
    assert rows["inner"] == {"self_s": 4.0, "total_s": 4.0, "calls": 2}
    # Rows reconcile: self times add up to the outermost span.
    assert sum(r["self_s"] for r in rows.values()) == rows["outer"]["total_s"]


def test_same_row_nesting_counts_total_once(clock):
    rec = spans.SpanRecorder()

    def base():
        clock[0] += 1.0

    base = rec.wrap("step", base)

    def derived():
        clock[0] += 0.25
        base()

    rec.wrap("step", derived)()
    assert rows_of(rec)["step"] == {"self_s": 1.25, "total_s": 1.25, "calls": 2}


def test_raising_call_still_closes_its_span(clock):
    rec = spans.SpanRecorder()

    def boom():
        clock[0] += 3.0
        raise KeyError("x")

    boom = rec.wrap("boom", boom)

    def outer():
        clock[0] += 1.0
        try:
            boom()
        except KeyError:
            clock[0] += 1.0

    rec.wrap("outer", outer)()
    rows = rows_of(rec)
    assert rows["boom"] == {"self_s": 3.0, "total_s": 3.0, "calls": 1}
    assert rows["outer"]["self_s"] == 2.0
    assert rec._stack == []


def test_generator_shim_times_the_body_not_the_consumer(clock):
    rec = spans.SpanRecorder()

    def batches(n):
        for i in range(n):
            clock[0] += 1.0  # producing an item
            yield i

    batches = rec.wrap_generator("data", batches)

    def consume():
        got = []
        for item in batches(3):
            clock[0] += 10.0  # the consumer's own work
            got.append(item)
        return got

    assert rec.wrap("consumer", consume)() == [0, 1, 2]
    rows = rows_of(rec)
    # One span per next(): three items and the final StopIteration.
    assert rows["data"] == {"self_s": 3.0, "total_s": 3.0, "calls": 4}
    assert rows["consumer"]["self_s"] == 30.0


def test_generator_shim_survives_an_early_break(clock):
    rec = spans.SpanRecorder()

    def forever():
        while True:
            clock[0] += 1.0
            yield 0

    gen = rec.wrap_generator("data", forever)
    for _ in gen():
        break
    assert rec._stack == []
    assert rows_of(rec)["data"]["calls"] == 1


def test_counter_is_taken_at_the_span_boundary(clock):
    rec = spans.SpanRecorder()
    step = rec.wrap("nn.optim_step", lambda: None, "client_steps")
    for _ in range(7):
        step()
    assert rec.counts == {"client_steps": 7}


def test_open_spans_are_skipped(clock):
    rec = spans.SpanRecorder()
    rec.enter("never_closed")
    assert rows_of(rec) == {}


# -- percentiles ------------------------------------------------------------------

def test_pooled_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert run.pooled_percentile(samples, 0.5) == 50
    assert run.pooled_percentile(samples, 0.9) == 90
    assert run.pooled_percentile([5.0], 0.9) == 5.0
    assert run.pooled_percentile([], 0.5) is None


def test_p90_needs_ten_samples_beyond_it():
    assert run.pooled_percentile(list(range(100)), 0.9, min_beyond=10) == 89
    assert run.pooled_percentile(list(range(99)), 0.9, min_beyond=10) is None


def fake_rep(wall, windows):
    return {"setup_s": 0.5, "wall_s": wall, "updates": 100,
            "windows_ms": windows, "peak_rss_mb": 64.0}


def test_end_to_end_metrics_pool_windows_and_take_medians():
    reps = [fake_rep(2.0, [10.0] * 30), fake_rep(4.0, [20.0] * 30),
            fake_rep(3.0, [30.0] * 40)]
    m = run.end_to_end_metrics(reps)
    assert m["wall_s"] == 3.0
    assert m["updates_per_s"] == pytest.approx(100 / 3.0)
    assert m["window_p50_ms"] == 20.0
    assert len(run.pooled_windows(reps)) == 100


# -- names --------------------------------------------------------------------------

def fake_traced_rep():
    rows = {name: {"self_s": 1.0, "total_s": 2.0, "calls": 3}
            for name in (*spans.SPAN_ROWS, *spans.BUILD_ROWS,
                         spans.ENGINE_ROW, spans.ROOT)}
    return {
        "run_s": 5.0, "final_accuracy": 0.9, "sim_makespan_s": 12.0,
        "traced": {
            "rows": rows, "missing_targets": [], "import_s": 0.2,
            "client_steps": 10, "workers": 1, "worker_train_s": None,
            "ipc_bytes_out": 0, "ipc_bytes_in": 0, "worker_rss_mb": 0.0,
            "checkpoint_saves": 0, "checkpoint_bytes": 0, "wire_bytes_up": 0,
            "wire_compression_ratio": 0.0, "wire_ef_clients": 0,
            "robust_rejected": 0, "robust_clipped": 0,
            "resident_clients_max": 0, "replay_size": 0, "trace_records": 0,
            "trace_dropped": 0,
        },
    }


def test_benchmark_json_names_match_what_the_driver_emits():
    bench = run.load_benchmark()
    declared_e2e = [d["name"] for d in bench["end_to_end"]]
    emitted_e2e = run.end_to_end_metrics([fake_rep(2.0, [1.0] * 100)])
    assert sorted(declared_e2e) == sorted(emitted_e2e)

    rep = fake_traced_rep()
    emitted = run.layer_metrics(run.merge_rows(rep, None), rep, None, 4.0)
    declared = [d["name"] for d in bench["per_layer"]]
    assert sorted(declared) == sorted(emitted)
    assert len(declared) == len(set(declared))


def test_metric_and_workload_names_fit_the_charset():
    bench = run.load_benchmark()
    names = [d["name"] for d in bench["end_to_end"] + bench["per_layer"]
             + bench["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(bench["end_to_end"]) <= 16 and len(bench["per_layer"]) <= 128
    assert "setup_s" in {d["name"] for d in bench["end_to_end"]}
    assert all(0 < d["bound"] <= 0.25 for d in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(run.load_workloads())


def test_active_rows_are_known_rows():
    known = {*spans.SPAN_ROWS, *spans.BUILD_ROWS, spans.ENGINE_ROW}
    for name, workload in run.load_workloads().items():
        assert workload["active_rows"], name
        assert set(workload["active_rows"]) <= known, name


def test_process_workload_takes_executor_rows_from_the_process_rep():
    twin, process = fake_traced_rep(), fake_traced_rep()
    process["traced"]["rows"]["runtime.executor.run_round"] = {
        "self_s": 9.0, "total_s": 9.0, "calls": 20}
    process["traced"].update(workers=2, worker_train_s=12.0, ipc_bytes_out=7)
    process["run_s"] = 4.4
    m = run.layer_metrics(run.merge_rows(twin, process), twin, process, 4.0)
    assert m["runtime.executor.run_round.self_s"] == 9.0
    assert m["runtime.executor.idle_frac"] == pytest.approx(1 - 12.0 / 18.0)
    assert m["runtime.executor.ipc_bytes_out"] == 7
    assert m["nn.forward.self_s"] == 1.0
    assert m["bench.shim_overhead_frac"] == pytest.approx(0.1)


# -- the real thing -------------------------------------------------------------------

def test_smoke_output_schema():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=run.REPO,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("host: ")
    host = json.loads(lines[0][len("host: "):])
    assert {"cpu_count", "affinity", "python", "numpy", "blas", "thread_pins",
            "tmp_dir", "loadavg_at_start", "git_sha"} <= set(host)
    document = json.loads(lines[-1])
    bench = run.load_benchmark()
    assert list(document["workloads"]) == [w["name"] for w in bench["workloads"]]
    e2e = {d["name"]: d["unit"] for d in bench["end_to_end"]}
    layers = {d["name"]: d["unit"] for d in bench["per_layer"]}
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["failed_frac"] == 0.0
        assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"])
        assert set(entry["end_to_end"]) == set(e2e)
        # One smoke rep has too few windows for the reported p90.
        assert entry["info"]["window_p90_ms"] is None
        assert set(entry["per_layer"]) == set(layers)
        for metric, value in {**entry["end_to_end"], **entry["per_layer"]}.items():
            assert isinstance(value["value"], (int, float)), metric
            assert value["unit"] == {**e2e, **layers}[metric]
        assert entry["info"]["missing_targets"] == []
        assert entry["info"]["stale_shims"] == []
        assert entry["per_layer"]["bench.unattributed_frac"]["value"] < 0.05
