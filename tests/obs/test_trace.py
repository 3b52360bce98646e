"""Tests for the tracer, record schema, the JSONL export and the Chrome
conversion (repro.obs.trace)."""

import json

import numpy as np
import pytest

from repro.obs.trace import (
    CAT_AGGREGATION,
    CAT_COMPUTE,
    CAT_FLEET,
    CAT_WINDOW,
    TRACE_SCHEMA,
    Tracer,
    _json_default,
    chrome_events,
    read_trace,
    validate_record,
    write_chrome,
)
from tests.obs import reference_trace as R


class TestTracerBuffer:
    def test_span_and_instant_recorded(self):
        tr = Tracer()
        tr.span("round", CAT_WINDOW, sim_t0=0.0, sim_dur=1.5, round=0)
        tr.instant("drop", CAT_FLEET, track="client/3", sim_t=0.7)
        assert len(tr.records) == 2
        assert tr.records[0]["args"] == {"round": 0}
        for rec in tr.records:
            validate_record(rec)

    def test_buffer_bound_drops_not_grows(self):
        tr = Tracer(max_records=3)
        for i in range(10):
            tr.span("s", CAT_COMPUTE, sim_t0=float(i), sim_dur=1.0)
        assert len(tr.records) == 3
        assert tr.dropped_records == 7

    def test_wall_span_context_manager(self):
        tr = Tracer()
        with tr.wall_span("agg", CAT_AGGREGATION, round=1):
            pass
        (rec,) = tr.records
        assert rec["wall_t0"] is not None
        assert rec["wall_dur"] >= 0.0
        assert rec["sim_t0"] is None
        validate_record(rec)

    def test_add_worker_spans(self):
        tr = Tracer()
        tr.add_worker_spans([
            {"type": "span", "name": "worker.local_train", "cat": "runtime",
             "track": "worker/pid1/t0", "wall_t0": 100.0, "wall_dur": 0.1},
        ])
        assert len(tr.records) == 1
        validate_record(tr.records[0])

    def test_metrics_snapshot_interval(self):
        tr = Tracer(metrics_interval=5.0)
        tr.metrics.inc("sim.rounds")
        tr.maybe_snapshot(1.0)   # first snapshot always fires
        tr.maybe_snapshot(3.0)   # < interval since last: skipped
        tr.maybe_snapshot(6.5)   # >= interval: fires
        snaps = [r for r in tr.records if r["type"] == "metrics"]
        assert [s["sim_t"] for s in snaps] == [1.0, 6.5]
        assert snaps[0]["counters"] == {"sim.rounds": 1.0}

    def test_zero_interval_disables_periodic(self):
        tr = Tracer()
        tr.maybe_snapshot(10.0)
        assert tr.records == []


class TestValidation:
    def test_rejects_bad_type(self):
        with pytest.raises(ValueError, match="record type"):
            validate_record({"type": "bogus"})

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="cat must be one of"):
            validate_record({"type": "span", "name": "x", "cat": "nope",
                             "track": "server", "sim_t0": 0.0})

    def test_rejects_timestampless_span(self):
        with pytest.raises(ValueError, match="no timestamps"):
            validate_record({"type": "span", "name": "x", "cat": CAT_COMPUTE,
                             "track": "server"})

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_record({"type": "span", "name": "x", "cat": CAT_COMPUTE,
                             "track": "server", "sim_t0": 0.0, "sim_dur": -1.0})

    def test_rejects_non_numeric_time(self):
        with pytest.raises(ValueError, match="must be a number"):
            validate_record({"type": "instant", "name": "x", "cat": CAT_FLEET,
                             "track": "server", "sim_t": "soon"})


class TestExports:
    def _small_tracer(self):
        tr = Tracer()
        tr.span("round", CAT_WINDOW, sim_t0=0.0, sim_dur=2.0, round=0)
        tr.span("local_train", CAT_COMPUTE, track="client/0",
                sim_t0=0.1, sim_dur=1.0)
        tr.instant("drop", CAT_FLEET, track="client/0", sim_t=1.5)
        tr.metrics.inc("sim.rounds")
        tr.snapshot_metrics(sim_t=2.0)
        return tr

    def test_jsonl_round_trip(self, tmp_path):
        tr = self._small_tracer()
        path = tr.export_jsonl(tmp_path / "t.jsonl")
        header, records = read_trace(path)
        assert header["schema"] == TRACE_SCHEMA
        assert header["records"] == len(tr.records)
        # Every exported record (plus the final metrics line) validates.
        for rec in records:
            validate_record(rec)
        assert records[-1]["type"] == "metrics"
        assert records[-1].get("final") is True

    def test_jsonl_export_coerces_numpy_scalars(self, tmp_path):
        # Engines pass client ids straight through from numpy selection
        # arrays; export must not choke on np.int64/np.float64 args.
        tr = Tracer()
        tr.span("local_train", CAT_COMPUTE, track=f"client/{np.int64(3)}",
                sim_t0=0.0, sim_dur=1.0,
                client=np.int64(3), batches=np.int32(7))
        tr.metrics.inc("sim.updates.aggregated", np.int64(2))
        path = tr.export_jsonl(tmp_path / "np.jsonl")
        header, records = read_trace(path)
        assert records[0]["args"] == {"client": 3, "batches": 7}
        chrome = write_chrome(tmp_path / "np.chrome.json", header, records)
        json.loads(chrome.read_text())

    def test_header_carries_the_manifest_beside_the_counts(self, tmp_path):
        tr = self._small_tracer()
        header, _ = read_trace(tr.export_jsonl(tmp_path / "t.jsonl", manifest={"seed": 7}))
        assert header == {"type": "header", "schema": TRACE_SCHEMA,
                          "records": len(tr.records), "dropped_records": 0,
                          "manifest": {"seed": 7}}

    def test_export_warns_when_the_bound_dropped_records(self, tmp_path):
        tr = Tracer(max_records=2)
        for i in range(5):
            tr.span("s", CAT_COMPUTE, sim_t0=float(i), sim_dur=1.0)
        with pytest.warns(RuntimeWarning, match="3 records dropped past max_records=2"):
            path = tr.export_jsonl(tmp_path / "t.jsonl")
        header, _ = read_trace(path)
        assert (header["records"], header["dropped_records"]) == (2, 3)

    def test_read_trace_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"type": "header", "schema": "other/v9"}\n')
        with pytest.raises(ValueError, match="not a repro-trace/v1"):
            read_trace(path)

    def test_chrome_export_loads_and_has_both_clock_domains(self, tmp_path):
        tr = self._small_tracer()
        with tr.wall_span("aggregate", CAT_AGGREGATION):
            pass
        header, records = read_trace(tr.export_jsonl(tmp_path / "t.jsonl"))
        doc = json.loads(write_chrome(tmp_path / "t.chrome.json", header, records).read_text())
        assert doc["otherData"] == header
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {1, 2}
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        # Durations are microseconds: the 2 s window becomes 2e6 us.
        window = next(e for e in events if e.get("name") == "round" and e["ph"] == "X")
        assert window["ts"] == 0.0
        assert window["dur"] == pytest.approx(2e6)

    def test_chrome_tids_deterministic_first_seen(self):
        tr = self._small_tracer()
        a = chrome_events(tr.records)
        b = chrome_events(tr.records)
        assert a == b
        names = {
            e["args"]["name"]: e["tid"]
            for e in a if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names["server"] == 1
        assert names["client/0"] == 2


def test_chrome_json_matches_reference_converter():
    """Many client tracks, interleaved across both clock domains, some
    records in one domain only: byte-identical Chrome JSON."""
    tr = Tracer()
    for i in range(400):
        cid = (i * 37) % 150
        tr.span("local_train", CAT_COMPUTE, track=f"client/{cid}",
                sim_t0=float(i), sim_dur=0.5,
                wall_t0=1e9 + i if i % 3 else None, wall_dur=0.01)
        if i % 5 == 0:
            tr.instant("drop", CAT_FLEET, track=f"client/{cid + 1000}",
                       wall_t=1e9 + i, sim_t=None if i % 2 else float(i))
        if i % 50 == 0:
            with tr.wall_span("aggregate", CAT_AGGREGATION, track=f"worker/{i}"):
                pass
            tr.metrics.inc("sim.rounds")
            tr.snapshot_metrics(sim_t=float(i))

    def dump(events):
        return json.dumps(events, default=_json_default)

    assert dump(chrome_events(tr.records)) == dump(R.reference_chrome_events(tr.records))
