"""One trace artifact per run.

A traced run writes exactly one file, the JSONL trace at ``--trace PATH``,
whose header carries the run's manifest.  The Chrome ``trace_event`` view
is converted from that file on demand (``trace-summary PATH --chrome
OUT``) and must equal the conversion of the run's in-memory records.
"""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.harness import runner
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.obs import Tracer, build_manifest, chrome_events, read_trace
from repro.obs.trace import TRACE_SCHEMA, _json_default

CI = ["--scale", "ci", "--method", "fedavg", "--latency-model", "lognormal",
      "--availability", "markov", "--dropout-prob", "0.1", "--workers", "2",
      "--metrics-interval", "5", "--json"]
RUNS = {
    "sync-thread": ["--backend", "thread"],
    "fedbuff-process": ["--backend", "process", "--aggregation", "fedbuff",
                        "--buffer-size", "5"],
}


def traced_cli_run(monkeypatch, capsys, argv):
    """Run the CLI and return ``(tracer, stdout payload)``."""
    tracers = []

    def keep(**kwargs):
        tracers.append(Tracer(**kwargs))
        return tracers[-1]

    monkeypatch.setattr(runner, "Tracer", keep)
    assert main(argv) == 0
    (tracer,) = tracers
    return tracer, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_chrome_view_equals_the_in_memory_conversion(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / "run.trace.jsonl"
    tracer, payload = traced_cli_run(
        monkeypatch, capsys, CI + RUNS[name] + ["--trace", str(path)])
    assert payload["trace_path"] == str(path)
    assert [p.name for p in tmp_path.iterdir()] == ["run.trace.jsonl"]
    assert any(r["type"] == "metrics" for r in tracer.records)
    if name == "fedbuff-process":
        assert any(r.get("track", "").startswith("worker/") for r in tracer.records)

    out = tmp_path / "views" / "run.chrome.json"
    assert main(["trace-summary", str(path), "--chrome", str(out)]) == 0
    assert "server timeline" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert json.dumps(doc["traceEvents"]) == json.dumps(
        chrome_events(tracer.records), default=_json_default)
    header, _ = read_trace(path)
    assert doc["otherData"] == header
    assert doc["displayTimeUnit"] == "ms"


def test_a_traced_run_leaves_one_file_whose_header_is_the_manifest(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    cfg = ExperimentConfig(method="fedavg", scale="ci", n_clients=5,
                           clients_per_round=5, rounds=2, trace=str(path))
    result = run_experiment(cfg)
    assert result.extra["trace_path"] == str(path)
    assert [p.name for p in tmp_path.iterdir()] == ["run.trace.jsonl"]
    header, records = read_trace(path)
    assert header["schema"] == TRACE_SCHEMA
    assert header["records"] == len(records) - 1  # the final metrics line
    assert header["dropped_records"] == 0
    config = header["manifest"]["config"]
    assert config == json.loads(json.dumps(build_manifest(cfg)["config"]))
    assert config["rounds"] == cfg.resolved("rounds") == 2
    assert config["n_train"] == cfg.resolved("n_train")
    assert set(dataclasses.asdict(cfg)) <= set(config)


def test_chrome_of_a_missing_trace_exits_2(tmp_path, capsys):
    out = tmp_path / "x.chrome.json"
    assert main(["trace-summary", str(tmp_path / "nope.jsonl"), "--chrome", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()
