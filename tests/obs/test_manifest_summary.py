"""Tests for run manifests and the trace-summary breakdown."""

import json

from repro.harness.config import ExperimentConfig
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    git_sha,
    write_run_artifacts,
)
from repro.obs.summary import format_summary, summarize_trace
from repro.obs.trace import (
    CAT_AGGREGATION,
    CAT_COMPUTE,
    CAT_QUEUE_WAIT,
    CAT_WINDOW,
    Tracer,
    read_trace,
)


class TestManifest:
    def test_build_manifest_core_fields(self):
        m = build_manifest()
        assert m["schema"] == MANIFEST_SCHEMA
        assert "numpy" in m["versions"]
        assert "python" in m["versions"]
        assert m["seed_streams"]  # named STREAM_* constants recorded

    def test_manifest_resolves_config_presets(self):
        cfg = ExperimentConfig(method="fedavg", scale="ci")
        m = build_manifest(config=cfg)
        # rounds is None on the config; the manifest fills the preset.
        assert m["config"]["rounds"] == cfg.resolved("rounds")
        assert m["config"]["effective_model"] == cfg.effective_model
        assert m["seed"] == cfg.seed
        assert m["dtype"] == cfg.dtype
        json.dumps(m)

    def test_git_sha_shape(self):
        sha = git_sha()
        assert sha is None or (isinstance(sha, str) and len(sha) == 40)

    def test_write_run_artifacts_writes_one_trace_carrying_the_manifest(self, tmp_path):
        tr = Tracer()
        tr.span("round", CAT_WINDOW, sim_t0=0.0, sim_dur=1.0)
        cfg = ExperimentConfig()
        path = write_run_artifacts(tr, tmp_path / "run.jsonl", config=cfg)
        assert path == tmp_path / "run.jsonl"
        assert list(tmp_path.iterdir()) == [path]
        header, records = read_trace(path)
        assert header["records"] == 1
        assert header["manifest"]["schema"] == MANIFEST_SCHEMA
        assert header["manifest"]["config"]["rounds"] == cfg.resolved("rounds")
        assert records[0]["name"] == "round"


class TestSummary:
    def _traced_path(self, tmp_path):
        tr = Tracer()
        tr.span("round", CAT_WINDOW, sim_t0=0.0, sim_dur=2.0)
        tr.span("round", CAT_WINDOW, sim_t0=2.0, sim_dur=3.0)
        tr.span("fleet.wait", CAT_QUEUE_WAIT, sim_t0=0.0, sim_dur=0.5)
        tr.span("local_train", CAT_COMPUTE, track="client/0",
                sim_t0=0.5, sim_dur=1.2)
        with tr.wall_span("aggregate", CAT_AGGREGATION):
            pass
        tr.instant("connectivity_drop", "fleet", track="client/0", sim_t=1.0)
        tr.metrics.inc("sim.rounds", 2)
        return tr.export_jsonl(tmp_path / "t.jsonl")

    def test_summarize_totals(self, tmp_path):
        s = summarize_trace(self._traced_path(tmp_path))
        assert s["windows"] == 2
        assert s["total_sim_s"] == 5.0
        assert s["queue_wait_s"] == 0.5
        assert s["device_sim_s"] == {"compute": 1.2}
        assert s["instants"] == {"connectivity_drop": 1}
        assert s["wall_spans"]["aggregate"]["count"] == 1
        assert s["metrics"]["counters"] == {"sim.rounds": 2.0}

    def test_format_summary_readable(self, tmp_path):
        text = format_summary(summarize_trace(self._traced_path(tmp_path)))
        assert "server timeline (simulated): 5.000 s" in text
        assert "queue-wait" in text
        assert "compute" in text
        assert "aggregate" in text
        assert "sim.rounds" in text

    def test_cli_trace_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._traced_path(tmp_path)
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "server timeline" in out
        assert main(["trace-summary", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["windows"] == 2

    def test_cli_trace_summary_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
