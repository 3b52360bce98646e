"""Wire subsystem through the harness: config validation, CLI flags,
reporting round-trips, and the trace-summary bytes column."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main
from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_to_dict
from repro.harness.runner import run_experiment


class TestConfigValidation:
    def test_defaults_are_wire_inactive(self):
        cfg = ExperimentConfig()
        assert cfg.codec == "dense"
        assert cfg.bandwidth_model == "none"
        assert not cfg.wire_active

    def test_wire_active_property(self):
        assert ExperimentConfig(codec="topk").wire_active
        assert ExperimentConfig(latency_model="uniform",
                                bandwidth_model="uniform").wire_active

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="codec"):
            ExperimentConfig(codec="gzip")
        with pytest.raises(ValueError, match="topk_frac"):
            ExperimentConfig(topk_frac=0.0)
        with pytest.raises(ValueError, match="codec"):
            ExperimentConfig(codec="qsgd")  # a quantizing codec names its bits
        with pytest.raises(ValueError, match="bandwidth_model"):
            ExperimentConfig(bandwidth_model="5g")
        with pytest.raises(ValueError, match="up_mbps|positive"):
            ExperimentConfig(up_mbps=0.0)


class TestParserFlags:
    def test_wire_flag_defaults(self):
        args = build_parser().parse_args([])
        assert args.codec == "dense"
        assert args.topk_frac == 0.01
        assert args.error_feedback is True
        assert args.bandwidth_model == "none"

    def test_no_error_feedback_flag(self):
        args = build_parser().parse_args(["--no-error-feedback"])
        assert args.error_feedback is False

    def test_rejects_unknown_codec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--codec", "gzip"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--bandwidth-model", "5g"])


SMOKE = ["--dataset", "mnist", "--partition", "IID", "--method", "fedavg",
         "--scale", "ci", "--clients", "5", "--per-round", "5",
         "--rounds", "2"]


class TestCliSmoke:
    def test_sync_wire_json(self, capsys):
        code = main(SMOKE + ["--codec", "topk+qsgd8", "--topk-frac", "0.05",
                             "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        wire = payload["wire"]
        assert wire["codec"] == "topk+qsgd8"
        assert wire["bytes_up"] > 0
        assert wire["compression_ratio"] > 10
        assert wire["dense_bytes_up"] > wire["bytes_up"]

    def test_fedbuff_wire_text(self, capsys):
        code = main(SMOKE + ["--codec", "topk+qsgd8", "--topk-frac", "0.05",
                             "--aggregation", "fedbuff", "--buffer-size", "3",
                             "--latency-model", "lognormal",
                             "--bandwidth-model", "lognormal"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wire:" in out and "codec=topk+qsgd8" in out

    def test_invalid_combo_is_a_cli_error(self, capsys):
        assert main(SMOKE + ["--codec", "topk", "--topk-frac", "0"]) == 2
        assert "topk_frac" in capsys.readouterr().err


class TestReportingRoundTrip:
    def test_history_dict_carries_byte_fields(self):
        cfg = ExperimentConfig(
            method="fedavg", scale="ci", n_clients=5, clients_per_round=5,
            rounds=2, codec="topk", topk_frac=0.05,
        )
        history = run_experiment(cfg).history
        out = json.loads(json.dumps(history_to_dict(history)))
        assert out["total_payload_bytes_up"] == history.total_bytes_up() > 0
        assert out["total_payload_bytes_down"] == history.total_bytes_down() > 0
        assert out["total_dense_bytes_up"] > out["total_payload_bytes_up"]
        assert out["wire_compression_ratio"] == pytest.approx(
            history.wire_compression_ratio())
        assert out["payload_bytes_series"]
        assert sum(u for _, u, _ in out["payload_bytes_series"]) == \
            out["total_payload_bytes_up"]

    def test_no_wire_run_reports_zeros(self):
        cfg = ExperimentConfig(method="fedavg", scale="ci", n_clients=5,
                               clients_per_round=5, rounds=2)
        out = history_to_dict(run_experiment(cfg).history)
        assert out["total_payload_bytes_up"] == 0
        assert out["wire_compression_ratio"] == 1.0
        assert out["payload_bytes_series"] == []


class TestTraceSummaryBytes:
    def test_bytes_column_per_phase(self, tmp_path, capsys):
        trace = str(tmp_path / "run.trace.jsonl")
        assert main(SMOKE + ["--codec", "qsgd8", "--latency-model", "uniform",
                             "--bandwidth-model", "uniform",
                             "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-summary", trace]) == 0
        out = capsys.readouterr().out
        assert "wire payload" in out
        assert "download" in out and "upload" in out
        assert "sim.wire.bytes_up" in out

    def test_json_summary_carries_device_bytes(self, tmp_path, capsys):
        trace = str(tmp_path / "run.trace.jsonl")
        assert main(SMOKE + ["--codec", "qsgd8", "--latency-model", "uniform",
                             "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-summary", trace, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["device_bytes"]["upload"] > 0
        assert summary["device_bytes"]["download"] > \
            summary["device_bytes"]["upload"]

    def test_no_wire_trace_has_no_bytes_block(self, tmp_path, capsys):
        trace = str(tmp_path / "run.trace.jsonl")
        assert main(SMOKE + ["--latency-model", "uniform",
                             "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-summary", trace]) == 0
        assert "wire payload" not in capsys.readouterr().out
