"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "mnist"
        assert args.method == "feddrl"

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "imagenet"])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--method", "fedsgd"])

    def test_runtime_flag_defaults(self):
        args = build_parser().parse_args([])
        assert args.backend == "serial"
        assert args.workers is None
        assert args.latency_model == "none"
        assert args.deadline is None
        assert args.deadline_policy == "wait"

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu"])

    def test_rejects_unknown_latency_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--latency-model", "fractal"])


class TestMain:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "mnist" in out and "feddrl" in out and "CE" in out

    def test_runs_experiment_text(self, capsys):
        code = main([
            "--dataset", "mnist", "--partition", "CE", "--method", "fedavg",
            "--scale", "ci", "--clients", "5", "--per-round", "5",
            "--rounds", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best top-1 accuracy" in out

    def test_runs_experiment_json(self, capsys):
        code = main([
            "--dataset", "mnist", "--partition", "IID", "--method", "fedavg",
            "--scale", "ci", "--clients", "5", "--per-round", "5",
            "--rounds", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["best_accuracy"] <= 1.0
        assert len(payload["accuracy_series"]) == 2

    def test_thread_backend_matches_serial(self, capsys):
        def best_acc(extra):
            code = main([
                "--dataset", "mnist", "--partition", "IID", "--method", "fedavg",
                "--scale", "ci", "--clients", "5", "--per-round", "5",
                "--rounds", "2", "--json", *extra,
            ])
            assert code == 0
            return json.loads(capsys.readouterr().out)["best_accuracy"]

        assert best_acc([]) == best_acc(["--backend", "thread", "--workers", "2"])

    def test_latency_model_reports_sim_time(self, capsys):
        code = main([
            "--dataset", "mnist", "--partition", "IID", "--method", "fedavg",
            "--scale", "ci", "--clients", "5", "--per-round", "5",
            "--rounds", "2", "--latency-model", "uniform", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sim_time_s"] > 0
        assert payload["dropped_updates"] == 0

    def test_singleset_json_has_no_series(self, capsys):
        main([
            "--method", "singleset", "--scale", "ci", "--clients", "5",
            "--per-round", "5", "--rounds", "2", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert "accuracy_series" not in payload

    def test_resume_from_truncated_checkpoint_is_one_line(self, tmp_path, capsys):
        cell = ["--method", "fedavg", "--scale", "ci", "--clients", "5",
                "--per-round", "5", "--rounds", "2"]
        ck = tmp_path / "run.ckpt"
        assert main([*cell, "--checkpoint", str(ck)]) == 0
        ck.write_bytes(ck.read_bytes()[:100])
        capsys.readouterr()
        assert main([*cell, "--resume", str(ck)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("python -m repro: error: --resume:")
        assert "run.ckpt" in err and "\n" not in err
