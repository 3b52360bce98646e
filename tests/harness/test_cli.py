"""Tests for the ``python -m repro`` command-line interface."""

import dataclasses
import json

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.harness.config import ExperimentConfig, cli_fields

# ExperimentConfig fields set only from Python; every other field has a flag.
CONFIG_ONLY = {
    "lr", "prox_mu", "n_train", "n_test", "local_epochs",
    "batch_size", "model", "eval_every", "drl_beta", "drl_gamma", "drl_noise_scale", "drl_updates_per_round",
    "drl_pretrain_workers", "drl_offline_updates",
    # The one-value client-population field the frozen e2e workloads pass.
    "fleet_mode",
}

# Removed spellings, each with the stderr text that names it.  Second
# spellings of runs other flags express: FedAsync is "--aggregation fedbuff
# --buffer-size 1 --server-mix 0.6", a deadline always drops, a quantizing
# codec names its bit width, and an injected transient is an injected
# exception (both clear on retry).  Values no workload used are gone too:
# three availability models, one attack and a separate straggler comm
# factor.  The clock is always on: "--latency-model none" is gone, and
# every run builds its clients on demand: "--fleet-mode" is gone.
REMOVED_SPELLINGS = [
    (["--latency-model", "none"], "invalid choice: 'none'"),
    (["--aggregation", "fedasync"], "invalid choice: 'fedasync'"),
    (["--deadline-policy", "drop"], "unrecognized arguments: --deadline-policy"),
    (["--quant-bits", "4"], "unrecognized arguments: --quant-bits"),
    (["--codec", "qsgd"], "invalid choice: 'qsgd'"),
    (["--codec", "topk+qsgd"], "invalid choice: 'topk+qsgd'"),
    (["--availability", "bernoulli"], "invalid choice: 'bernoulli'"),
    (["--availability", "sinusoidal"], "invalid choice: 'sinusoidal'"),
    (["--availability", "label_skew"], "invalid choice: 'label_skew'"),
    (["--attack", "ipm"], "invalid choice: 'ipm'"),
    (["--fault-transient", "0.1"], "unrecognized arguments: --fault-transient"),
    (["--straggler-comm-slowdown", "2"],
     "unrecognized arguments: --straggler-comm-slowdown"),
    (["--fleet-mode", "lazy"], "unrecognized arguments: --fleet-mode"),
]

# flag -> (argv setting one non-default value, the field value it must yield).
# Extra argv makes the cell valid (feddrl, the CLI default, takes no
# deadline and no unreliable fleet under sync, ...).
FEDAVG = ["--method", "fedavg"]
NON_DEFAULT = {
    "--dataset": (["--dataset", "fashion"], "fashion"),
    "--partition": (["--partition", "IID"], "IID"),
    "--method": (["--method", "fedavg"], "fedavg"),
    "--scale": (["--scale", "ci"], "ci"),
    "--clients": (["--clients", "12"], 12),
    "--per-round": (["--per-round", "4"], 4),
    "--rounds": (["--rounds", "3"], 3),
    "--delta": (["--delta", "0.3"], 0.3),
    "--seed": (["--seed", "7"], 7),
    "--pretrain": (["--pretrain", "2"], 2),
    "--backend": (["--backend", "thread"], "thread"),
    "--workers": (["--workers", "2"], 2),
    "--dtype": (["--dtype", "float32"], "float32"),
    "--latency-model": (["--latency-model", "uniform"], "uniform"),
    "--straggler-fraction": ([*FEDAVG, "--straggler-fraction", "0.3"], 0.3),
    "--straggler-slowdown": (["--straggler-slowdown", "4"], 4.0),
    "--deadline": ([*FEDAVG, "--deadline", "5"], 5.0),
    "--codec": (["--codec", "topk"], "topk"),
    "--topk-frac": (["--topk-frac", "0.05"], 0.05),
    "--error-feedback": (["--no-error-feedback"], False),
    "--bandwidth-model": ([*FEDAVG, "--bandwidth-model", "uniform"], "uniform"),
    "--up-mbps": (["--up-mbps", "2"], 2.0),
    "--down-mbps": (["--down-mbps", "20"], 20.0),
    "--aggregation": ([*FEDAVG, "--aggregation", "fedbuff"], "fedbuff"),
    "--buffer-size": (["--buffer-size", "3"], 3),
    "--max-concurrency": (["--max-concurrency", "4"], 4),
    "--staleness": (["--staleness", "hinge"], "hinge"),
    "--server-mix": (["--server-mix", "delta"], "delta"),
    "--availability": ([*FEDAVG, "--availability", "markov"], "markov"),
    "--offline-fraction": (["--offline-fraction", "0.3"], 0.3),
    "--churn-rate": (["--churn-rate", "1"], 1.0),
    "--dropout-prob": ([*FEDAVG, "--dropout-prob", "0.1"], 0.1),
    "--completeness": ([*FEDAVG, "--completeness", "0.5"], 0.5),
    "--dispatch": (
        [*FEDAVG, "--aggregation", "fedbuff", "--dispatch", "fairness"], "fairness"
    ),
    "--topology": (["--topology", "hier"], "hier"),
    "--edges": (["--edges", "3"], 3),
    "--attack": (["--method", "fedavg", "--attack", "sign_flip"], "sign_flip"),
    "--malicious-fraction": (["--malicious-fraction", "0.3"], 0.3),
    "--attack-scale": (["--attack-scale", "2"], 2.0),
    "--aggregator": (["--aggregator", "median"], "median"),
    "--trace": (["--trace", "run.trace.jsonl"], "run.trace.jsonl"),
    "--metrics-interval": (
        ["--trace", "run.trace.jsonl", "--metrics-interval", "5"], 5.0
    ),
    "--fault-crash": (["--fault-crash", "0.1"], 0.1),
    "--fault-exception": (["--fault-exception", "0.1"], 0.1),
    "--fault-hang": (["--fault-hang", "0.1"], 0.1),
    "--fault-hang-s": (["--fault-hang-s", "0.2"], 0.2),
    "--task-timeout": (["--task-timeout", "30"], 30.0),
    "--max-retries": (["--max-retries", "5"], 5),
    "--checkpoint": (["--checkpoint", "run.ckpt"], "run.ckpt"),
    "--checkpoint-every": (
        ["--checkpoint", "run.ckpt", "--checkpoint-every", "2"], 2
    ),
    "--resume": (["--resume", "run.ckpt"], "run.ckpt"),
}


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
        assert args.latency_model == "homogeneous"
        assert args.deadline is None

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu"])

    def test_rejects_unknown_latency_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--latency-model", "fractal"])

    @pytest.mark.parametrize("argv, names", REMOVED_SPELLINGS)
    def test_removed_spelling_exits_2(self, argv, names, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert names in capsys.readouterr().err


class TestConfigMapping:
    def test_every_field_has_a_flag_or_is_config_only(self):
        flagged = {f.name for f, _ in cli_fields()}
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert flagged | CONFIG_ONLY == names
        assert not flagged & CONFIG_ONLY

    @pytest.mark.parametrize("flag", [flag.flag for _, flag in cli_fields()])
    def test_flag_sets_its_field(self, flag, monkeypatch):
        argv, expected = NON_DEFAULT[flag]
        name, spec = next((f.name, s) for f, s in cli_fields() if s.flag == flag)
        assert getattr(build_parser().parse_args([]), spec.dest) != expected
        captured = []

        def run_experiment(cfg):
            captured.append(cfg)
            raise SystemExit(0)

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        with pytest.raises(SystemExit):
            main(argv)
        (cfg,) = captured
        assert getattr(cfg, name) == expected


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

    def test_singleset_json_has_history_hash(self, capsys):
        assert main([
            "--method", "singleset", "--scale", "ci", "--clients", "5",
            "--per-round", "5", "--rounds", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["accuracy_series"]) == 1
        assert payload["history_hash"]

    @pytest.mark.parametrize("argv", [
        ["--per-round", "0"],
        ["--clients", "0", "--per-round", "0"],
        ["--seed", "-1"],
        ["--scale", "ci", "--clients", "400", "--partition", "NONEQUAL"],
        ["--aggregation", "fedbuff", "--latency-model", "lognormal",
         "--buffer-size", "1", "--aggregator", "krum"],
        ["--deadline", "1.0"],
    ])
    def test_bad_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("python -m repro: error:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_no_evaluated_window_reports_null(self, extra, capsys):
        # Dropout loses every fedbuff arrival, so no window ever closes.
        assert main(["--scale", "ci", "--rounds", "2", "--aggregation", "fedbuff",
                     "--latency-model", "lognormal", "--dropout-prob", "0.9",
                     *extra]) == 0
        out, err = capsys.readouterr()
        assert err.startswith("python -m repro: warning: no aggregation window")
        assert "\n" not in err.strip()
        if extra:
            payload = json.loads(out)
            assert payload["best_accuracy"] is None
            assert payload["accuracy_series"] == []
        else:
            assert "best top-1 accuracy: n/a" in out

    @pytest.mark.parametrize("flag, kind", [
        ("--fault-exception", "exception"), ("--fault-crash", "crash"),
    ])
    def test_exhausted_retries_exit_3(self, flag, kind, capsys):
        assert main(["--scale", "ci", "--rounds", "1", flag, "0.3",
                     "--max-retries", "0"]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("python -m repro: error: cell (index=0, client=")
        assert "failed on all 1 attempt(s)" in err and f"injected {kind}" in err
        assert "\n" not in err

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
