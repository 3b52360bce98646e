"""Tests for the two-stage pretraining path of the runner and ablations."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.drl.agent import DRLConfig
from repro.harness.ablations import ablation_sigma_beta, ablation_two_stage
from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import (
    build_simulation,
    build_strategy,
    pretrain_feddrl_agent,
    run_experiment,
)
from repro.nn.dtypes import default_dtype

FAST = dict(scale="ci", n_clients=5, clients_per_round=5)


class TestPretrainPath:
    def test_build_strategy_with_pretraining(self):
        cfg = ExperimentConfig(
            method="feddrl", drl_pretrain_rounds=3, drl_pretrain_workers=2,
            drl_offline_updates=5, **FAST,
        ).with_(rounds=2, n_train=150, n_test=60)
        strat = build_strategy(cfg)
        # The injected agent carries pretraining experience and updates.
        assert len(strat.agent.buffer) == 2 * 3
        assert strat.agent.total_updates >= 5
        # Exploration is dialled down after pretraining.
        assert strat.agent.noise_scale <= 0.05

    def test_pretrained_experiment_runs(self):
        cfg = ExperimentConfig(
            method="feddrl", drl_pretrain_rounds=2, drl_offline_updates=3, **FAST,
        ).with_(rounds=2, n_train=150, n_test=60)
        result = run_experiment(cfg)
        assert 0.0 <= result.best_accuracy <= 1.0

    def test_workers_see_different_data(self):
        """Each pretraining worker must get an independent realisation."""
        cfg = ExperimentConfig(
            method="feddrl", drl_pretrain_rounds=2, **FAST,
        ).with_(rounds=2, n_train=150, n_test=60)
        drl_cfg = DRLConfig(min_buffer=8, batch_size=8)
        agent = pretrain_feddrl_agent(cfg, drl_cfg)
        items = agent.buffer.items()
        # Transitions from different workers have different states.
        assert not np.array_equal(items[0].state, items[2].state)

    def test_main_agent_trained_offline_exactly(self):
        cfg = ExperimentConfig(
            method="feddrl", drl_pretrain_rounds=2, drl_pretrain_workers=3,
            drl_offline_updates=7, **FAST,
        ).with_(n_train=150, n_test=60)
        agent = pretrain_feddrl_agent(cfg, DRLConfig(min_buffer=4, batch_size=4))
        # A fresh main agent: every update is an offline one.
        assert agent.total_updates == 7
        assert len(agent.buffer) == 3 * 2

    def test_buffers_merge_in_worker_order(self):
        """Worker 0 runs the same config whatever the worker count, so a
        one-worker buffer is the head of the two-worker merge."""
        cfg = ExperimentConfig(
            method="feddrl", drl_pretrain_rounds=2, drl_offline_updates=3, **FAST,
        ).with_(n_train=150, n_test=60)
        drl_cfg = DRLConfig(min_buffer=4, batch_size=4)
        one = pretrain_feddrl_agent(cfg.with_(drl_pretrain_workers=1), drl_cfg)
        two = pretrain_feddrl_agent(cfg.with_(drl_pretrain_workers=2), drl_cfg)
        head = two.buffer.items()[: len(one.buffer)]
        for a, b in zip(one.buffer.items(), head, strict=True):
            np.testing.assert_array_equal(a.state, b.state)
            np.testing.assert_array_equal(a.action, b.action)
            assert a.reward == b.reward

    def test_pretraining_is_deterministic(self):
        cfg = ExperimentConfig(
            method="feddrl", drl_pretrain_rounds=2, drl_offline_updates=3, **FAST,
        ).with_(n_train=150, n_test=60)
        drl_cfg = DRLConfig(min_buffer=4, batch_size=4)
        a = pretrain_feddrl_agent(cfg, drl_cfg)
        b = pretrain_feddrl_agent(cfg, drl_cfg)
        np.testing.assert_array_equal(
            a.policy_main.get_flat_weights(), b.policy_main.get_flat_weights()
        )
        assert [t.reward for t in a.buffer.items()] == [
            t.reward for t in b.buffer.items()
        ]

    def test_zero_pretraining_means_fresh_agent(self):
        cfg = ExperimentConfig(method="feddrl", drl_pretrain_rounds=0, **FAST)
        strat = build_strategy(cfg)
        assert len(strat.agent.buffer) == 0
        assert strat.agent.total_updates == 0


# Pretraining workers are engine runs, so they take the evaluation run's
# topology and aggregation: the hier agent is built for K = n_edges, the
# FedBuff agent for K = buffer_size.
PRETRAIN_CELLS = {
    "flat_sync": dict(**FAST),
    "flat_sync_float32": dict(**FAST, dtype="float32"),
    "hier_sync": dict(n_clients=6, clients_per_round=4, topology="hier", n_edges=2),
    "flat_fedbuff": dict(**FAST, aggregation="fedbuff", latency_model="uniform",
                         buffer_size=4),
}
AGENT_K = {"flat_sync": 5, "flat_sync_float32": 5, "hier_sync": 2, "flat_fedbuff": 4}
PRETRAIN_ROUNDS = 2


def pretrained_run(cell: str, backend: str) -> tuple[str, int, int]:
    """(history digest, merged buffer size, agent K) of one pretrained run."""
    cfg = ExperimentConfig(
        method="feddrl", drl_pretrain_rounds=PRETRAIN_ROUNDS,
        drl_offline_updates=3, backend=backend,
        workers=None if backend == "serial" else 2, **PRETRAIN_CELLS[cell],
    ).with_(rounds=2, n_train=150, n_test=60)
    # build_simulation pins the substrate dtype; restore it afterwards.
    with default_dtype(cfg.dtype), build_simulation(cfg) as sim:
        agent = sim.strategy.agent
        merged = len(agent.buffer)
        sim.run()
    return history_digest(sim.history), merged, agent.n_clients


class TestPretrainOnEngines:
    @pytest.mark.parametrize("cell", sorted(PRETRAIN_CELLS))
    def test_backends_agree(self, cell):
        serial, merged, k = pretrained_run(cell, "serial")
        thread, thread_merged, _ = pretrained_run(cell, "thread")
        assert thread == serial
        assert thread_merged == merged
        assert k == AGENT_K[cell]
        if "_sync" in cell:
            # One transition per round after the first, per worker.
            assert merged == ExperimentConfig().drl_pretrain_workers * PRETRAIN_ROUNDS
        else:
            assert merged > 0

    def test_process_backend_agrees(self):
        assert pretrained_run("hier_sync", "process") == pretrained_run(
            "hier_sync", "serial"
        )


class TestAgentKnobValidation:
    @pytest.mark.parametrize("field, value", [
        ("drl_gamma", 1.5),
        ("drl_gamma", -0.1),
        ("drl_beta", 1.5),
        ("drl_noise_scale", -0.1),
        ("drl_updates_per_round", 0),
    ])
    def test_rejected_at_config_time(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(method="feddrl", **FAST, **{field: value})


class TestPretrainValidation:
    @pytest.mark.parametrize("field, overrides", [
        ("drl_pretrain_rounds", dict(drl_pretrain_rounds=-1)),
        ("drl_pretrain_rounds", dict(method="fedavg", drl_pretrain_rounds=3)),
        # 2 rounds x 2 jobs cannot fill two buffers of 5.
        ("drl_pretrain_rounds", dict(
            aggregation="fedbuff", latency_model="uniform",
            clients_per_round=2, drl_pretrain_rounds=1,
        )),
        ("drl_pretrain_workers", dict(drl_pretrain_workers=0)),
        ("drl_offline_updates", dict(drl_offline_updates=0)),
    ])
    def test_rejected_at_config_time(self, field, overrides):
        cfg = dict(method="feddrl", **FAST)
        cfg.update(overrides)
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**cfg)

    @pytest.mark.parametrize("argv", [
        ["--pretrain", "-1"],
        ["--method", "fedavg", "--pretrain", "3"],
        ["--aggregation", "fedbuff", "--latency-model", "uniform",
         "--per-round", "2", "--pretrain", "1"],
    ])
    def test_cli_exits_2(self, argv, capsys):
        assert main(["--scale", "ci", "--clients", "5", "--per-round", "5", *argv]) == 2
        assert "drl_pretrain_rounds" in capsys.readouterr().err

    def test_cli_hier_pretrain_runs(self, capsys):
        """Hier workers build their agents for K = n_edges, the evaluation
        agent's K, so the pretrained agent is accepted."""
        code = main([
            "--scale", "ci", "--clients", "6", "--per-round", "4",
            "--topology", "hier", "--edges", "2", "--pretrain", "2",
            "--rounds", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["best_accuracy"] <= 1.0


class TestAblationHelpers:
    def test_beta_ablation_ci(self):
        out = ablation_sigma_beta(
            betas=(0.1, 0.9), dataset="mnist", partition="CE", scale="ci",
            n_clients=5, seed=0, rounds=3,
        )
        assert set(out) == {0.1, 0.9}

    def test_two_stage_ablation_ci(self):
        out = ablation_two_stage(
            pretrain_rounds=2, dataset="mnist", partition="CE", scale="ci",
            n_clients=5, seed=0, rounds=3, drl_offline_updates=5,
        )
        assert set(out) == {"basic", "two_stage"}
        assert all(0.0 <= v <= 1.0 for v in out.values())
