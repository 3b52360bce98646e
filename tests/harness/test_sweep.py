"""Tests for ``harness/sweep.py``: the one loop behind every paper experiment.

Every expected value is a direct ``run_experiment`` made in the same test,
never a pinned digest.
"""

import pytest

from repro.harness import sweep
from repro.harness.reporting import history_digest
from repro.harness.runner import run_experiment
from repro.harness.sweep import axis, grid, paper_cell

BASE = paper_cell("mnist", "CE", 4, "ci", 0, rounds=2)


def digest(result):
    return history_digest(result.history)


def direct(**overrides):
    return digest(run_experiment(BASE.with_(**overrides)))


def record_runs(monkeypatch):
    """Replace the experiment run with a stub that logs each config."""
    ran = []
    monkeypatch.setattr(sweep, "run_experiment", lambda cfg: ran.append(cfg) or cfg)
    return ran


class TestGrid:
    def test_each_leaf_is_its_cells_direct_run(self):
        out = grid(
            BASE, [axis("method", ("fedavg", "feddrl")), axis("delta", (0.3, 0.6))],
            measure=digest,
        )
        for method in ("fedavg", "feddrl"):
            for delta in (0.3, 0.6):
                assert out[method][delta] == direct(method=method, delta=delta)

    def test_nesting_key_order_and_run_order_follow_the_axes(self, monkeypatch):
        ran = record_runs(monkeypatch)
        out = grid(
            BASE,
            [axis("delta", (0.6, 0.3)), axis("method", ("feddrl", "fedavg", "fedprox"))],
            measure=lambda cfg: (cfg.delta, cfg.method),
        )
        assert list(out) == [0.6, 0.3]
        assert [list(inner) for inner in out.values()] == [["feddrl", "fedavg", "fedprox"]] * 2
        assert out[0.3]["fedprox"] == (0.3, "fedprox")
        assert [(c.delta, c.method) for c in ran] == [
            (d, m) for d in (0.6, 0.3) for m in ("feddrl", "fedavg", "fedprox")
        ]

    def test_labelled_arms_apply_all_their_overrides(self):
        arms = {
            "drl": {"method": "feddrl", "drl_beta": 0.1, "drl_gamma": 0.5},
            "prox": {"method": "fedprox", "prox_mu": 0.1},
        }
        out = grid(BASE, [arms], measure=lambda result: (result.config, digest(result)))
        for label, overrides in arms.items():
            cfg, got = out[label]
            assert cfg == BASE.with_(**overrides)
            assert got == direct(**overrides)

    def test_seed_axis_gives_independent_runs(self):
        out = grid(BASE, [axis("seed", (0, 1))], measure=digest)
        assert out[0] != out[1]
        assert out == {0: direct(seed=0), 1: direct(seed=1)}

    def test_default_measure_is_best_accuracy(self):
        out = grid(BASE, [axis("method", ("fedavg",))])
        assert out == {"fedavg": run_experiment(BASE).best_accuracy}

    def test_every_cell_is_validated_before_the_first_run(self, monkeypatch):
        ran = record_runs(monkeypatch)
        with pytest.raises(ValueError, match="clients_per_round"):
            grid(BASE, [axis("clients_per_round", (2, 4, 5))])
        assert ran == []


class TestPaperCell:
    @pytest.mark.parametrize("n,k", [(4, 4), (10, 10), (40, 10)])
    def test_k_is_min_of_10_and_n(self, n, k):
        cfg = paper_cell("fashion", "PA", n, "ci", 3, method="fedprox")
        assert (cfg.n_clients, cfg.clients_per_round) == (n, k)
        assert (cfg.dataset, cfg.partition, cfg.seed, cfg.method) == (
            "fashion", "PA", 3, "fedprox"
        )
