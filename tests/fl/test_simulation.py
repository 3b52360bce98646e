"""Tests for the federated simulation loop and History views."""

import numpy as np
import pytest

from repro.fl.simulation import FederatedSimulation, FLConfig, History, RoundRecord
from repro.fl.strategies import FedAvg, FedDRL, FedProx


def make_sim(clients, data, model_factory, strategy=None, **cfg_kwargs):
    _, test = data
    defaults = dict(rounds=3, clients_per_round=4, local_epochs=1, lr=0.05,
                    batch_size=16, eval_every=1, seed=0)
    defaults.update(cfg_kwargs)
    return FederatedSimulation(
        clients, test, model_factory, strategy or FedAvg(), FLConfig(**defaults)
    )


class TestFLConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FLConfig(rounds=0)
        with pytest.raises(ValueError):
            FLConfig(lr=0)
        with pytest.raises(ValueError):
            FLConfig(eval_every=0)
        with pytest.raises(ValueError):
            FLConfig(local_epochs=0)


class TestSimulationSetup:
    def test_rejects_oversized_k(self, tiny_clients, tiny_data, tiny_model_factory):
        with pytest.raises(ValueError):
            make_sim(tiny_clients, tiny_data, tiny_model_factory, clients_per_round=99)

    def test_rejects_empty_population(self, tiny_data, tiny_model_factory):
        with pytest.raises(ValueError):
            make_sim([], tiny_data, tiny_model_factory)

    def test_participant_sampling_distinct(self, tiny_clients, tiny_data, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory)
        for _ in range(10):
            p = sim.sample_participants()
            assert len(p) == 4
            assert len(set(p)) == 4
            assert all(0 <= c < len(tiny_clients) for c in p)


class TestRunRound:
    def test_record_fields(self, tiny_clients, tiny_data, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory)
        rec = sim.run_round(0)
        assert isinstance(rec, RoundRecord)
        assert rec.impact_factors.shape == (4,)
        assert rec.impact_factors.sum() == pytest.approx(1.0)
        assert rec.client_losses_before.shape == (4,)
        assert rec.test_accuracy is not None
        assert rec.impact_time_s >= 0 and rec.aggregation_time_s >= 0

    def test_global_weights_change(self, tiny_clients, tiny_data, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory)
        w0 = sim.global_weights.copy()
        sim.run_round(0)
        assert not np.array_equal(sim.global_weights, w0)

    def test_eval_every_skips_rounds(self, tiny_clients, tiny_data, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory, rounds=4, eval_every=2)
        hist = sim.run()
        evaluated = [r.round_idx for r in hist.records if r.test_accuracy is not None]
        assert evaluated == [0, 2, 3]  # every 2nd + always the final round

    def test_evaluation_is_one_forward_pass(
        self, tiny_clients, tiny_data, tiny_model_factory, monkeypatch
    ):
        from repro.nn.losses import evaluate_loss
        from repro.nn.metrics import top1_accuracy

        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory)
        rec = sim.run_round(0)
        _, test = tiny_data
        calls = []
        forward = sim.model.forward
        monkeypatch.setattr(
            sim.model, "forward", lambda *a, **kw: calls.append(1) or forward(*a, **kw)
        )
        sim._evaluate(rec)
        assert len(calls) == 1  # 80 test samples: one batch, scored once
        assert rec.test_loss == evaluate_loss(sim.model, sim._loss, test.x, test.y)
        assert rec.test_accuracy == top1_accuracy(sim.model, test.x, test.y)

    def test_no_test_set_skips_eval(self, tiny_clients, tiny_data, tiny_model_factory):
        sim = FederatedSimulation(
            tiny_clients, None, tiny_model_factory, FedAvg(),
            FLConfig(rounds=2, clients_per_round=4, local_epochs=1, lr=0.05,
                     batch_size=16, seed=0),
        )
        hist = sim.run()
        assert all(r.test_accuracy is None for r in hist.records)


class TestFullRun:
    def test_history_length(self, tiny_clients, tiny_data, tiny_model_factory):
        hist = make_sim(tiny_clients, tiny_data, tiny_model_factory).run()
        assert len(hist.records) == 3

    def test_learning_happens(self, tiny_clients, tiny_data, tiny_model_factory):
        """Federated training on separable data must beat chance (0.25)."""
        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory, rounds=8)
        hist = sim.run()
        assert hist.best_accuracy() > 0.4

    def test_reproducible_given_seed(self, tiny_data, tiny_model_factory):
        from repro.data.partition import iid_partition
        from repro.fl.client import make_clients

        train, _ = tiny_data
        results = []
        for _ in range(2):
            parts = iid_partition(train.y, 6, np.random.default_rng(1))
            clients = make_clients(train, parts)
            sim = make_sim(clients, tiny_data, tiny_model_factory)
            results.append(sim.run().best_accuracy())
        assert results[0] == results[1]

    @pytest.mark.parametrize("strategy_cls", [FedAvg, FedProx])
    def test_baseline_strategies_run(self, strategy_cls, tiny_clients, tiny_data, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory, strategy=strategy_cls())
        hist = sim.run()
        assert len(hist.records) == 3

    def test_feddrl_runs_and_collects_experience(self, tiny_clients, tiny_data, tiny_model_factory):
        from repro.drl.agent import DRLConfig

        strat = FedDRL(
            clients_per_round=4,
            drl_config=DRLConfig(min_buffer=2, batch_size=2, updates_per_round=1),
            seed=0,
        )
        sim = make_sim(tiny_clients, tiny_data, tiny_model_factory, strategy=strat, rounds=5)
        hist = sim.run()
        assert len(strat.agent.buffer) == 4  # rounds - 1 transitions
        assert len(strat.reward_history) == 4
        assert all(r.impact_factors.sum() == pytest.approx(1.0) for r in hist.records)


class TestHistoryViews:
    def make_history(self):
        hist = History()
        accs = [0.2, 0.5, None, 0.7, 0.6]
        for i, acc in enumerate(accs):
            hist.append(RoundRecord(
                round_idx=i, participants=[0], impact_factors=np.array([1.0]),
                client_losses_before=np.array([1.0 + i, 2.0 + i]),
                client_losses_after=np.array([0.5, 0.5]),
                client_sizes=np.array([10]),
                impact_time_s=0.001, aggregation_time_s=0.002,
                test_accuracy=acc,
            ))
        return hist

    def test_accuracy_series_skips_unevaluated(self):
        series = self.make_history().accuracy_series()
        assert series == [(0, 0.2), (1, 0.5), (3, 0.7), (4, 0.6)]

    def test_best_accuracy(self):
        assert self.make_history().best_accuracy() == pytest.approx(0.7)

    def test_best_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            History().best_accuracy()

    def test_loss_series(self):
        hist = self.make_history()
        assert hist.loss_mean_series()[0] == pytest.approx(1.5)
        assert hist.loss_var_series()[0] == pytest.approx(0.25)

    def test_rounds_to_accuracy(self):
        hist = self.make_history()
        assert hist.rounds_to_accuracy(0.5) == 1
        assert hist.rounds_to_accuracy(0.65) == 3
        assert hist.rounds_to_accuracy(0.99) is None

    def test_mean_times(self):
        hist = self.make_history()
        assert hist.mean_impact_time() == pytest.approx(0.001)
        assert hist.mean_aggregation_time() == pytest.approx(0.002)
