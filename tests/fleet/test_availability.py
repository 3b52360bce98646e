"""Availability models (built by ``get_availability_model``) and the
FleetSimulator's behavioral draws.

The load-bearing property everywhere: every draw is a pure function of
``(seed, index, client)``, so traces do not depend on query order — the
precondition for backend bit-equivalence.
"""

import numpy as np
import pytest

from repro.fleet import (
    AVAILABILITY_MODELS,
    ColumnarAvailability,
    FleetSimulator,
    get_availability_model,
)

N, SEED = 20, 7


def trace(model, n_slots=50):
    return [
        [model.online(cid, t) for t in range(n_slots)] for cid in range(model.n_clients)
    ]


def sinusoid(model, n_slots):
    """Every client's online probability per slot, ``(n_slots, N)``."""
    t = np.arange(n_slots)[:, None]
    wave = np.sin(2 * np.pi * t / model.period_slots + model.phases)
    return (1.0 - model.offline_fraction) + model.amplitude * wave


class TestModels:
    def test_always_on(self):
        model = get_availability_model("always", N, SEED)
        assert all(all(row) for row in trace(model))

    def test_bernoulli_rate(self):
        model = get_availability_model("bernoulli", N, SEED, offline_fraction=0.3)
        flat = np.array(trace(model, 200)).ravel()
        assert 0.62 <= flat.mean() <= 0.78  # ~0.7 online

    def test_markov_stationary_fraction(self):
        model = get_availability_model(
            "markov", N, SEED, offline_fraction=0.2, churn_rate=0.5
        )
        flat = np.array(trace(model, 400)).ravel()
        assert 0.74 <= flat.mean() <= 0.86  # ~0.8 online

    def test_markov_extreme_churn_preserves_stationary_fraction(self):
        """churn_rate beyond the valid transition range is scaled down as
        a whole, keeping the configured offline mass intact."""
        model = get_availability_model(
            "markov", N, SEED, offline_fraction=0.2, churn_rate=2.0
        )
        assert model.p_on_to_off <= 1.0 and model.p_off_to_on <= 1.0
        # stationary offline mass = p_on_to_off / (p_on_to_off + p_off_to_on)
        mass = model.p_on_to_off / (model.p_on_to_off + model.p_off_to_on)
        assert mass == pytest.approx(0.2)
        flat = np.array(trace(model, 400)).ravel()
        assert 0.74 <= flat.mean() <= 0.86

    def test_markov_has_sessions(self):
        """Low churn means longer on/off stretches than i.i.d. flips."""
        slow = get_availability_model(
            "markov", N, SEED, offline_fraction=0.5, churn_rate=0.1
        )
        switches = 0
        for row in trace(slow, 200):
            switches += sum(a != b for a, b in zip(row, row[1:]))
        # i.i.d. at 50% would switch ~50% of steps; churn 0.1 targets ~5%.
        assert switches / (N * 199) < 0.15

    def test_sinusoidal_probability_bounds(self):
        model = get_availability_model(
            "sinusoidal", N, SEED, offline_fraction=0.2, period_slots=24
        )
        p = sinusoid(model, 48)
        assert ((0.0 <= p) & (p <= 1.0)).all()
        flat = np.array(trace(model, 240)).ravel()
        assert 0.7 <= flat.mean() <= 0.9  # mean stays ~0.8

    def test_sinusoidal_mean_holds_for_high_offline_fraction(self):
        """Amplitude shrinks instead of clipping, so the documented mean
        online rate holds over the whole legal offline_fraction range."""
        model = get_availability_model(
            "sinusoidal", N, SEED, offline_fraction=0.7, period_slots=24
        )
        p = sinusoid(model, 48)
        assert ((0.0 <= p) & (p <= 1.0)).all()
        flat = np.array(trace(model, 480)).ravel()
        assert 0.25 <= flat.mean() <= 0.35  # mean ~0.3 = 1 - 0.7

    def test_label_skew_orders_rates_by_min_label(self):
        labels = [np.array([cid % 4]) for cid in range(N)]
        model = get_availability_model(
            "label_skew", N, SEED, offline_fraction=0.2, labels=labels
        )
        assert model.rates[0] < model.rates[3]  # min label 0 flakier than 3
        assert all(0.0 < r <= 1.0 for r in model.rates)

    def test_trace_is_query_order_independent(self):
        for name in ("bernoulli", "markov", "sinusoidal"):
            forward = get_availability_model(name, N, SEED)
            backward = get_availability_model(name, N, SEED)
            ref = trace(forward, 30)
            # A fresh instance queried in reverse (slot, client) order must
            # reproduce the same trace.
            for t in reversed(range(30)):
                for cid in reversed(range(N)):
                    assert backward.online(cid, t) == ref[cid][t], (name, cid, t)

    def test_factory_covers_registry_and_rejects_unknown(self):
        labels = [np.array([0, 1]) for _ in range(N)]
        for name in AVAILABILITY_MODELS:
            model = get_availability_model(name, N, SEED, labels=labels)
            assert model.name == name
        with pytest.raises(ValueError, match="availability"):
            get_availability_model("solar", N, SEED)
        with pytest.raises(ValueError, match="labels"):
            get_availability_model("label_skew", N, SEED)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            get_availability_model("bernoulli", N, SEED, offline_fraction=1.0)
        with pytest.raises(ValueError):
            get_availability_model("markov", N, SEED, churn_rate=0.0)
        with pytest.raises(ValueError):
            get_availability_model("sinusoidal", N, SEED, period_slots=1)
        with pytest.raises(ValueError):
            get_availability_model("always", 0, SEED)
        with pytest.raises(ValueError, match="one entry per client"):
            get_availability_model(
                "label_skew", N, SEED, labels=[np.array([0])] * (N - 1)
            )


class TestFleetSimulator:
    def make_fleet(self, **kw):
        kw.setdefault("dropout_prob", 0.1)
        kw.setdefault("completeness", 0.4)
        return FleetSimulator(
            N, get_availability_model("markov", N, SEED, 0.2, 0.5), seed=SEED, **kw
        )

    def test_online_ids_subset_and_slotting(self):
        fleet = self.make_fleet(slot_s=2.0)
        assert fleet.slot(0.0) == 0
        assert fleet.slot(1.99) == 0
        assert fleet.slot(2.0) == 1
        ids = fleet.online_ids(5.0, ids=[3, 1, 4])
        assert isinstance(ids, np.ndarray)
        assert list(ids) == sorted(ids)
        assert set(int(c) for c in ids) <= {1, 3, 4}

    def test_drops_deterministic_and_rate(self):
        fleet = self.make_fleet(dropout_prob=0.25)
        draws = [fleet.drops(r, c) for r in range(40) for c in range(N)]
        assert draws == [fleet.drops(r, c) for r in range(40) for c in range(N)]
        assert 0.18 <= np.mean(draws) <= 0.32

    def test_no_dropout_when_disabled(self):
        fleet = self.make_fleet(dropout_prob=0.0)
        assert not any(fleet.drops(r, c) for r in range(20) for c in range(N))

    def test_work_fraction_in_range_and_keyed(self):
        fleet = self.make_fleet(completeness=0.3)
        for r in range(10):
            for c in range(N):
                f = fleet.work_fraction(r, c)
                assert 0.3 <= f <= 1.0
                assert f == fleet.work_fraction(r, c)
        # full completeness short-circuits to exactly 1.0
        assert self.make_fleet(completeness=1.0).work_fraction(0, 0) == 1.0

    def test_batch_budget_floor(self):
        fleet = self.make_fleet(completeness=0.01)
        assert fleet.batch_budget(0, 0, 1) >= 1
        assert fleet.batch_budget(3, 2, 50) <= 50

    def test_wait_for_online_advances_to_a_nonempty_slot(self):
        fleet = self.make_fleet()
        t, ids = fleet.wait_for_online(0.0, min_count=1)
        assert np.array_equal(ids, fleet.online_ids(t))
        assert len(ids) >= 1
        assert t >= 0.0

    def test_wait_for_online_gives_up_on_starvation(self):
        never_on = ColumnarAvailability("label_skew", 4, SEED, rates=np.zeros(4))
        fleet = FleetSimulator(4, never_on, seed=SEED)
        t, ids = fleet.wait_for_online(5.0, min_count=1, max_slots=10)
        assert t == 5.0
        assert list(ids) == [0, 1, 2, 3]

    def test_validation(self):
        model = get_availability_model("markov", N, SEED)
        with pytest.raises(ValueError):
            FleetSimulator(N + 1, model, seed=SEED)
        with pytest.raises(ValueError):
            FleetSimulator(N, model, seed=SEED, dropout_prob=1.0)
        with pytest.raises(ValueError):
            FleetSimulator(N, model, seed=SEED, completeness=0.0)
        with pytest.raises(ValueError):
            FleetSimulator(N, model, seed=SEED, slot_s=0.0)
