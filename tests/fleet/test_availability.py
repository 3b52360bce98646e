"""Availability models (:class:`ColumnarAvailability`) and the
FleetSimulator's behavioral draws.

The load-bearing property everywhere: every draw is a pure function of
``(seed, index, client)``, so traces do not depend on query order — the
precondition for backend bit-equivalence.
"""

import numpy as np
import pytest

from repro.fleet import AVAILABILITY_MODELS, ColumnarAvailability, FleetSimulator

N, SEED = 20, 7


def trace(model, n_slots=50):
    return [
        [model.online(cid, t) for t in range(n_slots)] for cid in range(model.n_clients)
    ]


class TestModels:
    def test_always_on(self):
        model = ColumnarAvailability("always", N, SEED)
        assert all(all(row) for row in trace(model))

    def test_markov_stationary_fraction(self):
        model = ColumnarAvailability(
            "markov", N, SEED, offline_fraction=0.2, churn_rate=0.5
        )
        flat = np.array(trace(model, 400)).ravel()
        assert 0.74 <= flat.mean() <= 0.86  # ~0.8 online

    def test_markov_extreme_churn_preserves_stationary_fraction(self):
        """churn_rate beyond the valid transition range is scaled down as
        a whole, keeping the configured offline mass intact."""
        model = ColumnarAvailability(
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
        slow = ColumnarAvailability(
            "markov", N, SEED, offline_fraction=0.5, churn_rate=0.1
        )
        switches = 0
        for row in trace(slow, 200):
            switches += sum(a != b for a, b in zip(row, row[1:]))
        # i.i.d. at 50% would switch ~50% of steps; churn 0.1 targets ~5%.
        assert switches / (N * 199) < 0.15

    def test_trace_is_query_order_independent(self):
        forward = ColumnarAvailability("markov", N, SEED)
        backward = ColumnarAvailability("markov", N, SEED)
        ref = trace(forward, 30)
        # A fresh instance queried in reverse (slot, client) order must
        # reproduce the same trace.
        for t in reversed(range(30)):
            for cid in reversed(range(N)):
                assert backward.online(cid, t) == ref[cid][t], (cid, t)

    def test_factory_covers_registry_and_rejects_unknown(self):
        for name in AVAILABILITY_MODELS:
            model = ColumnarAvailability(name, N, SEED)
            assert model.name == name
        with pytest.raises(ValueError, match="availability"):
            ColumnarAvailability("solar", N, SEED)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ColumnarAvailability("markov", N, SEED, offline_fraction=1.0)
        with pytest.raises(ValueError):
            ColumnarAvailability("markov", N, SEED, churn_rate=0.0)
        with pytest.raises(ValueError):
            ColumnarAvailability("always", 0, SEED)


class TestFleetSimulator:
    def make_fleet(self, **kw):
        kw.setdefault("dropout_prob", 0.1)
        kw.setdefault("completeness", 0.4)
        return FleetSimulator(
            N, ColumnarAvailability("markov", N, SEED, 0.2, 0.5), seed=SEED, **kw
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
        class NeverOnline(ColumnarAvailability):
            def mask(self, slot):
                return np.zeros(self.n_clients, dtype=bool)

        never_on = NeverOnline("always", 4, SEED)
        fleet = FleetSimulator(4, never_on, seed=SEED)
        t, ids = fleet.wait_for_online(5.0, min_count=1, max_slots=10)
        assert t == 5.0
        assert list(ids) == [0, 1, 2, 3]

    def test_validation(self):
        model = ColumnarAvailability("markov", N, SEED)
        with pytest.raises(ValueError):
            FleetSimulator(N + 1, model, seed=SEED)
        with pytest.raises(ValueError):
            FleetSimulator(N, model, seed=SEED, dropout_prob=1.0)
        with pytest.raises(ValueError):
            FleetSimulator(N, model, seed=SEED, completeness=0.0)
        with pytest.raises(ValueError):
            FleetSimulator(N, model, seed=SEED, slot_s=0.0)
