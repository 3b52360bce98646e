"""Golden tests for the columnar fleet engine (repro.fleet.columnar).

:class:`ColumnarAvailability` is the only availability model; these
tests reimplement the original per-(slot, client) derivation from its
formulas — one ``SeedSequence`` / ``Generator`` per cell — and pin both
the engine and that scalar reference to literal golden hashes, so neither
the vectorized draws nor the reference can drift without this file
noticing.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet
from repro.fleet.columnar import AVAILABILITY_MODELS, ColumnarAvailability, FleetState
from repro.runtime.seeding import STREAM_AVAILABILITY, client_round_rng
from repro.runtime.vecrng import CellBatchKernel

N = 37
SLOTS = 20
SEED = 123
OFF = 0.3
CHURN = 0.5

# sha256 of np.packbits(trace) for the scalar-reference trace of each
# model at the parameters above.  Computed from the per-cell derivation
# the fleet layer shipped with; the columnar engine must reproduce every
# bit of it.
GOLDEN = {
    "always": "d4f45a1e4b96d490c686eae23511fc4d4147232bf455916f3c6d56a39b771330",
    "markov": "527b88bef5d5c345dfae13d77cd16e46583444503aabe23b4ca786d04c56e8e0",
}


def _u(slot: int, cid: int) -> float:
    """The original scalar cell draw: one Generator per (slot, client)."""
    return float(client_round_rng(SEED, slot, cid, STREAM_AVAILABILITY).random())


def scalar_trace(name: str) -> np.ndarray:
    """The pre-columnar per-client loops, reimplemented from the formulas."""
    trace = np.zeros((SLOTS, N), dtype=bool)
    if name == "always":
        return np.ones((SLOTS, N), dtype=bool)
    if name == "markov":
        rate = min(CHURN, 1.0 / max(OFF, 1 - OFF))
        p_on_off, p_off_on = rate * OFF, rate * (1 - OFF)
        for c in range(N):
            state = _u(0, c) >= OFF
            trace[0, c] = state
            for t in range(1, SLOTS):
                u = _u(t, c)
                state = (u >= p_on_off) if state else (u < p_off_on)
                trace[t, c] = state
    else:  # pragma: no cover - defensive
        raise AssertionError(name)
    return trace


def columnar_engine(name: str) -> ColumnarAvailability:
    return ColumnarAvailability(name, N, SEED, offline_fraction=OFF, churn_rate=CHURN)


def trace_hash(trace: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(trace).tobytes()).hexdigest()


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_columnar_matches_scalar_reference(self, name):
        ref = scalar_trace(name)
        assert trace_hash(ref) == GOLDEN[name], (
            "the scalar reference itself drifted — the per-cell "
            "derivation is part of the repo's bit-exactness contract"
        )
        engine = columnar_engine(name)
        got = np.stack([engine.mask(t) for t in range(SLOTS)])
        assert trace_hash(got) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_scalar_view_classes_delegate_to_the_same_trace(self, name):
        """The engine answers per-client ``online`` queries — clients in
        the outer loop — with the scalar reference's trace."""
        model = columnar_engine(name)
        got = np.array(
            [[model.online(c, t) for t in range(SLOTS)] for c in range(N)]
        ).T
        np.testing.assert_array_equal(got, scalar_trace(name))

    def test_query_order_independence(self):
        """Masks are pure functions of (seed, slot) for every model —
        including markov, whose engine steps sequentially inside."""
        for name in sorted(GOLDEN):
            forward = columnar_engine(name)
            scrambled = columnar_engine(name)
            ref = np.stack([forward.mask(t).copy() for t in range(SLOTS)])
            order = np.random.default_rng(7).permutation(SLOTS)
            for t in order:
                np.testing.assert_array_equal(
                    scrambled.mask(int(t)), ref[t], err_msg=f"{name}@{t}"
                )


U32_MAX = 2**32 - 1


@given(
    seed=st.integers(0, 2**63),
    slot=st.sampled_from([0, 1, U32_MAX]) | st.integers(0, U32_MAX),
    stream=st.integers(0, 16),
    ids=st.lists(st.sampled_from([0, 1, U32_MAX]) | st.integers(0, U32_MAX),
                 min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_fleet_cell_kernel_matches_seed_sequence(seed, slot, stream, ids):
    """The fleet's ``(slot, client, stream)`` key: a one-element prefix
    before the id column, checked cell by cell against the generator
    ``client_round_rng`` builds."""
    kernel = CellBatchKernel(seed, np.array(ids, dtype=np.int64), 1, 1)
    u = kernel.uniforms((slot,), (stream,))
    st_hi, st_lo, inc_hi, inc_lo = kernel.states((slot,), (stream,))
    for j, cid in enumerate(ids):
        rng = client_round_rng(seed, slot, cid, stream)
        want = rng.bit_generator.state["state"]
        assert (int(st_hi[j]) << 64) | int(st_lo[j]) == want["state"]
        assert (int(inc_hi[j]) << 64) | int(inc_lo[j]) == want["inc"]
        assert u[j] == rng.random()


class TestValidation:
    @pytest.mark.parametrize("name,kwargs,match", [
        ("markov", {"offline_fraction": 1.5}, "offline_fraction"),
        ("markov", {"churn_rate": 0.0}, "churn_rate"),
        ("markov", {"churn_rate": -1.0}, "churn_rate"),
        ("markov", {"offline_fraction": -0.5}, "offline_fraction"),
        ("solar", {}, "unknown"),
    ], ids=["markov-offline-1.5", "markov-churn-0", "markov-churn-neg",
            "markov-offline-neg", "unknown-model"])
    def test_constructor_rejects_bad_parameters(self, name, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ColumnarAvailability(name, 6, SEED, **kwargs)

    @pytest.mark.parametrize("name", ["bernoulli", "sinusoidal", "label_skew"])
    def test_removed_models_are_unknown(self, name):
        """The deleted vocabulary values are rejected even with otherwise
        valid parameters."""
        assert name not in AVAILABILITY_MODELS
        with pytest.raises(ValueError, match="unknown availability model"):
            ColumnarAvailability(name, 6, SEED)

    @pytest.mark.parametrize("kwarg,value", [
        ("period_slots", 8), ("rates", np.full(6, 0.5)),
    ], ids=["period_slots", "rates"])
    def test_removed_parameters_are_gone(self, kwarg, value):
        with pytest.raises(TypeError, match=kwarg):
            ColumnarAvailability("markov", 6, SEED, **{kwarg: value})


def test_availability_vocabulary_lives_here():
    assert AVAILABILITY_MODELS == ("always", "markov")
    assert repro.fleet.AVAILABILITY_MODELS is AVAILABILITY_MODELS


class TestMarkovReplay:
    def test_backward_query_replays_from_checkpoint(self):
        engine = columnar_engine("markov")
        ref = np.stack([engine.mask(t).copy() for t in range(SLOTS)])
        fresh = columnar_engine("markov")
        fresh.mask(SLOTS - 1)  # advance to the end first
        np.testing.assert_array_equal(fresh.mask(3), ref[3])
        np.testing.assert_array_equal(fresh.mask(0), ref[0])

    def test_replay_across_checkpoint_boundary(self):
        far = 600  # past two 256-slot checkpoints
        engine = ColumnarAvailability("markov", 11, SEED, offline_fraction=OFF)
        ref = engine.mask(far).copy()
        mid = engine.mask(300).copy()
        # Backward queries after eviction must reproduce the same rows.
        np.testing.assert_array_equal(engine.mask(300), mid)
        np.testing.assert_array_equal(engine.mask(far), ref)


class TestOnlineIds:
    def test_subset_is_sorted_and_filtered(self):
        engine = columnar_engine("markov")
        mask = engine.mask(5)
        ids = np.array([30, 2, 17, 4], dtype=np.int64)
        got = engine.online_ids(5, ids)
        expect = np.array([c for c in sorted(ids) if mask[c]], dtype=np.int64)
        np.testing.assert_array_equal(got, expect)

    def test_full_fleet_matches_flatnonzero(self):
        engine = columnar_engine("markov")
        np.testing.assert_array_equal(
            engine.online_ids(2), np.flatnonzero(engine.mask(2))
        )


class TestFleetState:
    def test_fairest_matches_sequential_min_scan(self):
        rng = np.random.default_rng(3)
        state = FleetState(50)
        state.jobs_served[:] = rng.integers(0, 4, size=50)
        for trial in range(20):
            pool = rng.choice(50, size=rng.integers(1, 20), replace=False)
            count = int(rng.integers(1, pool.size + 1))
            got = list(state.fairest(pool, count))
            remaining = [int(c) for c in pool]
            expect = []
            for _ in range(count):
                winner = min(
                    remaining, key=lambda c: (int(state.jobs_served[c]), c)
                )
                expect.append(winner)
                remaining.remove(winner)
            assert got == expect, trial

    def test_record_jobs_and_n_samples(self):
        sizes = np.arange(1, 9, dtype=np.int64)
        state = FleetState(8, shard_sizes=sizes)
        assert state.n_samples(5) == 6
        state.record_jobs([1, 3])
        state.record_jobs([3], count=2)
        assert list(state.jobs_served) == [0, 1, 0, 3, 0, 0, 0, 0]

    def test_availability_plumbing(self):
        engine = columnar_engine("markov")
        assert FleetState(N, availability=engine).availability is engine
        default = FleetState(8).availability
        assert default.name == "always"
        np.testing.assert_array_equal(default.online_ids(4), np.arange(8))

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetState(0)
        with pytest.raises(ValueError):
            FleetState(4, shard_sizes=np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError):
            FleetState(4, availability=ColumnarAvailability("always", 5, SEED))

    def test_nbytes_counts_shard_and_jobs_columns_and_engine(self):
        """Two int64 columns per client plus the availability engine —
        no other per-client column is resident."""
        engine = columnar_engine("markov")
        state = FleetState(N, availability=engine)
        state.availability.online_ids(3)
        assert state.nbytes == 16 * N + engine.nbytes

    def test_million_client_state_under_100mb(self):
        """Acceptance: the whole fleet's columnar state — including the
        availability kernel's scratch — fits in ~100 MB at N=1M."""
        n = 1_000_000
        state = FleetState(
            n,
            availability=ColumnarAvailability(
                "markov", n, SEED, offline_fraction=OFF
            ),
        )
        state.availability.online_ids(0)  # touch a slot so kernel scratch is resident
        assert state.nbytes < 100 * 1024 * 1024
        assert state.nbytes > 0
