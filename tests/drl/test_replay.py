"""Tests for the experience replay buffer and prioritised sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drl.replay import Experience, ReplayBuffer
from tests.drl import reference_replay as R


def exp(i: int, k: int = 2) -> Experience:
    return Experience(
        state=np.full(3 * k, float(i)),
        action=np.zeros(2 * k),
        reward=float(i),
        next_state=np.full(3 * k, float(i + 1)),
    )


class TestExperience:
    def test_coerces_to_arrays(self):
        e = exp(0)
        assert isinstance(e.state, np.ndarray)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Experience(np.zeros(3), np.zeros(2), 0.0, np.zeros(4))

    def test_rejects_nonfinite_reward(self):
        with pytest.raises(ValueError):
            Experience(np.zeros(3), np.zeros(2), float("nan"), np.zeros(3))


class TestReplayBuffer:
    def test_add_and_len(self):
        buf = ReplayBuffer(10)
        for i in range(4):
            buf.add(exp(i))
        assert len(buf) == 4

    def test_fifo_overwrite_at_capacity(self):
        buf = ReplayBuffer(3)
        for i in range(5):
            buf.add(exp(i))
        assert len(buf) == 3
        rewards = sorted(e.reward for e in buf.items())
        assert rewards == [2.0, 3.0, 4.0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0)

    def test_merge(self):
        a, b = ReplayBuffer(10), ReplayBuffer(10)
        a.add(exp(0))
        b.add(exp(1))
        b.add(exp(2))
        a.merge(b)
        assert len(a) == 3
        assert len(b) == 2  # source untouched

    def test_snapshot_shapes(self):
        buf = ReplayBuffer(10)
        for i in range(5):
            buf.add(exp(i, k=3))
        s, a, r, s2 = buf.snapshot()
        assert s.shape == (5, 9) and a.shape == (5, 6) and r.shape == (5,)

    def test_empty_operations_raise(self):
        buf = ReplayBuffer(5)
        with pytest.raises(ValueError):
            buf.snapshot()
        with pytest.raises(ValueError):
            buf.sample_uniform(2, np.random.default_rng(0))


class TestSampling:
    def make_buffer(self, n=50):
        buf = ReplayBuffer(100)
        for i in range(n):
            buf.add(exp(i))
        return buf

    def test_uniform_batch_shapes(self):
        buf = self.make_buffer()
        s, a, r, s2 = buf.sample_uniform(8, np.random.default_rng(0))
        assert s.shape[0] == 8

    def test_prioritized_requires_matching_length(self):
        buf = self.make_buffer(10)
        with pytest.raises(ValueError):
            buf.sample_ranked(4, buf.rank_probabilities(np.ones(5)),
                              np.random.default_rng(0))

    def test_prioritized_prefers_high_priority(self):
        """Items with top priorities must be sampled far more often."""
        buf = self.make_buffer(50)
        priorities = np.zeros(50)
        priorities[7] = 100.0  # rank 1
        rng = np.random.default_rng(0)
        counts = np.zeros(50)
        for _ in range(200):
            _, _, r, _ = buf.sample_ranked(4, buf.rank_probabilities(priorities), rng)
            for val in r:
                counts[int(val)] += 1
        assert counts[7] == counts.max()
        # Rank-based 1/rank: item 7 should take roughly 1/H_50 ~ 22% of draws.
        assert counts[7] / counts.sum() > 0.1

    def test_prioritized_still_explores_low_ranks(self):
        buf = self.make_buffer(20)
        priorities = np.arange(20, dtype=float)
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(300):
            _, _, r, _ = buf.sample_ranked(4, buf.rank_probabilities(priorities), rng)
            seen.update(int(v) for v in r)
        assert len(seen) > 15  # low-priority items are not starved

    def test_prioritized_deterministic_given_rng(self):
        buf = self.make_buffer(20)
        priorities = np.arange(20, dtype=float)
        probs = buf.rank_probabilities(priorities)
        r1 = buf.sample_ranked(6, probs, np.random.default_rng(3))
        r2 = buf.sample_ranked(6, probs, np.random.default_rng(3))
        np.testing.assert_array_equal(r1[2], r2[2])

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_property_sampling_never_fails(self, batch, seed):
        buf = self.make_buffer(12)
        rng = np.random.default_rng(seed)
        s, a, r, s2 = buf.sample_ranked(batch, buf.rank_probabilities(np.ones(12)), rng)
        assert s.shape[0] == batch
        assert np.all(r >= 0) and np.all(r < 12)


def _transitions(n: int, k: int = 2, seed: int = 0) -> list[Experience]:
    """``n`` transitions with distinct rewards, so a batch's rewards name
    the slots it drew."""
    rng = np.random.default_rng(seed)
    return [
        Experience(rng.normal(size=3 * k), rng.normal(size=2 * k), float(i),
                   rng.normal(size=3 * k))
        for i in range(n)
    ]


class TestRingMatchesListReference:
    """The columnar ring against the list-backed buffer it replaced
    (``tests/drl/reference_replay.py``)."""

    @staticmethod
    def _pair(capacity: int, exps: list[Experience]):
        ring, ref = ReplayBuffer(capacity), R.ReplayBuffer(capacity)
        for e in exps:
            ring.add(e)
            ref.add(e)
        return ring, ref

    @staticmethod
    def _assert_batches_equal(got, want):
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    @given(
        capacity=st.integers(min_value=1, max_value=7),
        n_adds=st.integers(min_value=1, max_value=20),
        n_merge=st.integers(min_value=0, max_value=9),
        batch=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_sequence_of_adds(self, capacity, n_adds, n_merge, batch, seed):
        exps = _transitions(n_adds, seed=seed)
        ring, ref = self._pair(capacity, exps)
        assert len(ring) == len(ref) and ring._cursor == ref._cursor
        self._assert_batches_equal(ring.snapshot(), ref.snapshot())

        draws = {}
        for name, buf in (("ring", ring), ("ref", ref)):
            rng = np.random.default_rng(seed)
            priorities = np.random.default_rng(seed + 1).random(len(buf))
            draws[name] = (
                buf.sample_uniform(batch, rng),
                # The oracle keeps its one-call spelling of rank sampling.
                buf.sample_prioritized(batch, priorities, rng) if buf is ref
                else buf.sample_ranked(batch, buf.rank_probabilities(priorities), rng),
                rng.bit_generator.state,
            )
        for got, want in zip(draws["ring"][:2], draws["ref"][:2]):
            self._assert_batches_equal(got, want)
        assert draws["ring"][2] == draws["ref"][2]

        # merge: the other buffer's transitions arrive in its slot order.
        other_exps = _transitions(n_merge, seed=seed + 2)
        other_ring, other_ref = self._pair(4, other_exps)
        ring.merge(other_ring)
        ref.merge(other_ref)
        assert len(other_ring) == min(n_merge, 4)  # the source is untouched
        self._assert_batches_equal(ring.snapshot(), ref.snapshot())

        # items() round trip: a fresh ring fed the items holds the same rows.
        again = ReplayBuffer(capacity)
        again.extend(ring.items())
        self._assert_batches_equal(again.snapshot(), ring.snapshot())

    def test_ranked_sampling_reuses_one_ranking(self):
        """``train`` ranks once and draws many times: the same bits as
        ranking on every draw."""
        exps = _transitions(30)
        ring, ref = self._pair(100, exps)
        priorities = np.random.default_rng(4).random(30)
        probs = ring.rank_probabilities(priorities)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            self._assert_batches_equal(
                ring.sample_ranked(16, probs, rng_a),
                ref.sample_prioritized(16, priorities, rng_b),
            )


class TestRingStorage:
    def test_columns_grow_with_use_not_capacity(self):
        buf = ReplayBuffer(100_000)
        buf.extend(_transitions(10, k=10))
        assert sum(c.nbytes for c in buf._columns) < 1_000_000
        assert len(buf) == 10

    def test_columns_reach_but_never_pass_capacity(self):
        buf = ReplayBuffer(20)
        buf.extend(_transitions(50))
        assert all(c.shape[0] == 20 for c in buf._columns)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_columns_and_batches_keep_the_buffer_dtype(self, dtype):
        buf = ReplayBuffer(10, dtype=dtype)
        buf.extend(_transitions(6))
        rng = np.random.default_rng(0)
        for batch in (buf.snapshot(), buf.sample_uniform(4, rng),
                      buf.sample_ranked(4, buf.rank_probabilities(np.ones(6)), rng)):
            assert all(col.dtype == dtype for col in batch)

    def test_snapshot_is_a_read_only_view(self):
        buf = ReplayBuffer(10)
        buf.extend(_transitions(3))
        s = buf.snapshot()[0]
        assert np.shares_memory(s, buf._columns[0])
        with pytest.raises(ValueError):
            s[0, 0] = 1.0

    def test_rejects_a_transition_of_another_shape(self):
        buf = ReplayBuffer(10)
        buf.add(exp(0, k=2))
        with pytest.raises(ValueError, match="shape"):
            buf.add(exp(1, k=3))
