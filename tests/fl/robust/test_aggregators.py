"""Robust aggregation rules: estimator math, rejection info, error paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.robust import (
    ROBUST_AGGREGATORS,
    AggregationInfo,
    RobustAggregator,
)


def _uniform(k):
    return np.full(k, 1.0 / k)


class TestValidation:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            RobustAggregator("bogus")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            RobustAggregator("trimmed_mean", trim_fraction=0.5)
        with pytest.raises(ValueError):
            RobustAggregator("krum", byzantine_fraction=-0.1)
        with pytest.raises(ValueError):
            RobustAggregator("norm_clip", clip_norm=0.0)

    def test_empty_matrix(self):
        agg = RobustAggregator("median")
        with pytest.raises(ValueError, match="non-empty"):
            agg.combine(np.empty((0, 3)), np.empty(0))

    def test_alpha_shape_mismatch(self):
        agg = RobustAggregator("median")
        with pytest.raises(ValueError, match="does not match"):
            agg.combine(np.ones((3, 2)), np.ones(2))

    def test_zero_alpha_mass(self):
        agg = RobustAggregator("median")
        with pytest.raises(ValueError, match="zero total mass"):
            agg.combine(np.ones((3, 2)), np.zeros(3))

    def test_negative_alphas(self):
        agg = RobustAggregator("median")
        with pytest.raises(ValueError, match="non-negative"):
            agg.combine(np.ones((3, 2)), np.array([0.5, 0.7, -0.2]))


class TestMean:
    def test_weighted_mean(self):
        deltas = np.array([[1.0, 0.0], [3.0, 2.0]])
        combined, info = RobustAggregator("mean").combine(deltas, np.array([1.0, 3.0]))
        np.testing.assert_allclose(combined, [2.5, 1.5])
        assert info.rejected == [] and info.clipped == []

    def test_alphas_renormalized(self):
        deltas = np.array([[2.0], [4.0]])
        a, _ = RobustAggregator("mean").combine(deltas, np.array([0.1, 0.1]))
        b, _ = RobustAggregator("mean").combine(deltas, np.array([5.0, 5.0]))
        np.testing.assert_allclose(a, b)


class TestMedian:
    def test_coordinatewise(self):
        deltas = np.array([[1.0, 10.0], [2.0, -5.0], [100.0, 0.0]])
        combined, info = RobustAggregator("median").combine(deltas, _uniform(3))
        np.testing.assert_allclose(combined, [2.0, 0.0])
        assert info.trimmed_per_coordinate == 1

    def test_resists_one_outlier(self):
        honest = np.tile(np.array([1.0, -1.0]), (4, 1))
        deltas = np.vstack([honest, [[1e6, -1e6]]])
        combined, _ = RobustAggregator("median").combine(deltas, _uniform(5))
        np.testing.assert_allclose(combined, [1.0, -1.0])


class TestTrimmedMean:
    def test_trims_extremes_per_coordinate(self):
        deltas = np.array([[0.0], [1.0], [2.0], [3.0], [1000.0]])
        combined, info = RobustAggregator(
            "trimmed_mean", trim_fraction=0.2
        ).combine(deltas, _uniform(5))
        np.testing.assert_allclose(combined, [2.0])  # mean of {1, 2, 3}
        assert info.trimmed_per_coordinate == 1

    def test_zero_trim_is_plain_mean(self):
        deltas = np.array([[1.0], [3.0]])
        combined, info = RobustAggregator(
            "trimmed_mean", trim_fraction=0.0
        ).combine(deltas, _uniform(2))
        np.testing.assert_allclose(combined, [2.0])
        assert info.trimmed_per_coordinate == 0

    def test_trim_clamped_to_leave_survivors(self):
        deltas = np.array([[0.0], [10.0], [20.0]])
        _, info = RobustAggregator("trimmed_mean", trim_fraction=0.49).combine(
            deltas, _uniform(3)
        )
        assert info.trimmed_per_coordinate == 1  # (k-1)//2, not ceil(.49*3)=2


class TestKrum:
    def test_rejects_the_outlier(self):
        rng = np.random.default_rng(0)
        honest = rng.normal(0.0, 0.01, size=(5, 8)) + 1.0
        deltas = np.vstack([honest, rng.normal(50.0, 0.01, size=(1, 8))])
        combined, info = RobustAggregator("krum", byzantine_fraction=0.2).combine(
            deltas, _uniform(6)
        )
        assert 5 in info.rejected
        assert len(info.rejected) == 5  # krum keeps exactly one
        assert np.linalg.norm(combined - 1.0) < 1.0

    def test_multikrum_keeps_k_minus_f(self):
        rng = np.random.default_rng(1)
        honest = rng.normal(0.0, 0.01, size=(8, 4))
        deltas = np.vstack([honest, rng.normal(30.0, 0.01, size=(2, 4))])
        _, info = RobustAggregator("multikrum", byzantine_fraction=0.2).combine(
            deltas, _uniform(10)
        )
        assert set(info.rejected) == {8, 9}
        assert len(info.rejected) == 2  # f = ceil(0.2 * 10)

    def test_two_updates_keeps_heavier(self):
        deltas = np.array([[1.0, 1.0], [5.0, 5.0]])
        combined, info = RobustAggregator("krum").combine(
            deltas, np.array([0.2, 0.8])
        )
        np.testing.assert_allclose(combined, [5.0, 5.0])
        assert info.rejected == [0]


class TestNormClip:
    def test_clips_to_median_norm(self):
        deltas = np.array([[3.0, 4.0], [0.6, 0.8], [30.0, 40.0]])
        combined, info = RobustAggregator("norm_clip").combine(deltas, _uniform(3))
        assert info.clipped == [2]
        # Median norm is 5; the big row is scaled from norm 50 to 5.
        np.testing.assert_allclose(combined, np.array([3.0 + 0.6 + 3.0, 4.0 + 0.8 + 4.0]) / 3)

    def test_fixed_clip_norm(self):
        deltas = np.array([[3.0, 4.0], [0.0, 1.0]])
        combined, info = RobustAggregator("norm_clip", clip_norm=1.0).combine(
            deltas, _uniform(2)
        )
        assert info.clipped == [0]
        # Row 0 rescales from norm 5 to 1 -> [0.6, 0.8]; row 1 is untouched.
        np.testing.assert_allclose(combined, [0.3, 0.9])

    def test_all_zero_deltas(self):
        deltas = np.zeros((3, 2))
        combined, info = RobustAggregator("norm_clip").combine(deltas, _uniform(3))
        np.testing.assert_array_equal(combined, [0.0, 0.0])
        assert info.clipped == []


class TestTranslationEquivariance:
    """Coordinate-wise and distance-based rules commute with a common
    shift of every row — the property that makes delta-form and
    weight-form aggregation agree."""

    @pytest.mark.parametrize("name", ["median", "trimmed_mean", "krum", "multikrum"])
    def test_shift_commutes(self, name):
        rng = np.random.default_rng(2)
        deltas = rng.normal(size=(7, 5))
        alphas = rng.random(7) + 0.1
        shift = rng.normal(size=5)
        agg = RobustAggregator(name)
        plain, _ = agg.combine(deltas, alphas)
        shifted, _ = agg.combine(deltas + shift, alphas)
        np.testing.assert_allclose(shifted, plain + shift, atol=1e-10)

    # Why config rejects a non-mean rule on a one-update window: every
    # rule hands a lone update back bit for bit, whatever its weight.
    @pytest.mark.parametrize("name", ROBUST_AGGREGATORS)
    def test_a_lone_update_comes_back_unchanged(self, name):
        delta = np.random.default_rng(4).normal(size=(1, 9))
        combined, info = RobustAggregator(name).combine(delta, np.array([0.3]))
        np.testing.assert_array_equal(combined, delta[0])
        assert info.rejected == [] and info.clipped == []

    @pytest.mark.parametrize("name", ROBUST_AGGREGATORS)
    def test_all_rules_return_info(self, name):
        deltas = np.random.default_rng(3).normal(size=(6, 4))
        combined, info = RobustAggregator(name).combine(deltas, _uniform(6))
        assert combined.shape == (4,)
        assert isinstance(info, AggregationInfo)
