"""Tests for the non-IID partitioners, including invariant property tests.

Invariants checked for every scheme: disjointness (no sample on two
clients), index validity, non-empty clients, and the scheme-specific
structure the paper relies on (label counts, cluster structure, quantity
skew).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    PARTITIONERS,
    cluster_assignment,
    clustered_equal_partition,
    clustered_nonequal_partition,
    get_partitioner,
    gini,
    iid_partition,
    pareto_partition,
    partition_matrix,
    partition_summary,
    shards_equal_partition,
    shards_nonequal_partition,
    validate_partition,
)


def labels_balanced(n=1000, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    return rng.permutation(np.repeat(np.arange(classes), n // classes))


ALL_NAMES = sorted(PARTITIONERS)


class TestCommonInvariants:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_disjoint_and_valid(self, name):
        labels = labels_balanced()
        parts = PARTITIONERS[name](labels, 10, np.random.default_rng(1))
        stats = validate_partition(parts, labels.shape[0])
        assert stats["clients"] == 10
        # CE trims clients to a common size, leaving some samples
        # off-device by construction; all other schemes are near-complete.
        assert stats["coverage"] > (0.6 if name == "CE" else 0.95)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_empty_clients(self, name):
        labels = labels_balanced()
        parts = PARTITIONERS[name](labels, 10, np.random.default_rng(2))
        assert all(p.size > 0 for p in parts)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_deterministic_given_seed(self, name):
        labels = labels_balanced()
        a = PARTITIONERS[name](labels, 10, np.random.default_rng(3))
        b = PARTITIONERS[name](labels, 10, np.random.default_rng(3))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_rejects_too_few_samples(self, name):
        with pytest.raises(ValueError):
            PARTITIONERS[name](np.array([0, 1]), 5, np.random.default_rng(0))

    @given(
        n_clients=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        name=st.sampled_from(["IID", "PA", "CE", "CN"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_disjointness(self, n_clients, seed, name):
        labels = labels_balanced(600, 6, seed)
        parts = PARTITIONERS[name](labels, n_clients, np.random.default_rng(seed))
        validate_partition(parts, labels.shape[0])  # raises on violation
        assert all(p.size > 0 for p in parts)


class TestIID:
    @pytest.mark.parametrize("n,n_clients", [(1000, 10), (1000, 1000), (1000, 1),
                                             (1003, 10), (999, 7), (12, 5)])
    def test_matches_per_piece_sort(self, n, n_clients):
        """Even splits sort one reshaped block; the parts must equal the
        per-piece ``array_split`` + ``sort`` form exactly."""
        labels = np.zeros(n, dtype=np.int64)
        parts = iid_partition(labels, n_clients, np.random.default_rng(n))
        perm = np.random.default_rng(n).permutation(n)
        want = [np.sort(p) for p in np.array_split(perm, n_clients)]
        assert len(parts) == len(want)
        for got, ref in zip(parts, want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_full_coverage(self):
        labels = labels_balanced()
        parts = iid_partition(labels, 7, np.random.default_rng(0))
        assert validate_partition(parts, 1000)["coverage"] == 1.0

    def test_near_equal_sizes(self):
        parts = iid_partition(labels_balanced(), 7, np.random.default_rng(0))
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_label_distribution_roughly_uniform(self):
        labels = labels_balanced(5000)
        parts = iid_partition(labels, 5, np.random.default_rng(0))
        mat = partition_matrix(labels, parts, 10)
        # Each client sees every label.
        assert np.all(mat > 0)


class TestPareto:
    def test_labels_per_client(self):
        labels = labels_balanced()
        parts = pareto_partition(labels, 10, np.random.default_rng(0), labels_per_client=2)
        mat = partition_matrix(labels, parts, 10)
        labels_held = (mat > 0).sum(axis=0)
        assert np.all(labels_held <= 2)
        assert np.all(labels_held >= 1)

    def test_power_law_quantity_skew(self):
        labels = labels_balanced(10_000)
        parts = pareto_partition(labels, 10, np.random.default_rng(0))
        sizes = np.array([p.size for p in parts])
        # Pareto weights produce visible inequality (IID would be ~0).
        assert gini(sizes) > 0.15

    def test_all_labels_covered(self):
        labels = labels_balanced()
        parts = pareto_partition(labels, 10, np.random.default_rng(4))
        mat = partition_matrix(labels, parts, 10)
        assert np.all(mat.sum(axis=1) > 0)

    def test_more_labels_than_capacity_does_not_drop_data(self):
        # 100 classes, 5 clients x 2 labels = capacity 10 < 100.
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 100, size=2000)
        parts = pareto_partition(labels, 5, rng, labels_per_client=2)
        stats = validate_partition(parts, 2000)
        assert stats["coverage"] > 0.99

    def test_invalid_labels_per_client(self):
        with pytest.raises(ValueError):
            pareto_partition(labels_balanced(), 5, np.random.default_rng(0), labels_per_client=0)


class TestClusterAssignment:
    def test_main_group_fraction(self):
        a = cluster_assignment(100, delta=0.6, n_clusters=3)
        assert (a == 0).sum() == 60

    def test_remainder_spread_evenly(self):
        a = cluster_assignment(100, delta=0.6, n_clusters=3)
        assert (a == 1).sum() == 20 and (a == 2).sum() == 20

    def test_delta_one_single_group(self):
        a = cluster_assignment(10, delta=1.0, n_clusters=3)
        assert np.all(a == 0)

    def test_small_populations(self):
        a = cluster_assignment(3, delta=0.6, n_clusters=3)
        assert (a == 0).sum() >= 1

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            cluster_assignment(10, delta=0.0, n_clusters=2)
        with pytest.raises(ValueError):
            cluster_assignment(10, delta=1.5, n_clusters=2)


class TestClusteredPartitions:
    def test_ce_equal_sizes(self):
        """CE: 'the number of samples per client does not change among
        clients' — sizes must be exactly uniform after the trim."""
        labels = labels_balanced(6000, 12)
        parts = clustered_equal_partition(
            labels, 10, np.random.default_rng(0), delta=0.6, n_clusters=3
        )
        sizes = np.array([p.size for p in parts])
        assert sizes.min() == sizes.max()

    def test_cn_more_skewed_than_ce(self):
        labels = labels_balanced(6000, 12)
        rng_ce, rng_cn = np.random.default_rng(1), np.random.default_rng(1)
        ce = clustered_equal_partition(labels, 10, rng_ce)
        cn = clustered_nonequal_partition(labels, 10, rng_cn)
        ce_gini = gini(np.array([p.size for p in ce]))
        cn_gini = gini(np.array([p.size for p in cn]))
        assert cn_gini > ce_gini

    def test_cluster_structure_labels_disjoint_across_clusters(self):
        """Clients in different clusters must hold disjoint label sets."""
        labels = labels_balanced(6000, 12)
        n_clients, delta, n_clusters = 10, 0.6, 3
        parts = clustered_equal_partition(
            labels, n_clients, np.random.default_rng(2), delta=delta, n_clusters=n_clusters
        )
        assignment = cluster_assignment(n_clients, delta, n_clusters)
        mat = partition_matrix(labels, parts, 12)
        cluster_labels = []
        for g in range(n_clusters):
            members = np.flatnonzero(assignment == g)
            held = set(np.flatnonzero(mat[:, members].sum(axis=1) > 0).tolist())
            cluster_labels.append(held)
        for i in range(n_clusters):
            for j in range(i + 1, n_clusters):
                assert not (cluster_labels[i] & cluster_labels[j])

    def test_labels_per_client_bound(self):
        labels = labels_balanced(6000, 12)
        parts = clustered_equal_partition(labels, 10, np.random.default_rng(3))
        mat = partition_matrix(labels, parts, 12)
        assert np.all((mat > 0).sum(axis=0) <= 2)

    def test_higher_delta_bigger_main_group(self):
        labels = labels_balanced(6000, 12)
        mat_by_delta = {}
        for delta in (0.2, 0.8):
            parts = clustered_equal_partition(
                labels, 20, np.random.default_rng(4), delta=delta
            )
            assignment = cluster_assignment(20, delta, 3)
            mat_by_delta[delta] = (assignment == 0).sum()
        assert mat_by_delta[0.8] > mat_by_delta[0.2]

    def test_too_many_clusters_raises(self):
        labels = labels_balanced(100, 2)
        with pytest.raises(ValueError):
            clustered_equal_partition(labels, 4, np.random.default_rng(0), n_clusters=5)


class TestShardPartitions:
    def test_equal_two_shards_each(self):
        labels = labels_balanced(2000)
        parts = shards_equal_partition(labels, 10, np.random.default_rng(0))
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 2  # array_split remainder only
        mat = partition_matrix(labels, parts, 10)
        # Sorted shards mean few labels per client (typically <= 3).
        assert np.all((mat > 0).sum(axis=0) <= 4)

    def test_equal_full_coverage(self):
        labels = labels_balanced(2000)
        parts = shards_equal_partition(labels, 10, np.random.default_rng(1))
        assert validate_partition(parts, 2000)["coverage"] == 1.0

    def test_nonequal_counts_within_bounds(self):
        labels = labels_balanced(20_000)
        parts = shards_nonequal_partition(labels, 10, np.random.default_rng(0))
        sizes = np.array([p.size for p in parts])
        shard = 20_000 // 100
        assert np.all(sizes >= 6 * shard - 10)
        assert np.all(sizes <= 14 * shard + 10)
        assert validate_partition(parts, 20_000)["coverage"] == 1.0

    def test_nonequal_exact_shard_total(self):
        labels = labels_balanced(20_000)
        parts = shards_nonequal_partition(labels, 20, np.random.default_rng(5))
        assert sum(p.size for p in parts) == 20_000

    def test_nonequal_impossible_bounds_raise(self):
        labels = labels_balanced(2000)
        with pytest.raises(ValueError):
            shards_nonequal_partition(
                labels, 10, np.random.default_rng(0), shards_factor=100,
                min_shards=6, max_shards=14,
            )

    def test_equal_insufficient_samples_raise(self):
        with pytest.raises(ValueError):
            shards_equal_partition(
                labels_balanced(10, 2), 10, np.random.default_rng(0), shards_per_client=2
            )


class TestStatsHelpers:
    def test_partition_matrix_totals(self):
        labels = labels_balanced(500)
        parts = iid_partition(labels, 5, np.random.default_rng(0))
        mat = partition_matrix(labels, parts, 10)
        assert mat.sum() == 500
        np.testing.assert_array_equal(mat.sum(axis=1), np.bincount(labels, minlength=10))

    def test_gini_extremes(self):
        assert gini(np.array([5.0, 5.0, 5.0])) == pytest.approx(0.0)
        assert gini(np.array([0.0, 0.0, 10.0])) == pytest.approx(2 / 3, rel=1e-6)
        assert gini(np.array([])) == 0.0

    def test_partition_summary_keys(self):
        labels = labels_balanced(500)
        parts = iid_partition(labels, 5, np.random.default_rng(0))
        summary = partition_summary(labels, parts, 10)
        assert summary["sizes"].sum() == 500
        assert summary["labels_per_client"].shape == (5,)
        assert 0.0 <= summary["size_gini"] <= 1.0

    def test_validate_detects_overlap(self):
        with pytest.raises(ValueError, match="multiple clients"):
            validate_partition([np.array([0, 1]), np.array([1, 2])], 5)

    def test_validate_detects_out_of_range(self):
        with pytest.raises(ValueError, match="out-of-range"):
            validate_partition([np.array([0, 99])], 5)

    def test_get_partitioner_lookup(self):
        assert get_partitioner("ce") is clustered_equal_partition
        with pytest.raises(ValueError):
            get_partitioner("nope")
