"""``combine_updates`` reads consecutive, in-order rows of one matrix in
place and stacks anything else — with the same bits either way.

The predicate is a property of the input, not of a backend: the process
backend's updates happen to be rows of one result block per call, every
other caller's vectors are separate arrays.  The stacked product is the
oracle.
"""

import tracemalloc

import numpy as np
import pytest

from repro.fl.client import ClientUpdate
from repro.fl.strategies.base import _row_block, combine_updates

K, D = 4, 50_000


def as_updates(vectors):
    return [ClientUpdate(client_id=i, weights=w, n_samples=10, loss_before=1.0,
                         loss_after=0.5) for i, w in enumerate(vectors)]


def alphas_for(k):
    alphas = np.random.default_rng(7).random(k)
    return alphas / alphas.sum()


def stacked(vectors, alphas):
    """The oracle: the product over an explicit stacked copy."""
    matrix = np.stack([np.array(v) for v in vectors])
    return alphas.astype(matrix.dtype) @ matrix


def matrix_of(rows, dtype, seed=0):
    return np.random.default_rng(seed).standard_normal((rows, D)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestRowBlock:
    def test_consecutive_rows_are_read_in_place(self, dtype):
        matrix = matrix_of(K + 3, dtype)
        vectors = [matrix[1 + i] for i in range(K)]
        block = _row_block(vectors)
        assert block is not None and block.shape == (K, D)
        assert np.shares_memory(block, matrix)
        np.testing.assert_array_equal(
            combine_updates(as_updates(vectors), alphas_for(K)),
            stacked(vectors, alphas_for(K)))

    def test_in_place_product_allocates_no_matrix(self, dtype):
        matrix = matrix_of(K, dtype)
        updates = as_updates(list(matrix))
        alphas = alphas_for(K)
        combine_updates(updates, alphas)  # warm up
        tracemalloc.start()
        try:
            combine_updates(updates, alphas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (D,) result and change; a stacked copy would be K × D.
        assert peak < 2 * D * np.dtype(dtype).itemsize

    @pytest.mark.parametrize("case", [
        "reversed", "gapped", "two_matrices", "separate", "column_views", "mixed_dtype",
    ])
    def test_anything_else_falls_back_to_the_stack(self, dtype, case):
        matrix = matrix_of(2 * K + 1, dtype)
        if case == "reversed":
            vectors = [matrix[K - 1 - i] for i in range(K)]
        elif case == "gapped":
            vectors = [matrix[2 * i] for i in range(K)]
        elif case == "two_matrices":
            other = matrix_of(K, dtype, seed=1)
            vectors = [matrix[0], matrix[1], other[2], other[3]]
        elif case == "separate":
            vectors = [matrix[i].copy() for i in range(K)]
        elif case == "column_views":
            tall = np.ascontiguousarray(matrix_of(K, dtype).T)  # (D, K)
            vectors = [tall[:, i] for i in range(K)]
        else:
            vectors = [matrix[i] for i in range(K)]
            vectors[2] = vectors[2].astype(np.float16).astype(dtype)
        assert _row_block(vectors) is None
        alphas = alphas_for(K)
        np.testing.assert_array_equal(
            combine_updates(as_updates(vectors), alphas), stacked(vectors, alphas))

    def test_a_single_row(self, dtype):
        matrix = matrix_of(3, dtype)
        vectors = [matrix[2]]
        assert _row_block(vectors).shape == (1, D)
        np.testing.assert_array_equal(
            combine_updates(as_updates(vectors), np.ones(1)), matrix[2])
