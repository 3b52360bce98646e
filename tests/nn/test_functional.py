"""Unit tests for the stateless numerical kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from tests.nn import reference_conv as R


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(7, 5))
        p = F.softmax(x, axis=1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_invariant_to_shift(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100.0), atol=1e-12)

    def test_handles_large_values(self):
        x = np.array([[1000.0, 1000.0]])
        np.testing.assert_allclose(F.softmax(x), [[0.5, 0.5]])

    def test_matches_log_softmax(self, rng):
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(np.log(F.softmax(x)), F.log_softmax(x), atol=1e-10)

    @given(arrays(float, (3, 4), elements=st.floats(-50, 50)))
    @settings(max_examples=30, deadline=None)
    def test_property_positive_and_normalized(self, x):
        p = F.softmax(x, axis=1)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestIm2col:
    """The row-major reference the conv tests compare against."""

    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols = R.im2col(x, 3, 3, stride=1, pad=0)
        assert cols.shape == (2 * 4 * 4, 3 * 9)

    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        cols = R.im2col(x, 1, 1)
        # 1x1 im2col is a transpose-reshape of the input.
        expected = x.transpose(0, 2, 3, 1).reshape(-1, 3)
        np.testing.assert_allclose(cols, expected)

    def test_values_against_naive(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        kh = kw = 3
        cols = R.im2col(x, kh, kw, stride=2, pad=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        row = 0
        for i in range(0, 5 + 2 - kh + 1, 2):
            for j in range(0, 5 + 2 - kw + 1, 2):
                patch = xp[0, :, i : i + kh, j : j + kw].ravel()
                np.testing.assert_allclose(cols[row], patch)
                row += 1

    def test_too_large_kernel_raises(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        with pytest.raises(ValueError):
            R.im2col(x, 5, 5)

    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = rng.normal(size=(2, 3, 6, 6))
        for stride, pad in [(1, 0), (2, 1), (1, 1)]:
            cols = R.im2col(x, 3, 3, stride, pad)
            y = rng.normal(size=cols.shape)
            lhs = float(np.sum(cols * y))
            back = R.col2im(y, x.shape, 3, 3, stride, pad)
            rhs = float(np.sum(x * back))
            assert abs(lhs - rhs) < 1e-8


@st.composite
def unfold_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, pad = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    # At least one window each way; non-square inputs included.
    h = draw(st.integers(max(1, kh - 2 * pad), 9))
    w = draw(st.integers(max(1, kw - 2 * pad), 9))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, kh, kw, stride, pad, dtype, draw(st.integers(0, 2**16))


class TestUnfoldFold:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols = F.unfold(x, 3, 3, stride=1, pad=0)
        assert cols.shape == (3 * 9, 2 * 4 * 4)
        assert cols.flags.c_contiguous

    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        # A 1x1 unfold is the channel-major reshape of the input.
        expected = x.transpose(1, 0, 2, 3).reshape(3, -1)
        np.testing.assert_array_equal(F.unfold(x, 1, 1), expected)

    def test_values_against_naive(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        kh = kw = 3
        cols = F.unfold(x, kh, kw, stride=2, pad=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        col = 0
        for i in range(0, 5 + 2 - kh + 1, 2):
            for j in range(0, 5 + 2 - kw + 1, 2):
                patch = xp[0, :, i : i + kh, j : j + kw].ravel()
                np.testing.assert_array_equal(cols[:, col], patch)
                col += 1

    @pytest.mark.parametrize("pad", [0, 1])
    def test_too_large_kernel_raises(self, rng, pad):
        x = rng.normal(size=(1, 1, 3, 3))
        with pytest.raises(ValueError, match="too large for input 3x3"):
            F.unfold(x, 6, 6, pad=pad)

    @given(unfold_cases())
    @settings(max_examples=150, deadline=None)
    def test_is_the_transposed_reference_and_fold_is_its_adjoint(self, case):
        shape, kh, kw, stride, pad, dtype, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape).astype(dtype)
        cols = F.unfold(x, kh, kw, stride, pad)
        assert cols.dtype == dtype
        # Same entries as the row-major columns, K-major.
        assert np.array_equal(cols.T, R.im2col(x, kh, kw, stride, pad))
        c = rng.normal(size=cols.shape).astype(dtype)
        back = F.fold(c, shape, kh, kw, stride, pad)
        assert back.shape == shape and back.dtype == dtype
        # Overlaps are summed in the same (i, j) order: bit-equal.
        assert np.array_equal(back, R.col2im(c.T, shape, kh, kw, stride, pad))
        # <unfold(x), c> == <x, fold(c)>, in float64 so only fold's own sums round.
        lhs = np.sum(cols.astype(np.float64) * c)
        rhs = np.sum(x.astype(np.float64) * back)
        assert lhs == pytest.approx(rhs, rel=0, abs=1e-9 if dtype == np.float64 else 1e-3)

    def test_non_contiguous_input(self, rng):
        big = rng.normal(size=(6, 2, 5, 7))
        x = big[::2]
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(
            F.unfold(x, 3, 3, 1, 1), F.unfold(np.ascontiguousarray(x), 3, 3, 1, 1)
        )


class TestActivationKernels:
    def test_leaky_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(F.leaky_relu(x, 0.1), [-0.2, 0.0, 3.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("alpha", [0.01, 0.2, 1.0])
    def test_leaky_relu_equals_the_where_form(self, rng, dtype, alpha):
        edge = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-310, -1e-310, 5e-324, -5e-324]
        x = np.concatenate([edge, rng.normal(size=64) * 10]).astype(dtype)
        got = F.leaky_relu(x, alpha)
        want = np.where(x >= 0, x, alpha * x)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0

    def test_leaky_relu_zero_slope_is_relu_on_finite_input(self, rng):
        x = rng.normal(size=32)
        assert np.array_equal(F.leaky_relu(x, 0.0), np.where(x >= 0, x, 0.0 * x))

    def test_leaky_relu_rejects_slopes_outside_unit_interval(self):
        for alpha in (-0.01, 1.01, np.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                F.leaky_relu(np.zeros(3), alpha)

    def test_sigmoid_extremes(self):
        assert F.sigmoid(np.array([500.0]))[0] == pytest.approx(1.0)
        assert F.sigmoid(np.array([-500.0]))[0] == pytest.approx(0.0)

    def test_sigmoid_symmetry(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_allclose(F.sigmoid(x) + F.sigmoid(-x), 1.0, atol=1e-12)
