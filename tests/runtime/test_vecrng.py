"""CellBatchKernel edge cases: chunking, empty columns, argument checks.

The bit-identity properties against ``SeedSequence`` live next to their
users (``tests/runtime/test_clock_columnar.py`` for the clock's static
``(client, stream)`` key, ``tests/fleet/test_columnar.py`` for the
fleet's ``(slot, client, stream)`` key); this file covers the kernel's
own mechanics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.seeding import STREAM_AVAILABILITY, client_round_rng
from repro.runtime.vecrng import CellBatchKernel, spawn_key_draws

U32_MAX = 2**32 - 1
IDS = np.array([0, 1, 2, 7, 11, 500, 65535, U32_MAX], dtype=np.int64)


def test_chunked_columns_match_one_chunk(monkeypatch):
    """A column split over several chunks draws what one chunk draws."""
    whole = CellBatchKernel(9, IDS, 1, 1)
    want_u = whole.uniforms((4,), (STREAM_AVAILABILITY,))
    want_s = whole.states((4,), (STREAM_AVAILABILITY,))
    monkeypatch.setattr(CellBatchKernel, "_CHUNK", 3)
    chunked = CellBatchKernel(9, IDS, 1, 1)
    assert len(chunked._id_rows) == 3
    np.testing.assert_array_equal(
        chunked.uniforms((4,), (STREAM_AVAILABILITY,)), want_u)
    for got, want in zip(chunked.states((4,), (STREAM_AVAILABILITY,)), want_s):
        np.testing.assert_array_equal(got, want)


def test_empty_id_column():
    kernel = CellBatchKernel(9, IDS[:0], 1, 1)
    assert kernel.uniforms((0,), (1,)).shape == (0,)
    assert [w.shape for w in kernel.states((0,), (1,))] == [(0,)] * 4


def test_spawn_key_draws_with_the_id_column_inside_the_key():
    """The fleet's key shape through ``spawn_key_draws``: a scalar
    before and after the id column."""
    got = spawn_key_draws(5, (3, IDS, STREAM_AVAILABILITY), "random")
    want = [client_round_rng(5, 3, int(c), STREAM_AVAILABILITY).random()
            for c in IDS]
    assert got.tolist() == want
    kernel = CellBatchKernel(5, IDS, 1, 1)
    np.testing.assert_array_equal(
        kernel.uniforms((3,), (STREAM_AVAILABILITY,)), got)


@pytest.mark.parametrize("ids,prefix,suffix,match", [
    (np.zeros((2, 2), dtype=np.int64), (0,), (0,), "1-D"),
    (np.array([-1, 3]), (0,), (0,), "ids must fit in uint32"),
    (np.array([2**32]), (0,), (0,), "ids must fit in uint32"),
    (IDS, (2**32,), (0,), "prefix components"),
    (IDS, (0,), (-1,), "suffix components"),
    (IDS, (0, 0), (0,), "prefix arity"),
    (IDS, (0,), (), "suffix arity"),
], ids=["2d-ids", "negative-id", "wide-id", "wide-prefix", "negative-suffix",
        "prefix-arity", "suffix-arity"])
def test_kernel_rejects_bad_keys(ids, prefix, suffix, match):
    with pytest.raises(ValueError, match=match):
        CellBatchKernel(0, ids, 1, 1).uniforms(prefix, suffix)
