"""Benchmark harness conventions.

Each ``test_*`` file regenerates one table or figure from the paper's
evaluation at the ``bench`` scale preset.
``benchmark.pedantic(..., rounds=1, iterations=1)`` is used for
the macro experiments — they are end-to-end training runs, not
micro-kernels — so the benchmark time is the cost of regenerating the
artifact once.  Every bench prints its table/series; run with ``-s`` to
see them inline.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run a macro-experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
