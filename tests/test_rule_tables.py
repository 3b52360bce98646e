"""The clock's latency and link rules and the staleness policies, pinned.

``fixtures/rule_table.json`` was recorded from the class-based models
these functions replaced: each latency model's ``factors(64,
run_rng(0, STREAM_CLOCK_PROFILE))``, each bandwidth model's
``factors(64, 0)``, and each staleness policy's ``factor(s)`` for
``s = 0..8``, all at their default parameters.  The functions must give
the same floats exactly, so no run's timing or weighting moves.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.fl.async_.staleness import STALENESS_POLICIES, staleness_factor
from repro.runtime.clock import (
    BANDWIDTH_MODELS,
    LATENCY_MODELS,
    latency_factors,
    link_factors,
)
from repro.runtime.seeding import STREAM_CLOCK_PROFILE, run_rng

TABLE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "rule_table.json").read_text()
)


@pytest.mark.parametrize("name", LATENCY_MODELS)
def test_latency_factors_match_table(name):
    got = latency_factors(name, 64, run_rng(0, STREAM_CLOCK_PROFILE))
    assert np.array_equal(got, TABLE["latency"][name])


@pytest.mark.parametrize("name", BANDWIDTH_MODELS)
def test_link_factors_match_table(name):
    assert np.array_equal(link_factors(name, 64, 0), TABLE["link"][name])


@pytest.mark.parametrize("policy", STALENESS_POLICIES)
def test_staleness_factor_matches_table(policy):
    assert [staleness_factor(policy, s) for s in range(9)] == TABLE["staleness"][policy]


def test_table_covers_every_name():
    assert set(TABLE["latency"]) == set(LATENCY_MODELS)
    assert set(TABLE["link"]) == set(BANDWIDTH_MODELS)
    assert set(TABLE["staleness"]) == set(STALENESS_POLICIES)


@pytest.mark.parametrize("rule,vocabulary", [
    (lambda: latency_factors("pareto", 4, np.random.default_rng(0)), "latency model"),
    (lambda: link_factors("5g", 4, 0), "bandwidth model"),
    (lambda: staleness_factor("exponential", 1), "staleness policy"),
])
def test_unknown_name_names_the_vocabulary(rule, vocabulary):
    with pytest.raises(ValueError, match=vocabulary):
        rule()
