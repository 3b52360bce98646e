"""The clock's latency and link rules, the staleness policies and the
wire codecs, pinned.

``fixtures/rule_table.json`` was recorded from the class-based models
these functions replaced: each latency model's ``factors(64,
run_rng(0, STREAM_CLOCK_PROFILE))``, each bandwidth model's
``factors(64, 0)``, and each staleness policy's ``factor(s)`` for
``s = 0..8``, all at their default parameters.  The functions must give
the same floats exactly, so no run's timing or weighting moves.

Its ``wire`` rows were recorded from the class-based codecs: each codec
name x {float32, float64} x dim {1, 7, 4096, 4097, 6560} x error
feedback on/off (top-k names at two fractions), plus one row per name
whose anchor holds ``-0.0`` entries.  A row is two transmits by one
client, each recorded as the payload bytes and the sha256 prefixes of
the reconstructed weights and of the client's residual.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.fl.async_.staleness import STALENESS_POLICIES, staleness_factor
from repro.fl.client import ClientUpdate
from repro.fl.wire import WIRE_CODECS, WireFormat
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


def _sha(array) -> str | None:
    if array is None:
        return None
    return hashlib.sha256(array.dtype.str.encode() + array.tobytes()).hexdigest()[:16]


def wire_sends(codec, dtype, dim, error_feedback, topk_frac, negzero):
    """Two transmits by client 5: ``[nbytes, weights sha, residual sha]``."""
    wire = WireFormat(codec, 0, topk_frac=topk_frac, error_feedback=error_feedback)
    rng = np.random.default_rng(dim)
    anchor = rng.standard_normal(dim).astype(dtype)
    if negzero:
        anchor[::2] = -0.0
    sends = []
    for index in range(2):
        delta = rng.standard_normal(dim) * np.exp(rng.standard_normal(dim))
        update = ClientUpdate(client_id=5, weights=(anchor + delta).astype(dtype),
                              loss_before=1.0, loss_after=0.5, n_samples=10)
        out, nbytes = wire.transmit(update, index, anchor)
        sends.append([nbytes, _sha(out.weights), _sha(wire.ef.residuals.get(5))])
    return sends


def wire_grid():
    for codec in WIRE_CODECS:
        for dtype in ("float32", "float64"):
            for dim in (1, 7, 4096, 4097, 6560):
                for ef in (True, False):
                    for frac in (0.01, 0.7) if codec.startswith("topk") else (0.01,):
                        yield codec, dtype, dim, ef, frac, False
    for codec in WIRE_CODECS:
        yield codec, "float64", 7, True, 0.01, True


@pytest.mark.parametrize(
    "row", TABLE["wire"], ids=lambda r: "-".join(map(str, r["cell"])))
def test_wire_transmits_match_table(row):
    assert wire_sends(*row["cell"]) == row["sends"]


def test_table_covers_every_name():
    assert set(TABLE["latency"]) == set(LATENCY_MODELS)
    assert set(TABLE["link"]) == set(BANDWIDTH_MODELS)
    assert set(TABLE["staleness"]) == set(STALENESS_POLICIES)
    assert [tuple(r["cell"]) for r in TABLE["wire"]] == list(wire_grid())


@pytest.mark.parametrize("rule,vocabulary", [
    (lambda: latency_factors("pareto", 4, np.random.default_rng(0)), "latency model"),
    (lambda: link_factors("5g", 4, 0), "bandwidth model"),
    (lambda: staleness_factor("exponential", 1), "staleness policy"),
])
def test_unknown_name_names_the_vocabulary(rule, vocabulary):
    with pytest.raises(ValueError, match=vocabulary):
        rule()
