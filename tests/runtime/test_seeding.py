"""The seeding rule: pure, order-independent streams, one derivation."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import seeding
from repro.runtime.seeding import (
    STREAM_ATTACK,
    STREAM_AVAILABILITY,
    STREAM_BATCHES,
    STREAM_COMPLETENESS,
    STREAM_DROPOUT,
    STREAM_FORWARD,
    STREAM_LATENCY,
    STREAM_MALICIOUS,
    STREAM_PARTITION,
    client_round_rng,
    client_round_seed,
    client_static_rng,
    run_rng,
)


class TestClientRoundRng:
    def test_same_cell_same_stream(self):
        a = client_round_rng(0, 3, 7).random(8)
        b = client_round_rng(0, 3, 7).random(8)
        np.testing.assert_array_equal(a, b)

    def test_independent_of_derivation_order(self):
        """Deriving other cells first must not perturb a cell's stream."""
        fresh = client_round_rng(0, 3, 7).random(8)
        for r in range(3):
            for c in range(10):
                client_round_rng(0, r, c).random(2)
        again = client_round_rng(0, 3, 7).random(8)
        np.testing.assert_array_equal(fresh, again)

    def test_distinct_across_cells(self):
        streams = {
            (r, c): tuple(client_round_rng(0, r, c).random(4))
            for r in range(4)
            for c in range(4)
        }
        assert len(set(streams.values())) == len(streams)

    def test_distinct_across_base_seeds(self):
        a = client_round_rng(0, 1, 1).random(4)
        b = client_round_rng(1, 1, 1).random(4)
        assert not np.array_equal(a, b)

    def test_distinct_across_streams(self):
        a = client_round_rng(0, 1, 1, STREAM_BATCHES).random(4)
        b = client_round_rng(0, 1, 1, STREAM_LATENCY).random(4)
        assert not np.array_equal(a, b)

    def test_seed_sequence_spawn_key(self):
        ss = client_round_seed(5, 2, 9)
        assert ss.spawn_key == (2, 9, STREAM_BATCHES)


class TestAdversarialStreams:
    """The attack streams obey the same purity contract as the rest: every
    adversarial draw is a pure function of its cell, so attacked runs are
    bit-identical across execution backends."""

    def test_stream_tags_distinct(self):
        tags = [
            STREAM_BATCHES, STREAM_LATENCY, STREAM_FORWARD,
            STREAM_AVAILABILITY, STREAM_DROPOUT, STREAM_COMPLETENESS,
            STREAM_ATTACK, STREAM_MALICIOUS,
        ]
        assert len(set(tags)) == len(tags)

    def test_attack_stream_pure_per_cell(self):
        a = client_round_rng(0, 4, 2, STREAM_ATTACK).standard_normal(16)
        b = client_round_rng(0, 4, 2, STREAM_ATTACK).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_attack_stream_independent_of_other_streams(self):
        """Draining every other stream for the same cell must not perturb
        the attack stream (and vice versa)."""
        fresh = client_round_rng(0, 4, 2, STREAM_ATTACK).standard_normal(8)
        for stream in (STREAM_BATCHES, STREAM_LATENCY, STREAM_DROPOUT):
            client_round_rng(0, 4, 2, stream).random(32)
        again = client_round_rng(0, 4, 2, STREAM_ATTACK).standard_normal(8)
        np.testing.assert_array_equal(fresh, again)

    def test_attack_stream_distinct_from_siblings(self):
        draws = {
            stream: tuple(client_round_rng(0, 1, 1, stream).random(4))
            for stream in (STREAM_BATCHES, STREAM_DROPOUT, STREAM_ATTACK)
        }
        assert len(set(draws.values())) == len(draws)

    def test_malicious_stream_is_static(self):
        """The malicious set has no time coordinate: the static two-element
        spawn key cannot collide with any (round, client, stream) cell."""
        a = client_static_rng(0, 0, STREAM_MALICIOUS).random(8)
        b = client_static_rng(0, 0, STREAM_MALICIOUS).random(8)
        np.testing.assert_array_equal(a, b)
        timed = client_round_rng(0, 0, 0, STREAM_MALICIOUS).random(8)
        assert not np.array_equal(a, timed)

    def test_malicious_stream_distinct_from_static_siblings(self):
        a = client_static_rng(0, 3, STREAM_MALICIOUS).random(4)
        b = client_static_rng(0, 3, STREAM_ATTACK).random(4)
        c = client_static_rng(0, 3, STREAM_AVAILABILITY).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_malicious_draw_varies_with_seed(self):
        draws = {
            tuple(client_static_rng(s, 0, STREAM_MALICIOUS).random(4))
            for s in range(6)
        }
        assert len(draws) == 6


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
# The only modules that may build a generator: the rule and its columnar twin.
RNG_MODULES = {SRC / "runtime" / "seeding.py", SRC / "runtime" / "vecrng.py"}


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _mentions_seed(node: ast.expr) -> bool:
    name = getattr(node, "attr", None) or getattr(node, "id", None)
    return isinstance(name, str) and name.lower().endswith("seed")


class TestOneRule:
    """Every generator derives from repro.runtime.seeding; nothing shifts
    a seed to pick a stream."""

    def _sites(self, predicate) -> list[str]:
        sites = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if predicate(path, node):
                    sites.append(f"{path.relative_to(SRC)}:{node.lineno}")
        return sites

    def test_no_generator_built_outside_the_seeding_modules(self):
        def builds_rng(path, node):
            return (path not in RNG_MODULES and isinstance(node, ast.Call)
                    and _called_name(node) in ("default_rng", "SeedSequence"))

        assert self._sites(builds_rng) == []

    def test_no_seed_offsets(self):
        def offsets_seed(path, node):
            return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                    and (_mentions_seed(node.left) or _mentions_seed(node.right)))

        assert self._sites(offsets_seed) == []


TAGS = [value for name, value in vars(seeding).items()
            if name.startswith("STREAM_")]


class TestKeyFamilies:
    """Run-level ``(tag,)``, static ``(client, tag)`` and cell ``(round,
    client, tag)`` keys never derive the same stream."""

    def test_no_two_tags_share_a_value(self):
        assert len(set(TAGS)) == len(TAGS) >= 19

    def test_run_rng_key_is_one_element(self):
        for tag in TAGS:
            assert run_rng(5, tag).bit_generator.seed_seq.spawn_key == (tag,)

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_families_are_disjoint(self, seed):
        def state(key):
            return tuple(np.random.SeedSequence(seed, spawn_key=key).generate_state(4))

        keys = [(t,) for t in TAGS]
        keys += [(c, t) for c in range(24) for t in TAGS]
        keys += [(r, c, t) for r in range(6) for c in range(24) for t in TAGS]
        assert len({state(k) for k in keys}) == len(keys)

    def test_a_two_element_run_key_would_alias_a_static_trait(self):
        """Why run-level keys are one element long: ``(12, 3)`` is client
        12's STREAM_AVAILABILITY trait, and the run-level STREAM_PARTITION
        (12) stream is not it."""
        assert STREAM_PARTITION == 12 and STREAM_AVAILABILITY == 3
        aliased = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(12, 3)))
        trait = client_static_rng(0, 12, STREAM_AVAILABILITY)
        assert aliased.random() == trait.random()
        assert run_rng(0, STREAM_PARTITION).random() != client_static_rng(
            0, 12, STREAM_AVAILABILITY).random()
