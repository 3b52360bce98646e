"""Run-level streams are independent, within a run and across seeds.

Each test spies on the generator one consumer receives while
``build_simulation`` builds a run, and compares initial PCG64 states.
Before every generator derived from ``repro.runtime.seeding``, model init
and the mnist stand-in read one bitstream, seed s + 5's dataset was seed
s's partition draw, and seed s + 13's model init was seed s's alpha
sampler.
"""

from __future__ import annotations

import pytest

import repro.data.synthetic as synthetic
from repro.harness import runner
from repro.harness.config import ExperimentConfig
from repro.harness.runner import build_simulation
from repro.nn.dtypes import default_dtype

CFG = dict(scale="ci", dataset="mnist", partition="CE", n_clients=6,
           clients_per_round=4, rounds=1)


def _state(rng) -> tuple:
    inner = rng.bit_generator.state["state"]
    return inner["state"], inner["inc"]


def run_streams(monkeypatch, **overrides) -> dict[str, tuple]:
    """Initial states of the model-init, dataset, partition and (FedDRL)
    alpha generators of one run as ``build_simulation`` builds it."""
    seen: dict[str, tuple] = {}
    make_dataset = synthetic.make_synthetic_dataset
    make_factory = runner.build_model_factory
    partition = runner.build_partition

    def dataset_spy(spec, n_train, n_test, rng):
        seen.setdefault("dataset", _state(rng))
        return make_dataset(spec, n_train, n_test, rng)

    def factory_spy(cfg, train_set):
        factory = make_factory(cfg, train_set)

        def build(rng):
            seen.setdefault("model_init", _state(rng))
            return factory(rng)

        return build

    def partition_spy(cfg, labels, rng):
        seen["partition"] = _state(rng)
        return partition(cfg, labels, rng)

    monkeypatch.setattr(synthetic, "make_synthetic_dataset", dataset_spy)
    monkeypatch.setattr(runner, "build_model_factory", factory_spy)
    monkeypatch.setattr(runner, "build_partition", partition_spy)
    cfg = ExperimentConfig(**{**CFG, **overrides})
    with default_dtype(cfg.dtype), build_simulation(cfg) as sim:
        if cfg.method == "feddrl":
            seen["alpha"] = _state(sim.strategy.rng)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("seed", [0, 3])
def test_model_init_is_not_the_dataset_stream(monkeypatch, seed):
    streams = run_streams(monkeypatch, seed=seed)
    assert streams["model_init"] != streams["dataset"]


@pytest.mark.parametrize("seed", [0, 3])
def test_shifted_seed_dataset_is_not_the_partition_draw(monkeypatch, seed):
    shifted = run_streams(monkeypatch, seed=seed + 5)
    assert shifted["dataset"] != run_streams(monkeypatch, seed=seed)["partition"]


@pytest.mark.parametrize("seed", [0, 3])
def test_shifted_seed_model_init_is_not_the_alpha_sampler(monkeypatch, seed):
    alpha = run_streams(monkeypatch, seed=seed, method="feddrl")["alpha"]
    assert run_streams(monkeypatch, seed=seed + 13)["model_init"] != alpha


def test_every_run_stream_is_distinct(monkeypatch):
    streams = run_streams(monkeypatch, seed=0, method="feddrl")
    assert len(set(streams.values())) == len(streams) == 4
