"""One loop for every paper experiment: a product of labelled config axes.

An axis maps each label to its config overrides: ``axis("seed", range(5))``
or arms such as ``{"basic": {"drl_pretrain_rounds": 0}, "two_stage": ...}``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from operator import attrgetter
from typing import Any

from repro.harness.config import ExperimentConfig
from repro.harness.runner import ExperimentResult, run_experiment

Axis = Mapping[Any, Mapping[str, Any]]

best_accuracy: Callable[[ExperimentResult], float] = attrgetter("best_accuracy")


def axis(field: str, values: Iterable) -> Axis:
    """Sweep one config field; each value is its own label."""
    return {value: {field: value} for value in values}


def paper_cell(
    dataset: str, partition: str, n_clients: int, scale: str, seed: int, **overrides
) -> ExperimentConfig:
    """A cell of the paper's evaluation: K = min(10, N) clients per round."""
    return ExperimentConfig(
        dataset=dataset, partition=partition, n_clients=n_clients,
        clients_per_round=min(10, n_clients), scale=scale, seed=seed, **overrides,
    )


def grid(
    base: ExperimentConfig,
    axes: Sequence[Axis],
    measure: Callable[[ExperimentResult], Any] = best_accuracy,
) -> Any:
    """``{label_1: {label_2: ... measure(run_experiment(cell))}}`` over the
    product of ``axes`` (keys in axis order); ``cell`` is ``base.with_`` its
    labels' overrides.  Every cell is built, so validated, before any runs.
    """
    def build(rest: Sequence[Axis], overrides: dict) -> Any:
        if not rest:
            return base.with_(**overrides)
        return {label: build(rest[1:], {**overrides, **arm}) for label, arm in rest[0].items()}

    def run(node: Any) -> Any:
        if isinstance(node, ExperimentConfig):
            return measure(run_experiment(node))
        return {label: run(child) for label, child in node.items()}

    return run(build(axes, {}))
