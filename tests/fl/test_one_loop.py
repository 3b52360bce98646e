"""One engine loop closes every window.

``FederatedEngine.run`` is the only loop that closes windows and steps the
checkpointer; a scheduler only hands it the next window.  A counter around
the one window-closing method, ``FederatedEngine._close_window``, must see
every record a run keeps: sync rounds, FedBuff flushes including the
partial final one, FedAsync arrivals, flat and hier, and a FedDRL FedBuff
run that discards its partial final buffer.  Whatever ``eval_every`` is,
the final record is evaluated.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.fl
from repro.fl.simulation import FederatedEngine
from repro.harness.config import ExperimentConfig
from repro.harness.runner import build_simulation

EVAL_EVERY = 4
# 6 rounds x K = 4: 24 jobs, so a FedBuff buffer of 7 leaves a partial
# final window of 3; every cell's last window is off the eval schedule.
BASE = dict(
    method="fedavg", scale="ci", partition="IID", n_clients=6,
    clients_per_round=4, rounds=6, eval_every=EVAL_EVERY, n_train=180,
    n_test=60, local_epochs=1, latency_model="lognormal",
)
FEDBUFF = dict(aggregation="fedbuff", buffer_size=7)
HIER = dict(topology="hier", n_edges=2)
CELLS = {
    "sync-flat": {},
    "sync-hier": HIER,
    "fedbuff-flat": FEDBUFF,
    "fedbuff-hier": {**FEDBUFF, **HIER},
    "fedasync-flat": dict(aggregation="fedbuff", buffer_size=1, server_mix=0.6,
                          max_concurrency=3),
    "fedbuff-feddrl": {**FEDBUFF, "method": "feddrl"},
}
# Updates per window.
SIZES = {
    "sync-flat": [4] * 6,
    "sync-hier": [4] * 6,
    "fedbuff-flat": [7, 7, 7, 3],
    "fedbuff-hier": [7, 7, 7, 3],
    "fedasync-flat": [1] * 24,
    "fedbuff-feddrl": [7, 7, 7],  # the agent's K is 7: the last 3 go
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_every_record_is_closed_by_the_one_window_method(name, monkeypatch):
    closed = []
    close_window = FederatedEngine._close_window

    def counted(self, *args, **kwargs):
        record = close_window(self, *args, **kwargs)
        closed.append(record)
        return record

    monkeypatch.setattr(FederatedEngine, "_close_window", counted)
    with build_simulation(ExperimentConfig(**{**BASE, **CELLS[name]})) as sim:
        records = sim.run().records
    assert [len(r.participants) for r in records] == SIZES[name]
    assert [id(r) for r in closed] == [id(r) for r in records]
    if name == "fedbuff-feddrl":
        assert sim.discarded_updates == 3
    last = records[-1]
    assert last.round_idx % EVAL_EVERY != 0
    assert [r.round_idx for r in records if r.test_accuracy is not None] == [
        r.round_idx for r in records if r.round_idx % EVAL_EVERY == 0 or r is last
    ]


def _window_calls(node: ast.AST) -> set[str]:
    """The window-closing and checkpoint calls under ``node``."""
    found = set()
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
            continue
        func = call.func
        if func.attr == "_close_window":
            found.add("close")
        elif (func.attr == "step" and isinstance(func.value, ast.Attribute)
              and func.value.attr == "checkpointer"):
            found.add("checkpoint")
    return found


def test_one_loop_closes_windows_and_steps_the_checkpointer():
    """Under repro/fl exactly one loop closes windows or steps the
    checkpointer, FederatedEngine.run's, and nothing else steps it."""
    loops, steps = [], 0
    for path in sorted(Path(repro.fl.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        steps += sum("checkpoint" in _window_calls(node) for node in ast.walk(tree)
                     if isinstance(node, ast.Call))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                loops += [
                    (path.name, func.name, frozenset(_window_calls(loop)))
                    for loop in ast.walk(func)
                    if isinstance(loop, (ast.For, ast.While)) and _window_calls(loop)
                ]
    assert loops == [("simulation.py", "run", frozenset({"close", "checkpoint"}))]
    assert steps == 1
