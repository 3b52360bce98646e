"""Boundary shims: time calls into each layer's public functions from here.

The traced rep wraps the program's public entry points (class methods and
functions imported by name into the engines) so that every call records a
span ``(row, start, end, parent)``.  A row is one layer of the program
(``nn.forward``, ``fl.wire.transmit`` ...).  A row's self time is the span's
duration minus what its child spans cover, so the rows plus the root's own
self time add up to the root's wall time exactly.

Nothing under ``src/`` is edited; a refactor that moves a call site shows up
as a row with zero calls (``stale_shims`` in the driver), not as a crash.

Single-threaded by design: the covered workloads run the serial backend or
the process backend (whose workers are separate processes).
"""

from __future__ import annotations

import importlib
from time import perf_counter

ROOT = "bench.run"

# Rows of the per-layer table, in print order.  Every row reports
# ``<row>.self_s`` and ``<row>.calls``.
SPAN_ROWS = (
    "data.batches",
    "nn.forward",
    "nn.backward",
    "nn.loss",
    "nn.optim_step",
    "nn.weights_io",
    "fl.client.local_train",
    "fl.client.loss_eval",
    "fl.eval",
    "runtime.executor.run_round",
    "runtime.clock",
    "runtime.checkpoint.step",
    "fleet.behavior",
    "fleet.materialize",
    "fl.wire.transmit",
    "fl.robust.combine",
    "fl.hierarchical.fold",
    "fl.strategies.impact_factors",
    "fl.strategies.combine",
    "drl.act",
    "drl.train",
    "obs.record",
    "obs.export",
)
# Engine glue (the sync round body, the async event loop, constructors) and
# the set-up builders are rows too, so the table reconciles; they are
# reported under their own metric names (see run.py).
ENGINE_ROW = "fl.engine"
BUILD_ROWS = (
    "harness.build_dataset",
    "harness.build_partition",
    "harness.build_clients",
    "harness.build_executor",
    "harness.build_clock",
)
# Rows whose inclusive time is reported as ``<row>.total_s``.
TOTAL_ROWS = (
    "fl.client.local_train",
    "fl.client.loss_eval",
    "fl.eval",
    "drl.train",
    "runtime.executor.run_round",
)


class SpanRecorder:
    """In-memory span log with a call stack for parent links."""

    def __init__(self) -> None:
        # One entry per call: [row, start, end, parent_index]; the entry is
        # appended on entry so children can name it, and closed on exit.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def enter(self, row: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([row, perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, row: str, fn, count: str | None = None):
        """A shim that records one span per call of ``fn``.

        ``count`` names a counter incremented once per call (taken at the
        same boundary as the span, e.g. client SGD steps).
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        # enter()/exit() inlined: this runs ~10^5 times per traced rep.
        def shim(*args, **kwargs):
            idx = len(spans)
            stack_top = stack[-1] if stack else -1
            span = [row, 0.0, None, stack_top]
            spans.append(span)
            stack.append(idx)
            if count is not None:
                counts[count] = counts.get(count, 0) + 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return shim

    def wrap_generator(self, row: str, fn):
        """A generator shim: one span per ``next()`` of ``fn``'s generator.

        The generator's body runs while its consumer waits in ``next()``;
        the consumer's own work between items belongs to the consumer.
        """
        def shim(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.enter(row)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(idx)
                yield item

        return shim


def self_times(spans) -> dict[str, dict]:
    """Reduce spans to ``{row: {"self_s", "total_s", "calls"}}``.

    ``self_s`` is duration minus the children's durations; ``total_s`` is
    the inclusive duration, counted only for spans with no ancestor of the
    same row (so a method calling its ``super()`` twin is not doubled).
    Spans still open (end ``None``) are skipped.
    """
    child_s = [0.0] * len(spans)
    for row, start, end, parent in spans:
        if end is not None and parent >= 0:
            child_s[parent] += end - start
    rows: dict[str, dict] = {}
    for i, (row, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        out = rows.setdefault(row, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        dur = end - start
        out["self_s"] += dur - child_s[i]
        out["calls"] += 1
        nested = False
        while parent >= 0:
            if spans[parent][0] == row:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            out["total_s"] += dur
    return rows


# -- what gets shimmed -------------------------------------------------------
# (module, class, method, row[, counter]) — class-level wrappers on public
# methods.  Patching the class, never an instance, keeps shims out of
# pickled state (checkpoints, process-pool initargs).
_METHODS = (
    ("repro.nn.model", "Sequential", "forward", "nn.forward"),
    ("repro.nn.model", "Sequential", "backward", "nn.backward"),
    ("repro.nn.model", "Sequential", "set_flat_weights", "nn.weights_io"),
    ("repro.nn.model", "Sequential", "get_flat_weights", "nn.weights_io"),
    ("repro.nn.losses", "SoftmaxCrossEntropy", "forward", "nn.loss"),
    ("repro.nn.losses", "SoftmaxCrossEntropy", "backward", "nn.loss"),
    ("repro.nn.losses", "MSELoss", "forward", "nn.loss"),
    ("repro.nn.losses", "MSELoss", "backward", "nn.loss"),
    # ProximalSGD.step ends in super().step(), so counting on SGD.step
    # counts every client optimiser step exactly once.
    ("repro.nn.optim", "SGD", "step", "nn.optim_step", "client_steps"),
    ("repro.nn.optim", "ProximalSGD", "step", "nn.optim_step"),
    ("repro.nn.optim", "Adam", "step", "nn.optim_step"),
    ("repro.fl.client", "Client", "local_train", "fl.client.local_train"),
    ("repro.runtime.executor", "SerialExecutor", "run_round",
     "runtime.executor.run_round"),
    ("repro.runtime.executor", "ThreadExecutor", "run_round",
     "runtime.executor.run_round"),
    ("repro.runtime.executor", "ProcessExecutor", "run_round",
     "runtime.executor.run_round"),
    ("repro.runtime.clock", "VirtualClock", "observe_round", "runtime.clock"),
    ("repro.runtime.clock", "VirtualClock", "client_time", "runtime.clock"),
    ("repro.runtime.clock", "VirtualClock", "decompose", "runtime.clock"),
    ("repro.runtime.checkpoint", "Checkpointer", "step",
     "runtime.checkpoint.step"),
    ("repro.fleet.simulator", "FleetSimulator", "is_online", "fleet.behavior"),
    ("repro.fleet.simulator", "FleetSimulator", "online_ids", "fleet.behavior"),
    ("repro.fleet.simulator", "FleetSimulator", "wait_for_online",
     "fleet.behavior"),
    ("repro.fleet.simulator", "FleetSimulator", "drops", "fleet.behavior"),
    ("repro.fleet.simulator", "FleetSimulator", "work_fraction",
     "fleet.behavior"),
    ("repro.fleet.simulator", "FleetSimulator", "batch_budget",
     "fleet.behavior"),
    ("repro.fleet.scale", "LazyClientPool", "ensure", "fleet.materialize"),
    ("repro.fleet.scale", "LazyClientPool", "release", "fleet.materialize"),
    ("repro.fleet.scale", "LazyClientPool", "__getitem__", "fleet.materialize"),
    ("repro.fleet.scale", "LazyClientPool", "__init__", "harness.build_clients"),
    ("repro.fl.wire.format", "WireFormat", "transmit", "fl.wire.transmit"),
    ("repro.fl.robust.aggregators", "RobustAggregator", "combine",
     "fl.robust.combine"),
    # FedProx inherits FedAvg.impact_factors.
    ("repro.fl.strategies.fedavg", "FedAvg", "impact_factors",
     "fl.strategies.impact_factors"),
    ("repro.fl.strategies.feddrl", "FedDRL", "impact_factors",
     "fl.strategies.impact_factors"),
    ("repro.drl.agent", "DDPGAgent", "act", "drl.act"),
    ("repro.drl.agent", "DDPGAgent", "train", "drl.train"),
    # Tracer.wall_span is a context manager: its cost lands in the
    # Tracer.span call its exit makes.
    ("repro.obs.trace", "Tracer", "span", "obs.record"),
    ("repro.obs.trace", "Tracer", "instant", "obs.record"),
    ("repro.obs.trace", "Tracer", "add_worker_spans", "obs.record"),
    ("repro.obs.trace", "Tracer", "maybe_snapshot", "obs.record"),
    # Engine glue: constructor, main loop, teardown.
    ("repro.fl.simulation", "FederatedSimulation", "__init__", ENGINE_ROW),
    ("repro.fl.simulation", "FederatedSimulation", "run", ENGINE_ROW),
    ("repro.fl.simulation", "FederatedSimulation", "close", ENGINE_ROW),
    ("repro.fl.async_.server", "AsyncFederatedServer", "__init__", ENGINE_ROW),
    ("repro.fl.async_.server", "AsyncFederatedServer", "run", ENGINE_ROW),
    ("repro.fl.async_.server", "AsyncFederatedServer", "close", ENGINE_ROW),
)
_GENERATORS = (
    ("repro.data.dataset", "ArrayDataset", "batches", "data.batches"),
)
# (module, global name, row) — functions the module imported by name; the
# row depends on the importing module (evaluate_loss is a client's loss
# pass inside repro.fl.client and the server's test pass in the engines).
_FUNCTIONS = (
    ("repro.fl.client", "evaluate_loss", "fl.client.loss_eval"),
    ("repro.fl.simulation", "evaluate_loss", "fl.eval"),
    ("repro.fl.simulation", "top1_accuracy", "fl.eval"),
    ("repro.fl.async_.server", "evaluate_loss", "fl.eval"),
    ("repro.fl.async_.server", "top1_accuracy", "fl.eval"),
    ("repro.fl.simulation", "combine_updates", "fl.strategies.combine"),
    ("repro.fl.async_.server", "combine_updates", "fl.strategies.combine"),
    ("repro.fl.simulation", "fold_edges", "fl.hierarchical.fold"),
    ("repro.fl.async_.server", "fold_edges", "fl.hierarchical.fold"),
    ("repro.harness.runner", "write_run_artifacts", "obs.export"),
    ("repro.harness.runner", "build_dataset", "harness.build_dataset"),
    ("repro.harness.runner", "build_partition", "harness.build_partition"),
    ("repro.harness.runner", "make_clients", "harness.build_clients"),
    ("repro.harness.runner", "build_executor", "harness.build_executor"),
    ("repro.harness.runner", "build_clock", "harness.build_clock"),
    ("repro.harness.runner", "build_fleet", "harness.build_clock"),
)
# Shims that would run inside forked pool workers: the process-backend
# traced rep leaves them out so worker time is not inflated (its nn.* and
# fl.client.* rows come from the serial twin).
WORKER_SIDE_ROWS = frozenset((
    "data.batches", "nn.forward", "nn.backward", "nn.loss", "nn.optim_step",
    "nn.weights_io", "fl.client.local_train", "fl.client.loss_eval",
))


def install(recorder: SpanRecorder, skip_rows=frozenset()) -> list[str]:
    """Install every shim; return the targets that no longer exist."""
    missing = []

    def patch(module_name, owner_name, attr, row, make):
        try:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            # vars(): patch only where the name is defined, so a subclass
            # that inherits a shimmed method is not wrapped twice.
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(".".join(
                p for p in (module_name, owner_name, attr) if p
            ))
            return
        if row not in skip_rows:
            setattr(owner, attr, make(original))

    for module_name, cls, attr, row, *count in _METHODS:
        patch(module_name, cls, attr, row,
              lambda fn, row=row, count=count: recorder.wrap(row, fn, *count))
    for module_name, cls, attr, row in _GENERATORS:
        patch(module_name, cls, attr, row,
              lambda fn, row=row: recorder.wrap_generator(row, fn))
    for module_name, attr, row in _FUNCTIONS:
        patch(module_name, None, attr, row,
              lambda fn, row=row: recorder.wrap(row, fn))
    return missing
