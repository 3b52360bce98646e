"""The list-backed replay buffer, kept as the test reference.

``repro.drl.replay.ReplayBuffer`` stores transitions as a columnar ring:
one array per field, rows addressed by slot, batches gathered with one
fancy index per column.  The buffer it replaced — a Python list of
:class:`~repro.drl.replay.Experience` objects, stacked on every sample —
lives on here, unchanged, as the oracle: for any sequence of adds the ring
must give the same slot order, the same draws from the same generator
state and ``array_equal`` batches.
"""

from __future__ import annotations

import numpy as np

from repro.drl.replay import Experience


class ReplayBuffer:
    """Fixed-capacity FIFO buffer of :class:`Experience` items."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Experience] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def add(self, exp: Experience) -> None:
        """Insert, overwriting the oldest entry once at capacity."""
        if len(self._items) < self.capacity:
            self._items.append(exp)
        else:
            self._items[self._cursor] = exp
            self._cursor = (self._cursor + 1) % self.capacity

    def extend(self, experiences: list[Experience]) -> None:
        for exp in experiences:
            self.add(exp)

    def merge(self, other: "ReplayBuffer") -> None:
        self.extend(other._items)

    def _stack(self, batch: list[Experience]) -> tuple[np.ndarray, ...]:
        states = np.stack([e.state for e in batch])
        actions = np.stack([e.action for e in batch])
        rewards = np.array([e.reward for e in batch])
        next_states = np.stack([e.next_state for e in batch])
        return states, actions, rewards, next_states

    def sample_uniform(self, batch_size: int, rng: np.random.Generator):
        if not self._items:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self._items), size=batch_size)
        return self._stack([self._items[i] for i in idx])

    def sample_prioritized(self, batch_size: int, priorities: np.ndarray,
                           rng: np.random.Generator):
        if not self._items:
            raise ValueError("cannot sample from an empty buffer")
        priorities = np.asarray(priorities, dtype=float)
        if priorities.shape[0] != len(self._items):
            raise ValueError("priorities length does not match buffer size")
        order = np.argsort(-priorities, kind="stable")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(1, len(order) + 1)
        probs = 1.0 / ranks
        probs = probs / probs.sum()
        idx = rng.choice(len(self._items), size=batch_size, p=probs)
        return self._stack([self._items[i] for i in idx])

    def snapshot(self):
        if not self._items:
            raise ValueError("buffer is empty")
        return self._stack(self._items)

    def items(self) -> list[Experience]:
        return list(self._items)
