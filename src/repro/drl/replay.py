"""Experience replay with temporal-difference prioritised sampling.

Algorithm 1 of the paper assigns each stored experience a priority equal
to its absolute temporal difference ``|r + gamma * Q(s', a) - Q(s, a)|``,
sorts the buffer by priority, and samples batches preferring high-priority
experiences.  We implement this as rank-based prioritised sampling
(probability proportional to ``1 / rank``), which is robust to the scale
of TD errors: :meth:`ReplayBuffer.rank_probabilities` ranks once per
training pass and :meth:`ReplayBuffer.sample_ranked` draws each batch.
Offline training of a two-stage main agent samples uniformly
(:meth:`ReplayBuffer.sample_uniform`).

The buffer is a columnar ring: one array per field of ``(s, a, r, s')``
in the buffer's dtype (the agent's), rows addressed by slot.  A batch is
one fancy index per column and :meth:`ReplayBuffer.snapshot` is a view of
the filled rows.  The list of :class:`Experience` objects it replaced is
the test oracle in ``tests/drl/reference_replay.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Experience:
    """One transition ``(s, a, r, s')`` collected by the server agent."""

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        object.__setattr__(self, "action", np.asarray(self.action, dtype=float))
        object.__setattr__(self, "next_state", np.asarray(self.next_state, dtype=float))
        if self.state.shape != self.next_state.shape:
            raise ValueError("state and next_state must have the same shape")
        if not np.isfinite(self.reward):
            raise ValueError("reward must be finite")


class ReplayBuffer:
    """Fixed-capacity FIFO ring of transitions, stored column by column.

    Slots fill in insertion order; once ``capacity`` transitions are held,
    each add overwrites the slot under the cursor, which then advances —
    the oldest transition goes first.  The columns grow geometrically up
    to ``capacity`` rows as transitions arrive.
    """

    def __init__(self, capacity: int = 100_000, dtype=np.float64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        # (states, actions, rewards, next_states); shaped by the first add.
        self._columns: tuple[np.ndarray, ...] = ()
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, exp: Experience) -> None:
        """Insert, overwriting the oldest entry once at capacity."""
        if not self._columns:
            self._columns = tuple(
                np.empty((0, *np.shape(v)), self.dtype)
                for v in (exp.state, exp.action, exp.reward, exp.next_state)
            )
        elif (exp.state.shape != self._columns[0].shape[1:]
              or exp.action.shape != self._columns[1].shape[1:]):
            raise ValueError("transition shape differs from the buffer's")
        if self._size < self.capacity:
            slot = self._size
            if slot == self._columns[0].shape[0]:
                self._grow()
            self._size += 1
        else:
            slot = self._cursor
            self._cursor = (self._cursor + 1) % self.capacity
        for column, value in zip(
            self._columns, (exp.state, exp.action, exp.reward, exp.next_state)
        ):
            column[slot] = value

    def _grow(self) -> None:
        rows = min(self.capacity, max(2 * self._columns[0].shape[0], 16))
        grown = []
        for column in self._columns:
            new = np.empty((rows, *column.shape[1:]), self.dtype)
            new[: self._size] = column[: self._size]
            grown.append(new)
        self._columns = tuple(grown)

    def extend(self, experiences: list[Experience]) -> None:
        for exp in experiences:
            self.add(exp)

    def merge(self, other: "ReplayBuffer") -> None:
        """Absorb another buffer in its slot order (stage 2 of two-stage
        training merges the per-worker buffers into the centralised one)."""
        self.extend(other.items())

    # -- batched views -------------------------------------------------------
    def _gather(self, idx: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(column[idx] for column in self._columns)

    def sample_uniform(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniform sampling (offline training of a two-stage main agent)."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        return self._gather(rng.integers(0, self._size, size=batch_size))

    def rank_probabilities(self, priorities: np.ndarray) -> np.ndarray:
        """Rank-based sampling probabilities (Algorithm 1, lines 1–2).

        ``priorities`` must align with :meth:`snapshot` order.  Items are
        ranked by descending priority and weighted ``1 / rank``.
        """
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        priorities = np.asarray(priorities, dtype=float)
        if priorities.shape[0] != self._size:
            raise ValueError("priorities length does not match buffer size")
        order = np.argsort(-priorities, kind="stable")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(1, len(order) + 1)
        probs = 1.0 / ranks
        return probs / probs.sum()

    def sample_ranked(
        self, batch_size: int, probs: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw a batch with :meth:`rank_probabilities`' ``probs``."""
        return self._gather(rng.choice(self._size, size=batch_size, p=probs))

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views of the filled rows, in slot order (for priority
        computation)."""
        if not self._size:
            raise ValueError("buffer is empty")
        views = tuple(column[: self._size] for column in self._columns)
        for view in views:
            view.flags.writeable = False
        return views

    def items(self) -> list[Experience]:
        """The stored transitions as :class:`Experience` copies, in slot order."""
        if not self._size:
            return []
        s, a, r, s2 = self.snapshot()
        return [
            Experience(s[i].copy(), a[i].copy(), float(r[i]), s2[i].copy())
            for i in range(self._size)
        ]
