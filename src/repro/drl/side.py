"""The DDPG agent's training passes in a side process (Algorithm 1).

The paper trains the FedDRL agent on a side thread, concurrently with the
next round's client work.  A Python thread would hold the GIL against the
round, so :class:`SideTrainer` forks a helper process instead, at the first
pass that has work to do.  The helper keeps a replica of the agent and
shares one block of memory with the parent, laid out as the arrays a pass
leaves live (:func:`pass_arrays`): each network's value arena, then both
Adams' moments.

:meth:`SideTrainer.start` sends the transitions observed since the last
pass and the agent's rng state, and returns at once.
:meth:`SideTrainer.join` waits for the helper, copies the block into the
parent's agent and restores the rng state, ``total_updates`` and each
Adam's step count, so the parent's agent holds the bits an inline
``agent.train()`` would have left (its dead gradient arenas aside).
Between the two calls the parent must leave the agent's networks,
optimisers, rng and buffer alone; transitions go in through
:meth:`SideTrainer.observe` after the join.

The helper runs only where the code can observe that it is safe and pays
(:func:`side_process_available`).  Everywhere else a pass calls
``agent.train()`` inline in :meth:`~SideTrainer.start`.  A helper that
dies costs nothing but time: the parent's agent is untouched until a join
succeeds, so the parent reruns the lost pass inline, with the same bits,
and stays inline from then on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import weakref

import numpy as np

from repro.data import shm
from repro.drl.agent import DDPGAgent, TrainStats

#: Seconds between the helper's checks that its parent is still alive.
PARENT_POLL_S = 1.0
#: The helper's process name (``ps`` / ``pgrep``), where the OS lets us set it.
HELPER_NAME = "feddrl-trainer"


def _threads() -> int:
    """Threads in this process, native ones included where ``/proc`` lists
    them (a BLAS pool's workers are invisible to :mod:`threading`)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def side_process_available() -> bool:
    """Whether a pass may run in a forked helper: the ``fork`` start
    method exists, this process may run on at least two CPUs (on one, the
    helper only adds copies and switches), and it runs no other thread.
    A Python thread makes forking unsafe (the child can deadlock on a lock
    it held; Python 3.12 warns), and the thread and process backends keep
    their pools' threads alive.  A native pool — a
    multi-threaded BLAS — would be duplicated in the helper, and the two
    pools' spinning workers starve each other: pin BLAS to one thread
    (``OPENBLAS_NUM_THREADS=1``, as the benchmarks do) to train on the
    side."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and affinity is not None
        and len(affinity(0)) >= 2
        and _threads() == 1
    )


def pass_arrays(agent: DDPGAgent) -> list[np.ndarray]:
    """The arrays a training pass leaves live, in the shared block's order
    (not the gradient arenas: every backward overwrites them)."""
    nets = (agent.policy_main, agent.policy_target, agent.value_main, agent.value_target)
    arrays = [net.flat_state() for net in nets]
    for opt in (agent.policy_opt, agent.value_opt):
        arrays += [opt._m, opt._v]
    return arrays


def _bounds(arrays: list[np.ndarray]) -> list[int]:
    return np.cumsum([0] + [a.size for a in arrays]).tolist()


def _serve(conn, parent_end, agent: DDPGAgent, name: str, size: int, dtype: str,
           parent_pid: int) -> None:
    """The helper: one training pass per message until the parent goes."""
    parent_end.close()
    # The parent owns interrupts: it kills the helper on its way out.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        with open("/proc/self/comm", "w") as fh:
            fh.write(HELPER_NAME)
    except OSError:
        pass
    _block, flat = shm.attach_array(name, (size,), dtype)
    arrays = pass_arrays(agent)
    bounds = _bounds(arrays)
    while True:
        while not conn.poll(PARENT_POLL_S):
            if os.getppid() != parent_pid:
                return
        try:
            transitions, rng_state = conn.recv()
        except EOFError:
            return
        for transition in transitions:
            agent.observe(*transition)
        agent.rng.bit_generator.state = rng_state
        stats = agent.train()
        for array, lo, hi in zip(arrays, bounds, bounds[1:]):
            flat[lo:hi] = array
        counters = (agent.rng.bit_generator.state, agent.total_updates,
                    agent.policy_opt._t, agent.value_opt._t)
        try:
            conn.send((stats, counters))
        except OSError:  # the parent has gone
            return


def _shutdown(owner_pid: int, proc, conn, blocks: shm.SharedMemoryPool) -> None:
    """Kill the helper and unlink its block, in the process that forked it."""
    if os.getpid() != owner_pid:
        return
    if proc.pid is not None:
        proc.kill()
        proc.join()
    conn.close()
    blocks.close()


class _Helper:
    """One forked helper process and the block it writes."""

    def __init__(self, agent: DDPGAgent) -> None:
        arrays = pass_arrays(agent)
        dtype = arrays[0].dtype  # the networks' dtype, shared by the moments
        self._bounds = _bounds(arrays)
        size = self._bounds[-1]
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        block, self._flat = shm.create_array((size,), dtype)
        blocks = shm.SharedMemoryPool()
        blocks.adopt([block])
        self._proc = ctx.Process(
            target=_serve, name=HELPER_NAME, daemon=True,
            args=(child, self._conn, agent, block.name, size, dtype.str, os.getpid()),
        )
        # Runs once: on close(), when the helper is garbage, or at exit.
        self.close = weakref.finalize(
            self, _shutdown, os.getpid(), self._proc, self._conn, blocks
        )
        try:
            self._proc.start()
        finally:
            child.close()

    def send(self, transitions: list[tuple], rng_state: dict) -> None:
        self._conn.send((transitions, rng_state))

    def receive(self, agent: DDPGAgent) -> TrainStats | None:
        """Wait for the pass; copy its arrays and counters into ``agent``."""
        stats, (rng_state, updates, policy_t, value_t) = self._conn.recv()
        for array, lo, hi in zip(pass_arrays(agent), self._bounds, self._bounds[1:]):
            np.copyto(array, self._flat[lo:hi])
        agent.rng.bit_generator.state = rng_state
        agent.total_updates = updates
        agent.policy_opt._t, agent.value_opt._t = policy_t, value_t
        return stats


class SideTrainer:
    """Runs an agent's training passes in a helper process (module doc)."""

    def __init__(self, agent: DDPGAgent) -> None:
        self.agent = agent
        #: A pass was started and not yet joined.
        self.busy = False
        #: A helper died: every later pass of this trainer runs inline.
        self.inline = False
        self._helper: _Helper | None = None
        self._remote = False  # the running pass is the helper's
        self._result: TrainStats | None = None
        self._unsent: list[tuple] = []

    def observe(self, state, action, reward: float, next_state) -> None:
        """Store one transition in the agent, and queue it for the helper's
        replica (which holds everything observed before it was forked)."""
        self.agent.observe(state, action, reward, next_state)
        if self._helper is not None:
            self._unsent.append((state, action, reward, next_state))

    def start(self) -> None:
        """Begin one training pass; :meth:`join` returns its stats."""
        if self.busy:
            raise RuntimeError("join the running training pass before starting another")
        self.busy = True
        if (self._helper is None and not self.inline and self.agent.can_train()
                and side_process_available()):
            try:
                self._helper = _Helper(self.agent)
            except OSError:  # no block or no fork: this pass runs inline
                self.inline = True
            self._unsent = []
        if self._helper is not None:
            try:
                self._helper.send(self._unsent, self.agent.rng.bit_generator.state)
            except OSError:
                self._lose_helper()
            else:
                self._unsent = []
                self._remote = True
                return
        self._result = self.agent.train()

    def join(self) -> TrainStats | None:
        """Finish the started pass and return its stats (None: the buffer
        was not yet sufficient)."""
        if not self.busy:
            raise RuntimeError("no training pass to join")
        self.busy = False
        if not self._remote:
            result, self._result = self._result, None
            return result
        self._remote = False
        try:
            return self._helper.receive(self.agent)
        except (EOFError, OSError):
            # The agent is as the pass found it: rerun the pass here.
            self._lose_helper()
            return self.agent.train()

    def _lose_helper(self) -> None:
        self._helper.close()
        self._helper = None
        self._unsent = []
        self.inline = True

    def close(self) -> None:
        """Join a running pass (its stats are dropped), then stop the
        helper and unlink its block; idempotent.  A later :meth:`start`
        forks a new helper."""
        if self.busy:
            self.join()
        if self._helper is not None:
            self._helper.close()
            self._helper = None
            self._unsent = []
