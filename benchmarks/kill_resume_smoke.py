#!/usr/bin/env python
"""Kill-and-resume smoke: SIGKILL a checkpointed run, resume, compare hashes.

The acceptance check for the kill-safe checkpoint layer, as a standalone
script CI can run:

1. run the experiment uninterrupted and record its History hash;
2. run it again with ``--checkpoint``, letting a child process SIGKILL
   itself after ``--kill-after`` snapshot saves (a real ``SIGKILL`` —
   no cleanup handlers, no atexit, exactly what a preempted node does);
3. ``--resume`` from the surviving snapshot, checkpointing to the same
   path the way a preempted node restarts, compare hashes and check that
   the final snapshot loads.

Equal hashes mean the resumed training trajectory is bit-identical to
never having been killed.  Three cells: the synchronous barrier loop, the
event-driven FedBuff engine, and FedBuff with everything on
(``benchmarks/e2e``'s ``fedbuff_full`` in miniature), whose snapshot
carries live error-feedback residuals and the dispatcher's idle column.
That cell also runs uninterrupted with ``--checkpoint`` — after each save
its residuals are read-only views of the array file — and must give the
hash of the run without one.  It is killed at a second point too: inside a save, after the new
residuals reached the array file and were fsync'd but before the head's
``os.replace`` — the crash window of the two-file snapshot, which must
resume from the previous head.  At both kill points the resumed run's
first save must continue the array file it inherited (its residuals are
mapped from there) instead of writing a new generation.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import run_experiment
from repro.runtime.checkpoint import CheckpointError, Checkpointer, load_snapshot

# Runs inside the victim process: a checkpointed experiment that SIGKILLs
# its own process at a kill point of the Nth save — after it completed
# ("after-save"), or after its array file's fsync but before the head's
# os.replace ("before-replace"), leaving the previous head in charge.
VICTIM = textwrap.dedent("""
    import json, os, signal, sys
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import run_experiment
    from repro.runtime.checkpoint import Checkpointer

    cfg_kw = json.loads(sys.argv[1])
    kill_after = int(sys.argv[2])
    point = sys.argv[3]
    die = lambda: os.kill(os.getpid(), signal.SIGKILL)
    if point == "after-save":
        original_step = Checkpointer.step

        def step_then_die(self, state_fn):
            saved = original_step(self, state_fn)
            if self.saves >= kill_after:
                die()
            return saved

        Checkpointer.step = step_then_die
    else:
        original_replace = os.replace
        heads = [0]

        def replace_or_die(src, dst):
            if dst == cfg_kw["checkpoint_path"]:
                heads[0] += 1
                if heads[0] >= kill_after:
                    die()
            return original_replace(src, dst)

        os.replace = replace_or_die
    run_experiment(ExperimentConfig(**cfg_kw))
    sys.exit(99)  # unreachable: the SIGKILL fires first
""")


FEDBUFF = dict(aggregation="fedbuff", latency_model="lognormal", buffer_size=4)
CELLS = {
    "sync": {},
    "fedbuff": FEDBUFF,
    "fedbuff-full": dict(
        FEDBUFF, n_clients=24, partition="IID",
        availability="markov", dropout_prob=0.05, topology="hier", n_edges=3,
        codec="topk+qsgd8", topk_frac=0.05, bandwidth_model="lognormal",
        aggregator="krum", server_mix="delta",
    ),
}
KILL_POINTS = {"sync": ("after-save",), "fedbuff": ("after-save",),
               "fedbuff-full": ("after-save", "before-replace")}


def base_config(cell: str, rounds: int) -> dict:
    cfg = dict(
        method="fedavg", scale="ci", n_clients=8, clients_per_round=8,
        seed=0, rounds=rounds,
    )
    cfg.update(CELLS[cell])
    return cfg


def smoke_checkpointed(cell: str, rounds: int, workdir: str,
                       clean_hash: str) -> bool:
    """Run ``cell`` uninterrupted with ``--checkpoint``: same hash as without."""
    ck = os.path.join(workdir, f"{cell}-uninterrupted.ckpt")
    run = run_experiment(ExperimentConfig(
        **dict(base_config(cell, rounds), checkpoint_path=ck)))
    run_hash = history_digest(run.history)
    identical = run_hash == clean_hash
    print(f"  {cell}: uninterrupted with --checkpoint "
          f"({run.extra['checkpoint']['saves']} saves) -> "
          f"{'bit-identical' if identical else 'DIVERGED'} "
          f"({run_hash[:12]} vs {clean_hash[:12]})")
    return identical


def smoke_engine(cell: str, rounds: int, kill_after: int, point: str,
                 workdir: str, clean_hash: str) -> bool:
    ck = os.path.join(workdir, f"{cell}-{point}.ckpt")
    victim_cfg = dict(base_config(cell, rounds), checkpoint_path=ck)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", VICTIM, json.dumps(victim_cfg), str(kill_after),
         point],
        env=env, capture_output=True, timeout=600,
    )
    if proc.returncode != -signal.SIGKILL:
        print(f"  FAIL: victim exited {proc.returncode}, expected SIGKILL "
              f"({proc.stderr.decode().strip()[-200:]})")
        return False
    if not os.path.exists(ck):
        print("  FAIL: no snapshot survived the kill")
        return False
    in_flight = glob.glob(os.path.join(workdir, f".ckpt-{os.path.basename(ck)}-*.tmp"))
    if point == "before-replace" and not in_flight:
        print("  FAIL: the kill missed the save's fsync'd, unreplaced head")
        return False

    def array_files():
        return sorted(os.path.basename(p)
                      for p in glob.glob(glob.escape(ck) + ".arrays-*"))

    generations = []  # the array files around the resumed run's first save
    original_save = Checkpointer.save

    def save_and_look(self, state):
        before = array_files()
        written = original_save(self, state)
        if not generations:
            generations.extend([before, array_files()])
        return written

    Checkpointer.save = save_and_look
    try:
        resumed = run_experiment(ExperimentConfig(
            **dict(victim_cfg, resume=ck)))
    finally:
        Checkpointer.save = original_save
    resumed_hash = history_digest(resumed.history)
    identical = resumed_hash == clean_hash
    verdict = "bit-identical" if identical else "DIVERGED"
    print(f"  {cell}: killed at {point} of save {kill_after}, resumed -> "
          f"{verdict} ({resumed_hash[:12]} vs {clean_hash[:12]})")
    try:
        load_snapshot(ck)
    except CheckpointError as exc:
        print(f"  FAIL: the final snapshot does not load: {exc}")
        return False
    if cell == "fedbuff-full":
        before, after = generations
        continued = len(before) == 1 and after == before
        print(f"    first save after the resume: {before} -> {after} "
              f"({'continued' if continued else 'NEW GENERATION'})")
        identical = identical and continued
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--kill-after", type=int, default=3,
                        help="snapshot saves before the victim SIGKILLs itself")
    args = parser.parse_args(argv)

    ok = True
    with tempfile.TemporaryDirectory(prefix="kill-resume-") as workdir:
        for cell in CELLS:
            clean = run_experiment(ExperimentConfig(**base_config(cell, args.rounds)))
            clean_hash = history_digest(clean.history)
            if cell == "fedbuff-full":
                ok = smoke_checkpointed(cell, args.rounds, workdir, clean_hash) and ok
            for point in KILL_POINTS[cell]:
                ok = smoke_engine(cell, args.rounds, args.kill_after, point,
                                  workdir, clean_hash) and ok
    print("kill-and-resume smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
