"""Harness-side resume validation: does this snapshot fit this config?

The engine state in a snapshot is only meaningful for the experiment
that produced it — same dataset, partition, seed, model, fleet, attack
surface.  A handful of fields are deliberately *excluded* from the
fingerprint because changing them between save and resume is exactly
the point of checkpointing:

* ``rounds`` — resume and run further (extend a study), never below
  the work the snapshot has done;
* ``backend`` / ``workers`` — resume on a different executor (all
  backends are bit-identical, so this is safe by construction);
* ``trace`` / ``metrics_interval`` — observability is overlay-only;
* fault/retry knobs — a crashed faulty run may be resumed fault-free
  (recovery is bit-identical either way);
* the checkpoint/resume paths themselves.
"""

from __future__ import annotations

import dataclasses

from repro.harness.config import ExperimentConfig

# Fields a resumed run may legitimately change.
EXCLUDED_FROM_FINGERPRINT = frozenset({
    "rounds", "backend", "workers", "trace", "metrics_interval",
    "checkpoint_path", "checkpoint_every", "resume",
    "fault_crash_prob", "fault_exception_prob", "fault_hang_prob",
    "fault_hang_s", "task_timeout_s", "max_retries",
})


def checkpoint_fingerprint(cfg: ExperimentConfig) -> dict:
    """The config fields that must match between save and resume."""
    fields = dataclasses.asdict(cfg)
    return {k: v for k, v in fields.items() if k not in EXCLUDED_FROM_FINGERPRINT}


def validate_resume(snapshot: dict, cfg: ExperimentConfig) -> dict:
    """Check a loaded snapshot against ``cfg``; return its state dict.

    Raises ``ValueError`` naming every mismatched fingerprint field, so a
    wrong-experiment resume fails loudly instead of silently diverging, and
    when ``cfg`` budgets less work than the snapshot has already done.
    """
    want = checkpoint_fingerprint(cfg)
    have = snapshot.get("meta", {}).get("fingerprint")
    if have is None:
        raise ValueError("snapshot carries no config fingerprint; refusing to resume")
    mismatched = sorted(
        k for k in set(want) | set(have) if want.get(k) != have.get(k)
    )
    if mismatched:
        detail = ", ".join(
            f"{k}: snapshot={have.get(k)!r} config={want.get(k)!r}"
            for k in mismatched
        )
        raise ValueError(f"snapshot does not match this experiment ({detail})")
    state = snapshot["state"]
    want_engine = "sync" if cfg.aggregation == "sync" else "async"
    if state.get("engine") != want_engine:
        raise ValueError(
            f"snapshot holds {state.get('engine')!r} engine state but this "
            f"config runs the {want_engine!r} engine"
        )
    if want_engine == "sync":
        from repro.harness.runner import singleset_run  # runner imports this module
        run = singleset_run(cfg) if cfg.method == "singleset" else cfg  # epochs
        done, budget = state["next_round"], run.resolved("rounds")
        what = f"run {done} rounds, more than this config's {budget}"
    else:
        done = state["loop"]["next_job"]
        budget = cfg.resolved("rounds") * cfg.resolved("clients_per_round")
        what = f"dispatched {done} jobs, more than --rounds x --per-round = {budget}"
    if budget < done:
        raise ValueError(f"the snapshot has already {what}")
    return state
