"""Run manifests: everything needed to reproduce a trace's experiment.

A manifest rides in the header line of every run's trace
(:func:`write_run_artifacts`) and records the *resolved* experiment
configuration (every scale-preset fallback filled in), the named seed
streams the run can draw from, the compute dtype, the execution
backend, package versions, and the repository's git SHA when available.
Any traced result is then reproducible from its manifest alone:
``python -m repro`` flags map 1:1 onto the recorded config.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

import repro
from repro.runtime import seeding

MANIFEST_SCHEMA = "repro-manifest/v2"


def seed_stream_names() -> dict[str, int]:
    """The named per-cell RNG streams from :mod:`repro.runtime.seeding`."""
    return {
        name: getattr(seeding, name)
        for name in sorted(dir(seeding))
        if name.startswith("STREAM_")
    }


def git_sha(repo_dir: str | Path | None = None) -> str | None:
    """The current git commit, or None outside a work tree / without git."""
    if repo_dir is None:
        repo_dir = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_dir), capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def build_manifest(config=None) -> dict:
    """Assemble the manifest dict for one run.

    ``config`` is an :class:`~repro.harness.config.ExperimentConfig` (or
    None for library-level runs without one).
    """
    manifest: dict = {
        "schema": MANIFEST_SCHEMA,
        "versions": {
            "repro": repro.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "platform": {
            "system": platform.system(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "git_sha": git_sha(),
        "seed_streams": seed_stream_names(),
    }
    if config is not None:
        resolved = dataclasses.asdict(config)
        # Fill the scale-preset fallbacks so the manifest stands alone.
        for name in ("rounds", "n_train", "n_test", "local_epochs",
                     "batch_size", "model", "eval_every"):
            resolved[name] = config.resolved(name)
        resolved["effective_model"] = config.effective_model
        manifest["config"] = resolved
        manifest["seed"] = config.seed
        manifest["dtype"] = config.dtype
        manifest["backend"] = config.backend
    return manifest


def write_run_artifacts(tracer, trace_path: str | Path, config=None) -> Path:
    """Export one traced run: its JSONL trace, whose header carries the
    run's manifest.  Returns the trace's path."""
    return tracer.export_jsonl(trace_path, manifest=build_manifest(config))
