"""Every ExperimentConfig field has a user outside its own unit tests.

A field is *used* when a benchmark, an example or one of the harness's
paper-experiment modules names it.  A field that only its own unit tests
set is deleted rather than kept "in case"; the few that stay anyway are
listed in ``KEEP`` with the reason.
"""

import dataclasses
import re
from pathlib import Path

from repro.harness.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[2]
EXPERIMENT_MODULES = ("figures", "tables", "ablations", "convergence")

# field -> why it stays although nothing outside its unit tests names it.
KEEP = {
    "prox_mu": "FedProx's proximal weight, a paper Section 4.1 hyperparameter",
    "drl_gamma": "DDPG discount; ROADMAP 1(c)(ii) sweeps it as an ablation row",
    "drl_noise_scale": "exploration noise; swept by the same ablation row",
    "drl_updates_per_round": "agent updates per round; swept by the same row",
    "task_timeout_s": "recovery setting: per-task timeout on a pooled backend",
    "max_retries": "recovery setting: retry budget before a run exits 3",
}


def _user_texts() -> list[str]:
    files = [
        p for top in ("benchmarks", "examples")
        for p in sorted((ROOT / top).rglob("*"))
        if p.suffix in (".py", ".json")
    ]
    files += [ROOT / "src/repro/harness" / f"{m}.py" for m in EXPERIMENT_MODULES]
    return [p.read_text() for p in files]


def test_every_field_is_used_or_kept():
    texts = _user_texts()
    unused = [
        f.name for f in dataclasses.fields(ExperimentConfig)
        if f.name not in KEEP
        and not any(re.search(rf"\b{f.name}\b", t) for t in texts)
    ]
    assert not unused, (
        f"config fields named by no benchmark, example or experiment module: "
        f"{unused}; delete them, or add each to KEEP with a reason"
    )


def test_keep_list_names_real_fields():
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(KEEP) <= names, sorted(set(KEEP) - names)
