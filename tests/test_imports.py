"""Every package imports on its own, as a fresh process's first import.

An import cycle can hide behind import order: a module that only loads
because something else imported ``repro.fl`` first fails the moment a
script (or a worker process) imports it directly.  Each case here runs
``python -c "import <module>"`` in a new interpreter.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.fleet

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)
FLEET_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(repro.fleet.__path__, "repro.fleet.")
)


def test_discovers_the_modules():
    assert {"repro.fl", "repro.fleet", "repro.nn", "repro.runtime"} <= set(PACKAGES)
    assert {"repro.fleet.columnar", "repro.fleet.scale"} <= set(FLEET_MODULES)


@pytest.mark.parametrize("module", PACKAGES + FLEET_MODULES)
def test_first_import_succeeds(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
