"""The CLI and config surface, pinned as structure.

``fixtures/cli_surface.json`` records every action of
``repro.__main__.build_parser()`` (option strings, dest, default,
choices, help, and the rest of what ``--help`` prints) and the name and
default of every ``ExperimentConfig`` field.  It is structure, not
formatted ``--help`` text, because argparse formats help differently
across Python versions.  A change to a flag or a config field fails here
until the fixture is re-recorded on purpose::

    PYTHONPATH=src python -m tests.harness.test_cli_surface
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.__main__ import build_parser
from repro.harness.config import ExperimentConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cli_surface.json")
# Some Python versions append this to a BooleanOptionalAction's help.
_BOOL_DEFAULT_SUFFIX = " (default: %(default)s)"


def _action(action) -> dict:
    help_text = action.help
    if help_text is not None and help_text.endswith(_BOOL_DEFAULT_SUFFIX):
        help_text = help_text[: -len(_BOOL_DEFAULT_SUFFIX)]
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "help": help_text,
        "action": type(action).__name__,
        "type": None if action.type is None else action.type.__name__,
        "nargs": action.nargs,
        "metavar": action.metavar,
        "required": action.required,
    }


def surface() -> dict:
    parser = build_parser()
    return {
        "parser": {"prog": parser.prog, "description": parser.description},
        "actions": [_action(a) for a in parser._actions],
        "config_fields": [
            [f.name, f.default] for f in dataclasses.fields(ExperimentConfig)
        ],
    }


def test_cli_and_config_surface_unchanged():
    with open(FIXTURE) as fh:
        pinned = json.load(fh)
    # A JSON round trip turns tuples into lists, like the fixture.
    assert json.loads(json.dumps(surface())) == pinned


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(surface(), fh, indent=1)
        fh.write("\n")
