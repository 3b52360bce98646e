"""Property test of ``python -m repro``'s exits over drawn flag sets.

The argv strategy is built from :func:`cli_fields`: each draw picks a few
flags and gives each a value from its vocabulary (``flag.choices``), its
``--x`` / ``--no-x`` pair, or the boundary values in ``VALUES``.  Whatever
the combination, ``main`` exits 0 (ran), 2 (bad input) or 3 (injected
faults outlived the retry budget); an exit of 2 or 3 reports exactly one
``python -m repro: error:`` line, and nothing raises out of ``main``
(which a shell would show as a traceback).

Most draws stop once the config is built; a bounded number run for real
at ``--scale ci --rounds 2``.  ``BAD_INPUT`` and the removed spellings are
fixed inputs that must exit 2.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.__main__ as cli
from repro.__main__ import main
from repro.harness.config import cli_fields

from tests.harness.test_cli import REMOVED_SPELLINGS

ERROR = "python -m repro: error:"
TMP = "{tmp}"  # replaced by a fresh directory in each real run

# field -> argv values for every flag that has neither choices nor a
# bool --x/--no-x pair: the edges of its valid range, one step outside
# each edge, and a typical value.
VALUES = {
    "n_clients": ["-1", "0", "1", "2", "5", "12"],
    "clients_per_round": ["0", "1", "2", "5", "12"],
    "rounds": ["-1", "0", "1", "2"],
    "delta": ["-0.1", "0", "0.5", "1", "1.5"],
    "seed": ["-1", "0", "7"],
    "drl_pretrain_rounds": ["-1", "0", "1", "2"],
    "workers": ["-1", "0", "1", "2"],
    "straggler_fraction": ["-0.1", "0", "0.5", "1", "1.5"],
    "straggler_slowdown": ["0.5", "1", "4"],
    "deadline_s": ["-1", "0", "0.001", "5"],
    "topk_frac": ["0", "0.01", "1", "1.5"],
    "up_mbps": ["-1", "0", "1"],
    "down_mbps": ["-1", "0", "10"],
    "buffer_size": ["0", "1", "3"],
    "max_concurrency": ["0", "1", "4"],
    "server_mix": ["-1", "0", "0.6", "1", "1.5", "delta", "half"],
    "offline_fraction": ["-0.1", "0", "0.5", "1"],
    "churn_rate": ["-1", "0", "0.5", "2"],
    "dropout_prob": ["-0.1", "0", "0.2", "1"],
    "completeness": ["0", "0.5", "1", "1.5"],
    "n_edges": ["0", "1", "2", "3"],
    "malicious_fraction": ["-0.1", "0", "0.3", "1"],
    "attack_scale": ["-1", "0", "2"],
    "trace": [f"{TMP}/run.trace.jsonl"],
    "metrics_interval": ["-1", "0", "5"],
    "fault_crash_prob": ["-0.1", "0", "0.1", "0.5", "1"],
    "fault_exception_prob": ["-0.1", "0", "0.1", "0.5", "1"],
    "fault_hang_prob": ["-0.1", "0", "0.1", "0.5", "1"],
    "fault_hang_s": ["-1", "0", "0.01"],
    "task_timeout_s": ["-1", "0", "0.01", "30"],
    "max_retries": ["-1", "0", "1", "3"],
    "checkpoint_path": [f"{TMP}/run.ckpt"],
    "checkpoint_every": ["0", "1", "2"],
    "resume": [f"{TMP}/missing.ckpt"],
}

# CI's bad inputs, and non-finite floats: each is a config error (or an unknown value) that must
# exit 2 before anything runs.
BAD_INPUT = [
    ["--per-round", "0"],
    ["--clients", "0", "--per-round", "0"],
    ["--seed", "-1"],
    ["--dataset", "imagenet"],
    ["--scale", "ci", "--clients", "400", "--partition", "NONEQUAL"],
    ["--aggregation", "fedbuff", "--latency-model", "lognormal",
     "--buffer-size", "1", "--aggregator", "krum"],
    ["--latency-model", "lognormal", "--availability", "sinusoidal"],
    # NaN and inf pass one-sided range checks such as `value <= 0`.
    ["--attack", "scale", "--malicious-fraction", "0.2", "--attack-scale", "nan"],
    ["--deadline", "nan"],
    ["--straggler-slowdown", "inf"],
]


def _options(f, flag) -> list[list[str]]:
    if flag.type is bool:
        return [[flag.flag], [f"--no-{flag.flag[2:]}"]]
    if flag.choices:
        return [[flag.flag, str(c)] for c in flag.choices]
    return [[flag.flag, v] for v in VALUES.get(f.name, [])]


# Plus the one hand-written option that changes what a run prints.
OPTIONS = {f.name: _options(f, flag) for f, flag in cli_fields()} | {"json": [["--json"]]}


@st.composite
def argvs(draw, skip=(), max_flags=6):
    names = draw(st.lists(
        st.sampled_from(sorted(set(OPTIONS) - set(skip))),
        max_size=max_flags, unique=True,
    ))
    return [token for name in names for token in draw(st.sampled_from(OPTIONS[name]))]


class _Built(Exception):
    """Stands in for the run once the config is built."""


def _build_only(cfg):
    raise _Built


def run_main(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; exceptions other than
    SystemExit propagate (a shell would print their traceback)."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except _Built:
            code = 0
    return code, err.getvalue()


def assert_clean_exit(argv: list[str], code, err: str) -> None:
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        return
    lines = err.splitlines()
    # argparse prints its usage block first; every other error is one line.
    usage = lines[:-1]
    assert lines and lines[-1].startswith(ERROR), (argv, err)
    assert not usage or usage[0].startswith("usage:"), (argv, err)
    assert not any(line.startswith("python -m repro:") for line in usage), (argv, err)


def test_every_valued_flag_has_boundaries():
    """A flag with neither choices nor a bool pair needs a VALUES row, and
    every row names a flagged field."""
    valued = {
        f.name for f, flag in cli_fields() if flag.type is not bool and not flag.choices
    }
    assert valued == set(VALUES), (
        f"missing: {sorted(valued - set(VALUES))}, stale: {sorted(set(VALUES) - valued)}"
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=argvs())
def test_config_build_exits_cleanly(argv):
    with mock.patch.object(cli, "run_experiment", _build_only):
        code, err = run_main(argv)
    assert_clean_exit(argv, code, err)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=argvs(skip=("scale", "rounds"), max_flags=5))
def test_ci_run_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [t.replace(TMP, tmp) for t in ["--scale", "ci", "--rounds", "2", *argv]]
        code, err = run_main(argv)
        assert_clean_exit(argv, code, err)
    if code == 3:
        assert "failed on all" in err


@pytest.mark.parametrize(
    "argv", BAD_INPUT + [argv for argv, _ in REMOVED_SPELLINGS], ids=" ".join
)
def test_bad_input_exits_2(argv):
    with mock.patch.object(cli, "run_experiment", _build_only):
        code, err = run_main(argv)
    assert code == 2, (argv, err)
    assert_clean_exit(argv, code, err)


def test_help_exits_0():
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: python -m repro")
