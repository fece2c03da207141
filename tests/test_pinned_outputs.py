"""Every op of the benchmark's workloads, checked against its pinned output.

``perfbench/run.py`` holds the workloads, the pinned outputs and the checks
its runs apply; this test imports it read-only and runs each distinct op
once through ``cli.main``, so a change to a verdict, a witness, a radical or
a rule entry fails here and not only in a benchmark run.  Analyze ops run
with ``--no-cache``: their pins are uncached reports.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from ringlab import cli

_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
_spec = importlib.util.spec_from_file_location("perfbench_run", _RUN)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

PINS = run.load_pins()


def _distinct_ops() -> list:
    ops = {}
    for workload in run.WORKLOADS.values():
        for op in workload:
            ops.setdefault((op["kind"], op["key"]), op)
    return list(ops.values())


def _argv(op: dict) -> list:
    return ["--no-cache" if a == "--cache" else a for a in op["argv"]]


@pytest.mark.parametrize("op", _distinct_ops(),
                         ids=lambda op: f"{op['kind']}:{op['key']}")
def test_op_matches_its_pin(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(_argv(op))
    pin = PINS[op["kind"]][op["key"]]
    assert run.CHECKS[op["kind"]](rc, out.getvalue(), pin) is None
