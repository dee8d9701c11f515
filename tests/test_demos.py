"""Smoke test of the demos: each runs to exit 0 in a child process. The
trace-file demo prints the user-facing parse errors, so its output is
pinned."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

STDOUT = {
    "04_trace_files": (
        "wrote 101 samples to xdd.csv; values round-tripped bit-exactly: True\n"
        "parsed export: 3 samples of 'V(xdd)'\n"
        "      non-numeric cell: line 3: not a number: 'zap'\n"
        "  time going backwards: line 4: time not strictly increasing: 1.0 after 2.0\n"
        "        truncated file: line 2: need at least 2 data rows, found 1\n"
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    if demo.stem in STDOUT:
        assert proc.stdout == STDOUT[demo.stem]
