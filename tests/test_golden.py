"""Golden SHA-256 digests of the artifacts the pipeline writes.

A trace or report whose bits change makes one of these tests fail; a change
that means to change bits updates the digest and says why. The simulate
path is IEEE-754 arithmetic on Python floats, correctly rounded ``math.sqrt``
and CPython's own float parsing and ``repr``; the compare path is numpy
arithmetic ufuncs, ``searchsorted`` and ``math.sqrt``. So the digests should
hold on any platform.

``rk45`` is left out. Its grid states are interpolated linearly between
steps, and Dormand–Prince dense output is to replace that (ROADMAP, item 1),
which changes its bits once; its step factor also goes through the
platform's ``pow``.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from jerklab import (IntegrationOverflowError, IntegratorConfig, SystemState,
                     ingest, simulate)
from jerklab.cli import main

#: Trace digests by name, with the simulate flags beside the default span and
#: points that make each trace. ``rk4_2h`` is rk4 at twice the default step,
#: as in the benchmark's run of that name; ``rk4_plus`` is the mirror system
#: from the mirrored start.
TRACE_SHA256 = {
    "rk4": (("--method", "rk4"),
            "1efbe571517c296bae9775b217fcf8c5fe601fb81e6aed75213be7f2a7b0d457"),
    "euler": (("--method", "euler"),
              "52f63d3cd45b7b7a87dc6b9f0c2651fa202ae2c43c78c1e81167fbd7b5ed9cd2"),
    "rk4_2h": (("--h", "2e-3"),
               "e652d904e8affe50fa49d9452fd577cd13fcd43176b6ce8d290a1aa12a64b769"),
    "rk4_plus": (("--sign", "plus", "--ic", "0,0,-0.1"),
                 "0e9bd8053068e0b3123bbaf1dabd4498caad144fe53e9932ccb734ca988a091e"),
}
ESCAPE_LAST_VALID_TIME = "0x1.09b45a3cf7bbep+6"  # t ≈ 66.426
#: The measured trace of the compare case: rk4 over the default span on
#: 100,000 points, a body of more than two split floors.
MEASURED_SHA256 = "e5a73d5ef5a678c5a0e37d506af19d17dc37a19f1b148df3de7dcd13b762f388"
COMPARE_SHA256 = {
    "report.json": "945cc7e7e4525482d002e91cc5314363cc71622105cbdc62159b6954d62c6df2",
    "report_windows.csv":
        "f490847e9e97d3a0cc694b2d47aab86f2638235d1febd0d5dc156bab9f35965c",
}
#: What ``horizon`` prints over the compare case's flags; its report is the
#: compare report.
HORIZON_STDOUT_SHA256 = "4bf29c2d66761e42d777c6e5741b251f230370d11c6633f46dd8bb01573cbc77"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(path, *flags) -> None:
    assert main(["simulate", *flags, "--out", str(path)]) == 0


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_default_simulate_trace(tmp_path, capsys, name):
    flags, digest = TRACE_SHA256[name]
    path = tmp_path / f"{name}.csv"
    _simulate(path, *flags)
    assert _sha256(path) == digest


def test_escaping_start_last_valid_time():
    config = IntegratorConfig(initial_state=SystemState(0.0, 0.0, 0.01))
    with pytest.raises(IntegrationOverflowError) as info:
        simulate(config)
    assert info.value.last_valid_time.hex() == ESCAPE_LAST_VALID_TIME


def test_compare_report_and_windows(tmp_path, capsys, monkeypatch, forks):
    measured = tmp_path / "measured.csv"
    _simulate(measured, "--points", "100000")
    assert measured.stat().st_size > 2 * ingest._SPLIT_FLOOR
    assert _sha256(measured) == MEASURED_SHA256
    _simulate(tmp_path / "euler.csv", "--method", "euler")
    _simulate(tmp_path / "rk4_2h.csv", "--h", "2e-3", "--points", "2000")
    # Two CPUs, so the measured trace is read in two processes on any host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    flags = ["--measured", str(measured),
             "--candidate", f"euler={tmp_path / 'euler.csv'}",
             "--candidate", f"rk4_2h={tmp_path / 'rk4_2h.csv'}",
             "--windows", "10", "--threshold", "0.3"]
    assert main(["compare", *flags, "--report", str(tmp_path / "report.json")]) == 0
    assert forks == [1]
    for name, digest in COMPARE_SHA256.items():
        assert _sha256(tmp_path / name) == digest, name
    capsys.readouterr()
    assert main(["horizon", *flags, "--report", str(tmp_path / "horizon.json")]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == HORIZON_STDOUT_SHA256
    assert _sha256(tmp_path / "horizon.json") == COMPARE_SHA256["report.json"]
