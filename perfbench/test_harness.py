"""Tests of the benchmark harness itself: the checks must catch real faults.

Run from the repository root with ``python -m pytest perfbench``. Each
workload test runs one real op through :class:`run.Harness`, then has the
CLI corrupt one artifact after writing it, and asserts that the harness
counts that op as failed.
"""

from __future__ import annotations

import io
import json
import re
import signal
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import jerklab.cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from spec import WORKLOADS  # noqa: E402

SEED = 7


class CorruptingCli:
    """Runs the real CLI, then applies ``corrupt`` to what a step wrote."""

    def __init__(self, corrupt=None):
        self.corrupt = corrupt

    def main(self, argv):
        code = jerklab.cli.main(argv)
        if self.corrupt is not None:
            self.corrupt(argv)
        return code


def _out(argv, flag):
    return Path(argv[argv.index(flag) + 1])


def _edit(path: Path, fn) -> None:
    path.write_text(fn(path.read_text(encoding="utf-8")), encoding="utf-8")


def _sim_op(inputs, tmp_path, corrupt=None):
    h = run.Harness("simulate-set", inputs, tmp_path / "in", tmp_path / "out",
                    CorruptingCli(corrupt))
    return h.run_op(0, False)


@pytest.fixture(scope="module")
def sim_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim") / "in"
    d.mkdir()
    return gen.gen_simulate_set(SEED, d)


@pytest.fixture(scope="module")
def cmp_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cmp") / "in"
    d.mkdir()
    return d, gen.gen_compare(SEED, d, WORKLOADS["compare-windows"])


def _cmp_op(cmp_inputs, tmp_path, cli=CorruptingCli()):
    """One compare-windows op: ``compare``, then ``horizon``."""
    in_dir, inputs = cmp_inputs
    h = run.Harness("compare-windows", inputs, in_dir, tmp_path / "out", cli)
    return h.run_op(0, False)


# -- simulate-set -------------------------------------------------------------

def test_simulate_set_op_passes(sim_inputs, tmp_path):
    op = _sim_op(sim_inputs, tmp_path)
    assert op["ok"], op["error"]
    assert set(op["sha256"]) == {"rk4.csv", "rk4_2h.csv", "euler.csv", "rk45.csv"}


def _rows(text):
    return [line.split(",") for line in text.splitlines()]


def _join(rows):
    return "\n".join(",".join(r) for r in rows) + "\n"


def _shift_value(text):
    rows = _rows(text)
    rows[5][1] = repr(float(rows[5][1]) + 1e-6)  # far beyond the rk4 tolerance
    return _join(rows)


def _shift_time(text):
    rows = _rows(text)
    rows[3][0] = repr(float(rows[3][0]) + 1e-12)  # off the t0 + k*dt grid
    return _join(rows)


def _nan_last(text):
    rows = _rows(text)
    rows[-1][1] = "nan"
    return _join(rows)


def _truncate(text):
    return _join(_rows(text)[:-2])


@pytest.mark.parametrize("fault, message", [
    (_shift_value, "oracle"),
    (_shift_time, "expected"),
    (_nan_last, "non-finite"),
    (_truncate, "rows"),
])
def test_corrupted_trace_fails_op(sim_inputs, tmp_path, fault, message):
    def corrupt(argv):
        if "rk4.csv" in argv[-1]:
            _edit(_out(argv, "--out"), fault)
    op = _sim_op(sim_inputs, tmp_path, corrupt)
    assert not op["ok"]
    assert message in op["error"]


def test_escape_that_writes_a_file_fails_op(sim_inputs, tmp_path):
    def corrupt(argv):
        if argv[-1].endswith("escape.csv"):
            Path(argv[-1]).write_text("t,v\n", encoding="utf-8")
    op = _sim_op(sim_inputs, tmp_path, corrupt)
    assert not op["ok"]
    assert "escaping start wrote" in op["error"]


def test_escape_expectations():
    checks.check_escape(1, False)
    for code, wrote in ((0, False), (2, False), (1, True)):
        with pytest.raises(checks.CheckFailed):
            checks.check_escape(code, wrote)


# -- compare-windows ----------------------------------------------------------

def test_compare_windows_op_passes(cmp_inputs, tmp_path):
    op = _cmp_op(cmp_inputs, tmp_path)
    assert op["ok"], op["error"]
    assert set(op["sha256"]) == {"compare.json", "compare_windows.csv",
                                 "horizon.json", "horizon.stdout"}


def _report_fault(edit):
    def corrupt(argv):
        if argv[0] == "compare":
            path = _out(argv, "--report")
            doc = json.loads(path.read_text(encoding="utf-8"))
            edit(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
    return corrupt


def _bump_score(doc):
    doc["candidates"][0]["scores"][3] *= 1 + 1e-7


def _break_full(doc):
    doc["candidates"][0]["full_nrmse"] = float.fromhex(
        "0x1.0000000000001p+0") * doc["candidates"][0]["full_nrmse"]


def _wrong_reference(doc):
    ids = [c["id"] for c in doc["candidates"]]
    doc["reference_id"] = next(i for i in ids if i != doc["reference_id"])


def _wrong_horizon(doc):
    cand = next(c for c in doc["candidates"] if c["horizon_exceeded"])
    cand["horizon_time"] = (doc["grid"]["n"] - 1) * doc["grid"]["dt"]


@pytest.mark.parametrize("edit, message", [
    (_bump_score, "oracle"),
    (_break_full, "last window score"),
    (_wrong_reference, "reference_id"),
    (_wrong_horizon, "crossing window"),
])
def test_corrupted_report_fails_op(cmp_inputs, tmp_path, edit, message):
    op = _cmp_op(cmp_inputs, tmp_path, CorruptingCli(_report_fault(edit)))
    assert not op["ok"]
    assert message in op["error"]


def test_corrupted_windows_csv_fails_op(cmp_inputs, tmp_path):
    def corrupt(argv):
        if argv[0] == "compare":
            _edit(_out(argv, "--windows-out"),
                  lambda text: re.sub(r"\n(\d+),(\d)", r"\n\1,9", text, count=1))
    op = _cmp_op(cmp_inputs, tmp_path, CorruptingCli(corrupt))
    assert not op["ok"]
    assert "window row" in op["error"]


@pytest.fixture(scope="module")
def long_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("long") / "in"
    d.mkdir()
    return d, gen.gen_compare(SEED, d, WORKLOADS["long-capture"])


@pytest.mark.parametrize("edit", [None, _bump_score])
def test_long_capture_op_passes_unless_corrupted(long_inputs, tmp_path, edit):
    in_dir, inputs = long_inputs
    cli = CorruptingCli(edit and _report_fault(edit))
    op = run.Harness("long-capture", inputs, in_dir, tmp_path / "out", cli).run_op(0, False)
    assert set(op["sha256"]) == {"compare.json", "compare_windows.csv"}
    if edit is None:
        assert op["ok"], op["error"]
    else:
        assert not op["ok"]
        assert "oracle" in op["error"]


class HorizonLineCli:
    """Rewrites the horizon listing the way a faulty CLI would print it."""

    def __init__(self, rewrite):
        self.rewrite = rewrite

    def main(self, argv):
        if argv[0] != "horizon":
            return jerklab.cli.main(argv)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = jerklab.cli.main(argv)
        print(self.rewrite(buf.getvalue()), end="")
        return code


@pytest.mark.parametrize("rewrite, message", [
    (lambda s: re.sub(r"horizon=([0-9.]+) \(exceeded\)", r"horizon=1.5 (exceeded)", s,
                      count=1), "printed horizon"),
    (lambda s: s.replace("(not exceeded)", "(exceeded)", 1), "printed state"),
    (lambda s: re.sub(r"winner: (\S+)", "winner: euler", s), "winner"),
    (lambda s: "\n".join(s.splitlines()[1:]) + "\n", "horizon lines"),
])
def test_corrupted_horizon_line_fails_op(cmp_inputs, tmp_path, rewrite, message):
    op = _cmp_op(cmp_inputs, tmp_path, HorizonLineCli(rewrite))
    assert not op["ok"]
    assert message in op["error"]


def test_oracle_matches_fsum_definition():
    y = gen.np.array([1.0, 2.0, 4.0, 8.0])
    yhat = gen.np.array([1.5, 2.0, 3.0, 9.0])
    ybar = sum(yhat) / 4
    want = (sum((a - b) ** 2 for a, b in zip(y, yhat)) ** 0.5
            / sum((a - ybar) ** 2 for a in y) ** 0.5)
    assert gen._prefix_score(y, yhat, 4) == pytest.approx(want, rel=1e-15)


# -- tracing ------------------------------------------------------------------

def test_tracer_spans_self_times_and_uninstall(sim_inputs, tmp_path):
    original = jerklab.cli.simulate
    h = run.Harness("simulate-set", sim_inputs, tmp_path / "in", tmp_path / "out",
                    jerklab.cli)
    h.tracer.install()
    assert jerklab.cli.simulate is not original
    op = h.run_op(1, True)
    h.tracer.uninstall()
    assert jerklab.cli.simulate is original
    assert op["ok"], op["error"]
    spans = h.tracer.spans
    names = [s.name for s in spans]
    assert names.count("integrate.simulate") == 5
    assert names.count("cli.main") == 5
    assert all(spans[s.parent].name == "cli.main" for s in spans
               if s.name == "integrate.simulate")
    m = tracing.op_layer_metrics(spans, tracing.self_times(spans),
                                 op["seconds"] + op["sampling_s"])
    # h = 1e-3 and 2e-3 over 4699 output intervals of 100/4699.
    assert m["integrate.substeps"] > 4699 * (22 + 11)
    assert m["integrate.escape_s"] > 0
    assert m["share.integrate"] > 0.5
    assert 0 < sum(m[f"share.{layer}"] for layer in tracing.LAYERS) <= 1.0


def test_self_times_subtract_direct_children():
    spans = [tracing.Span("a", 0.0, 10.0), tracing.Span("b", 1.0, 4.0, parent=0),
             tracing.Span("c", 2.0, 3.0, parent=1), tracing.Span("d", 5.0, 6.0, parent=0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_parse_importtime_separates_numpy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      1000 |      60000 |       numpy",
        "import time:       500 |      70000 |     jerklab.align",
        "import time:       200 |      90000 |   jerklab",
        "import time:      5000 |     100000 | jerklab.cli",
    ])
    assert run.parse_importtime(text) == (0.06, 0.04)


def test_op_stats_tail_needs_ten_ops_beyond():
    assert run.op_stats([1.0] * 10)["tail_percentile"] is None
    stats = run.op_stats([float(i) for i in range(1, 101)])
    assert stats["tail_percentile"] == 90 and stats["ops"] == 100
    assert stats["p10_s"] == pytest.approx(10.9)


# -- speed sampling -----------------------------------------------------------

def test_sampler_samples_during_block_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.Sampler() as speed:
        t = perf_counter()
        while perf_counter() - t < 10 * probe.SAMPLE_INTERVAL_S:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.samples) >= 5
    assert speed.spent_s > 0
    mean = sum(speed.samples) / len(speed.samples)
    assert speed.mean_s() == mean
    assert probe.at_ref_speed(2.0, mean) == pytest.approx(2.0 * probe.REF_SAMPLE_S / mean)


def test_op_records_time_at_reference_speed(sim_inputs, tmp_path):
    op = _sim_op(sim_inputs, tmp_path)
    assert op["speed_samples"] > 1
    assert op["ref_s"] == pytest.approx(
        op["seconds"] * probe.REF_SAMPLE_S / op["mean_sample_s"])
