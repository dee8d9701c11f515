"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)`` so exit statuses and
stdout/stderr can be asserted directly; one subprocess test covers the
``python -m`` entry point.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import inspect
import json
import math
import os
import re
from pathlib import Path

import pytest

from jerklab import (DEFAULT_INITIAL_STATE, IntegratorConfig, JerkParams,
                     MeanFrom, Method, Sign, SystemState, build_comparison,
                     format_float, load_trace, parse_trace)
from jerklab import cli
from jerklab.cli import main

from conftest import mk_ts, run_python

#: The settings table of each command: the only keys its ``--config`` accepts.
CONFIGS = {"simulate": cli._SIMULATE, "compare": cli._COMPARE,
           "horizon": cli._HORIZON}
#: Every (command, key) whose setting is a choice: its default is an enum member.
CHOICES = [(command, key) for command, table in sorted(CONFIGS.items())
           for key, default in table.items() if isinstance(default, enum.Enum)]
_TRACE_VALUES = {"grid_points": 51, "n_windows": 5, "threshold": 0.5,
                 "mean_from": "measured"}
#: A value other than the default for every key of each command's table.
OTHER_VALUES = {
    "simulate": {"a": 2.05, "sign": "plus", "ic": [0.0, 0.0, 0.2],
                 "method": "euler", "step": 2e-3, "t_start": 0.5,
                 "t_end": 3.0, "output_points": 31},
    "compare": _TRACE_VALUES,
    "horizon": _TRACE_VALUES,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trace_dir(tmp_path):
    """A measured trace plus two candidates of known quality."""
    from jerklab import write_series_csv

    t = [k * 0.1 for k in range(101)]
    files = {}
    for name, series in {
        "measured": mk_ts(t, [math.sin(u) for u in t]),
        "close": mk_ts(t, [math.sin(u) + 1e-3 * math.cos(3 * u) for u in t]),
        "rough": mk_ts(t, [math.sin(u) + 0.5 * math.cos(u) for u in t]),
    }.items():
        p = tmp_path / f"{name}.csv"
        p.write_bytes(write_series_csv(series))
        files[name] = str(p)
    return tmp_path, files


class TestSimulate:
    def test_writes_parseable_trace(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--t-end", "10", "--points", "101",
            "--out", str(out))
        assert code == 0
        assert "wrote 101 samples" in stdout
        trace = parse_trace(out.read_bytes())
        assert len(trace) == 101
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(10.0, rel=1e-12)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["simulate", "--t-end", "20", "--points", "201"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nonpositive_damping_is_usage_error(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "simulate", "--a", "-1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "a must be > 0" in stderr

    def test_blowup_is_data_error(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(
            capsys, "simulate", "--ic", "0,0,0.01", "--t-end", "100",
            "--points", "101", "--out", str(out))
        assert code == 1
        assert "diverged" in stderr
        assert "last finite state" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("ic", ["1,2", "a,b,c", "1,2,3,4",
                                    "nan,0,0.1", "1e999,0,0.1"])
    def test_malformed_ic(self, capsys, tmp_path, ic):
        code, _, stderr = run_cli(
            capsys, "simulate", "--ic", ic, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--ic" in stderr

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--method", "leapfrog",
                  "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_step_too_small_to_count_substeps(self, capsys, tmp_path, method):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(
            capsys, "simulate", "--method", method, "--h", "1e-320",
            "--t-end", "1", "--points", "3", "--out", str(out))
        assert code == 2
        assert "step 1e-320 is too small for the output interval 0.5" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_step_too_small_to_finish(self, capsys, tmp_path, method):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(
            capsys, "simulate", "--method", method, "--h", "1e-300",
            "--t-end", "1", "--points", "3", "--out", str(out))
        assert code == 2
        assert "step 1e-300 is too small for the output interval 0.5" in stderr
        assert not out.exists()

    def test_too_few_points(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "simulate", "--points", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "output_points" in stderr

    def test_grid_that_could_not_be_read_back_is_not_written(self, capsys,
                                                             tmp_path):
        # At 1e16 a double's spacing is 2, so the 40 grid times over a span of
        # 64 cannot all increase; such a file would be refused when read.
        config = tmp_path / "c.json"
        config.write_text('{"t_start": 1e16, "t_end": 1.0000000000000064e16}')
        out = tmp_path / "b.csv"
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--config", str(config), "--points", "40",
            "--h", "1", "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: timestamps must be strictly increasing")
        assert not out.exists()

    def test_plus_sign_and_euler(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--sign", "plus", "--ic", "0,0,-0.1",
            "--method", "euler", "--t-end", "10", "--points", "51",
            "--out", str(out))
        assert code == 0
        assert "(euler, step 0.001)" in stdout
        assert out.exists()


class TestCompare:
    def test_full_run(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        report_path = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"close={files['close']}",
            "--candidate", f"rough={files['rough']}",
            "--grid-points", "101", "--windows", "5",
            "--report", str(report_path))
        assert code == 0
        assert "reference: close" in stdout

        doc = json.loads(report_path.read_text())
        assert doc["reference_id"] == "close"
        assert doc["n_windows"] == 5
        assert doc["mean_from"] == "simulated"
        assert doc["threshold"] is None
        ids = [c["id"] for c in doc["candidates"]]
        assert ids == ["close", "rough"]
        for cand in doc["candidates"]:
            assert cand["boundaries"] == [20, 40, 61, 81, 101]
            assert len(cand["scores"]) == 5
            assert cand["full_nrmse"] == cand["scores"][-1]

        windows_path = tmp_path / "report_windows.csv"
        assert windows_path.exists()
        lines = windows_path.read_text().strip().split("\n")
        assert lines[0] == "prefix_end,close,rough"
        assert len(lines) == 6
        # Final CSV row must reproduce the JSON full-series scores exactly.
        final = lines[-1].split(",")
        assert int(final[0]) == 101
        for cand, cell in zip(doc["candidates"], final[1:]):
            assert float(cell) == cand["full_nrmse"]

    def test_report_holds_only_python_numbers(self, trace_dir):
        # json.dumps refuses numpy integers, and a tracer sums the
        # boundaries: no numpy scalar may reach the report.
        traces = {name: load_trace(path) for name, path in trace_dir[1].items()}
        measured = traces.pop("measured")
        report = build_comparison(measured, traces, 101, 5, threshold=0.1)
        payload = cli._report_payload(report, 0.1)
        assert type(payload["n_windows"]) is int
        assert [type(v) for v in payload["grid"].values()] == [float, float, int, float]
        for entry in payload["candidates"]:
            assert [type(b) for b in entry["boundaries"]] == [int] * 5
            assert [type(s) for s in entry["scores"]] == [float] * 5
            assert type(entry["full_nrmse"]) is float
            assert type(entry["horizon_time"]) is float
        assert {c["horizon_exceeded"] for c in payload["candidates"]} == {False, True}
        json.dumps(payload)

    def test_auto_format_sniffs_first_non_blank_line(self, capsys, trace_dir):
        # A leading blank line before a tab-separated header: the sniffer
        # reads the same header line as the parser, so this is an export.
        tmp_path, files = trace_dir
        measured = parse_trace((tmp_path / "measured.csv").read_bytes())
        export = tmp_path / "measured.txt"
        export.write_text("\ntime\tV(xdd)\n" + "".join(
            f"{t!r}\t{v!r}\n" for t, v in zip(measured.t.tolist(), measured.v.tolist())))
        code, stdout, err = run_cli(
            capsys, "compare", "--measured", str(export),
            "--candidate", f"close={files['close']}",
            "--candidate", f"rough={files['rough']}",
            "--grid-points", "101", "--windows", "5",
            "--report", str(tmp_path / "report.json"))
        assert (code, err) == (0, "")
        assert "reference: close" in stdout

    def test_reruns_byte_identical(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        blobs = []
        for tag in ("one", "two"):
            rp = tmp_path / f"{tag}.json"
            code, _, _ = run_cli(
                capsys, "compare", "--measured", files["measured"],
                "--candidate", f"close={files['close']}",
                "--candidate", f"rough={files['rough']}",
                "--grid-points", "101", "--windows", "5",
                "--report", str(rp))
            assert code == 0
            blobs.append((rp.read_bytes(),
                          (tmp_path / f"{tag}_windows.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_threshold_adds_horizons(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        rp = tmp_path / "rep.json"
        code, _, _ = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"close={files['close']}",
            "--candidate", f"rough={files['rough']}",
            "--grid-points", "101", "--windows", "5",
            "--threshold", "0.1", "--report", str(rp))
        assert code == 0
        doc = json.loads(rp.read_text())
        assert doc["threshold"] == 0.1
        for cand in doc["candidates"]:
            assert "horizon_time" in cand
            assert "horizon_exceeded" in cand

    def test_zero_threshold_is_usage_error(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"close={files['close']}",
            "--grid-points", "101", "--threshold", "0",
            "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert "threshold" in stderr

    def test_missing_measured_file(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", str(tmp_path / "ghost.csv"),
            "--candidate", f"close={files['close']}",
            "--report", str(tmp_path / "r.json"))
        assert code == 1
        assert "cannot open" in stderr

    def test_candidate_flag_required(self, trace_dir):
        _, files = trace_dir
        with pytest.raises(SystemExit) as info:
            main(["compare", "--measured", files["measured"]])
        assert info.value.code == 2

    def test_malformed_candidate_spec(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", "justapath.csv",
            "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert "NAME=FILE" in stderr

    def test_duplicate_candidate_names(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"c={files['close']}",
            "--candidate", f"c={files['rough']}",
            "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert "duplicate" in stderr

    @pytest.mark.parametrize("name", ["a,b", "a\rb", "a\nb", ",", '"q'])
    def test_candidate_name_that_would_split_a_csv_cell(self, capsys, tmp_path,
                                                        name):
        # Every spec is checked before any trace is read: the measured file
        # does not exist, and the bad spec comes after a good one.
        ghost = str(tmp_path / "ghost.csv")
        spec = f"{name}={ghost}"
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", ghost,
            "--candidate", f"c={ghost}", "--candidate", spec,
            "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert stderr == ("error: --candidate NAME may not hold a comma, double "
                          f"quote or line break, got {spec!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["compare", "horizon"])
    def test_candidate_named_like_the_boundary_column(self, capsys, tmp_path,
                                                      command):
        # The windows CSV would head two columns "prefix_end". The spec is
        # refused before any trace is read, as the comma rule is.
        ghost = str(tmp_path / "ghost.csv")
        spec = f"prefix_end={ghost}"
        code, _, stderr = run_cli(
            capsys, command, "--measured", ghost, "--threshold", "0.5",
            "--candidate", f"c={ghost}", "--candidate", spec,
            "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert stderr == ("error: --candidate NAME may not be the windows CSV's "
                          f"first column 'prefix_end', got {spec!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_one_grid_point_names_the_setting(self, capsys, trace_dir, source):
        tmp_path, files = trace_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_points": 1}))
        setting = (["--grid-points", "1"] if source == "flag"
                   else ["--config", str(cfg)])
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"close={files['close']}", *setting,
            "--report", str(tmp_path / "r.json"))
        assert code == 2
        assert stderr == "error: grid_points must be an integer >= 2, got 1\n"

    def test_disjoint_domains(self, capsys, tmp_path):
        from jerklab import write_series_csv

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_bytes(write_series_csv(mk_ts([0.0, 1.0], [0.0, 1.0])))
        b.write_bytes(write_series_csv(mk_ts([5.0, 6.0], [0.0, 1.0])))
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", str(a),
            "--candidate", f"far={b}", "--grid-points", "10",
            "--report", str(tmp_path / "r.json"))
        assert code == 1
        assert "overlap" in stderr

    def test_overflowing_scores_are_data_error(self, capsys, tmp_path):
        from jerklab import write_series_csv

        t = [k * 0.1 for k in range(51)]
        m = tmp_path / "m.csv"
        c = tmp_path / "c.csv"
        m.write_bytes(write_series_csv(mk_ts(t, [1e200 * math.sin(u) for u in t])))
        c.write_bytes(write_series_csv(mk_ts(t, [1e200 * math.cos(u) for u in t])))
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", str(m), "--candidate", f"c={c}",
            "--grid-points", "51", "--report", str(tmp_path / "r.json"))
        assert code == 1
        assert "in cumulative window 1 is not finite" in stderr

    def test_parse_failure_cites_line(self, capsys, tmp_path, trace_dir):
        _, files = trace_dir
        bad = tmp_path / "bad.csv"
        bad.write_text("t,v\n0,1\n1,zap\n2,3\n")
        code, _, stderr = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"bad={bad}",
            "--report", str(tmp_path / "r.json"))
        assert code == 1
        assert "line 3" in stderr

    def test_spice_candidate_auto_sniffed(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        spice = tmp_path / "export.txt"
        rows = ["time\tV(xdd)"]
        rows += [f"{k * 0.1:.6e}\t{math.sin(k * 0.1):.6e}" for k in range(101)]
        spice.write_text("\n".join(rows) + "\n")
        rp = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"spice={spice}", "--grid-points", "101",
            "--report", str(rp))
        assert code == 0
        doc = json.loads(rp.read_text())
        # The export is the measured signal re-quantized to 7 significant
        # digits, so it scores as near-identical.
        assert doc["candidates"][0]["full_nrmse"] < 1e-4

    def test_mean_variant_changes_scores(self, capsys, tmp_path):
        from jerklab import write_series_csv

        t = [k * 0.1 for k in range(51)]
        m = tmp_path / "m.csv"
        c = tmp_path / "c.csv"
        m.write_bytes(write_series_csv(mk_ts(t, [math.sin(u) for u in t])))
        c.write_bytes(write_series_csv(
            mk_ts(t, [math.sin(u) + 3.0 for u in t])))
        fulls = {}
        for variant in ("simulated", "measured"):
            rp = tmp_path / f"{variant}.json"
            code, _, _ = run_cli(
                capsys, "compare", "--measured", str(m),
                "--candidate", f"c={c}", "--grid-points", "51",
                "--nrmse-mean", variant, "--report", str(rp))
            assert code == 0
            fulls[variant] = json.loads(rp.read_text())["candidates"][0]["full_nrmse"]
        assert fulls["simulated"] != fulls["measured"]

    def test_custom_windows_out_path(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        wp = tmp_path / "profile.csv"
        code, stdout, _ = run_cli(
            capsys, "compare", "--measured", files["measured"],
            "--candidate", f"close={files['close']}",
            "--grid-points", "101",
            "--report", str(tmp_path / "r.json"),
            "--windows-out", str(wp))
        assert code == 0
        assert wp.exists()
        assert str(wp) in stdout


class TestHorizon:
    def test_identical_candidate_never_exceeds(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        code, stdout, _ = run_cli(
            capsys, "horizon", "--measured", files["measured"],
            "--candidate", f"self={files['measured']}",
            "--grid-points", "101", "--threshold", "0.5")
        assert code == 0
        assert "self: horizon=10 (not exceeded)" in stdout
        assert "winner: self" in stdout

    def test_tie_goes_to_first_sorted_id(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        code, stdout, _ = run_cli(
            capsys, "horizon", "--measured", files["measured"],
            "--candidate", f"zeta={files['measured']}",
            "--candidate", f"alpha={files['measured']}",
            "--grid-points", "101", "--threshold", "0.5")
        assert code == 0
        assert "winner: alpha" in stdout

    def test_zero_threshold_rejected(self, capsys, trace_dir):
        _, files = trace_dir
        code, _, stderr = run_cli(
            capsys, "horizon", "--measured", files["measured"],
            "--candidate", f"self={files['measured']}",
            "--threshold", "0")
        assert code == 2
        assert "threshold must be > 0" in stderr

    def test_finer_step_rerun_wins(self, capsys, tmp_path):
        # Truth from the 4th-order generator; two 1st-order reruns at a 4x
        # step ratio. The finer rerun must track at least as long.
        files = {}
        for name, method, step in (
            ("measured", "rk4", "1e-3"),
            ("fine", "euler", "5e-4"),
            ("coarse", "euler", "2e-3"),
        ):
            out = tmp_path / f"{name}.csv"
            code = main(["simulate", "--method", method, "--h", step,
                         "--t-end", "50", "--points", "501",
                         "--out", str(out)])
            assert code == 0
            files[name] = str(out)
        capsys.readouterr()
        rp = tmp_path / "horizon.json"
        code, stdout, _ = run_cli(
            capsys, "horizon", "--measured", files["measured"],
            "--candidate", f"fine={files['fine']}",
            "--candidate", f"coarse={files['coarse']}",
            "--grid-points", "501", "--threshold", "0.1",
            "--report", str(rp))
        assert code == 0
        doc = json.loads(rp.read_text())
        by_id = {c["id"]: c for c in doc["candidates"]}
        assert by_id["fine"]["horizon_time"] >= by_id["coarse"]["horizon_time"]
        assert "winner: fine" in stdout


class TestSharedPipeline:
    """``compare`` and ``horizon`` run one pipeline over the same flags."""

    def test_reports_byte_identical(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        shared = ["--measured", files["measured"],
                  "--candidate", f"close={files['close']}",
                  "--candidate", f"rough={files['rough']}",
                  "--grid-points", "101", "--windows", "5",
                  "--threshold", "0.1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, "compare", *shared, "--report", str(a))[0] == 0
        assert run_cli(capsys, "horizon", *shared, "--report", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_horizon_takes_threshold_from_config(self, capsys, trace_dir):
        tmp_path, files = trace_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 0.01}))
        rp = tmp_path / "r.json"
        code, stdout, _ = run_cli(
            capsys, "horizon", "--config", str(cfg),
            "--measured", files["measured"],
            "--candidate", f"rough={files['rough']}",
            "--grid-points", "101", "--report", str(rp))
        assert code == 0
        assert json.loads(rp.read_text())["threshold"] == 0.01
        # Under the default threshold of 1.0 this horizon is
        # 1.9000000000000001 (test_horizon_default_threshold_is_compare_at_one).
        assert "rough: horizon=0 (exceeded)" in stdout


    def test_horizon_default_threshold_is_compare_at_one(self, capsys, trace_dir):
        # No flag and no config threshold, or a config null: horizon scores
        # at 1.0, and its report is the one compare writes at --threshold 1.
        tmp_path, files = trace_dir
        shared = ["--measured", files["measured"],
                  "--candidate", f"rough={files['rough']}", "--grid-points", "101"]
        want = tmp_path / "compare.json"
        assert run_cli(capsys, "compare", *shared, "--threshold", "1",
                       "--report", str(want))[0] == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": None}))
        for config in ([], ["--config", str(cfg)]):
            rp = tmp_path / "horizon.json"
            code, stdout, _ = run_cli(capsys, "horizon", *config, *shared,
                                      "--report", str(rp))
            assert code == 0
            assert "rough: horizon=1.9000000000000001 (exceeded)" in stdout
            assert rp.read_bytes() == want.read_bytes()
        # compare takes the null as no threshold: no horizons are reported.
        code, _, _ = run_cli(capsys, "compare", "--config", str(cfg), *shared,
                             "--report", str(want))
        assert code == 0
        doc = json.loads(want.read_text())
        assert doc["threshold"] is None
        assert "horizon_time" not in doc["candidates"][0]


class TestOutputPaths:
    """``compare`` and ``horizon`` refuse an output path that names an input
    or the other output, before any trace is read or any file written.
    Paths are compared resolved; inputs may share a file."""

    #: (command, measured trace, output flags); ``{d}`` is the trace directory.
    CASES = {
        "report is the windows CSV": (
            "compare", "measured", ["--report", "{d}/r.json", "--windows-out", "{d}/r.json"]),
        "report is the measured trace": ("compare", "measured", ["--report", "{d}/measured.csv"]),
        "windows CSV is a candidate": (
            "compare", "measured", ["--report", "{d}/r.json", "--windows-out", "{d}/close.csv"]),
        "default windows CSV is the measured trace": (
            "compare", "r_windows", ["--report", "{d}/r.json"]),
        "report spelled another way": (
            "compare", "measured", ["--report", "{d}/sub/../measured.csv"]),
        "horizon report is a candidate": ("horizon", "measured", ["--report", "{d}/close.csv"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_clashing_output_is_refused(self, capsys, monkeypatch, trace_dir, case):
        tmp_path, files = trace_dir
        (tmp_path / "sub").mkdir()
        (tmp_path / "r_windows.csv").write_bytes(Path(files["measured"]).read_bytes())
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        loads = []
        monkeypatch.setattr(cli, "load_trace", lambda *a, **k: loads.append(a))
        command, measured, outputs = self.CASES[case]
        code, _, stderr = run_cli(
            capsys, command, "--measured", f"{tmp_path}/{measured}.csv",
            "--candidate", f"close={files['close']}",
            "--candidate", f"again={files['close']}",
            *(arg.format(d=tmp_path) for arg in outputs))
        assert code == 2
        assert "names the same file as" in stderr
        assert loads == []
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_hard_link_to_an_input_is_refused(self, capsys, tmp_path):
        # A hard link resolves to its own path, so files are told apart by
        # inode: the report may not overwrite the measured trace through one.
        measured = tmp_path / "m.csv"
        measured.write_bytes(b"t,v\n0,1\n1,2\n2,0\n")
        link = tmp_path / "link.json"
        os.link(measured, link)
        code, _, stderr = run_cli(capsys, "compare", "--measured", str(measured),
                                  "--candidate", f"c={measured}", "--report", str(link))
        assert code == 2
        assert f"--report {link} names the same file as --measured" in stderr
        assert measured.read_bytes() == b"t,v\n0,1\n1,2\n2,0\n"
        assert not (tmp_path / "link_windows.csv").exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 5.0, "output_points": 51}))
        out = tmp_path / "run.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert "wrote 51 samples over [0, 5]" in stdout

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_end": 5.0, "output_points": 51}))
        out = tmp_path / "run.csv"
        code, stdout, _ = run_cli(
            capsys, "simulate", "--config", str(cfg),
            "--t-end", "8", "--out", str(out))
        assert code == 0
        assert "wrote 51 samples over [0, 8]" in stdout

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tend": 5.0, "stepp": 0.1}))
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "unknown keys" in stderr

    def test_time_scale_key_rejected(self, capsys, tmp_path):
        # time_scale_s changed no output, so a file that sets it is refused.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"time_scale_s": 1e-3}))
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "unknown keys: time_scale_s" in stderr

    @pytest.mark.parametrize("command,doc", [
        ("simulate", {"a": "abc"}),
        ("simulate", {"output_points": math.nan}),
        ("compare", {"grid_points": math.nan}),
        ("simulate", {"step": None}),
        ("simulate", {"sign": 5}),
        ("simulate", {"t_end": 10 ** 400}),
        ("simulate", {"ic": [10 ** 400, 0, 0]}),
        ("simulate", {"ic": [True, 0, 0.1]}),
        ("simulate", {"ic": ["0", "0", "0.1"]}),
        ("simulate", {"ic": [0, 0, math.inf]}),
        ("simulate", {"ic": "0,0,0.1"}),
        ("simulate", {"ic": "nan,0,0.1"}),
        ("simulate", {"method": "bogus"}),
        ("simulate", {"sign": "minuss"}),
        ("compare", {"mean_from": "median"}),
    ], ids=["a-string", "points-nan", "grid-points-nan", "step-null",
            "sign-number", "t-end-huge-int", "ic-huge-int", "ic-bool",
            "ic-strings", "ic-inf", "ic-text", "ic-text-nan", "method-name",
            "sign-name", "mean-from-name"])
    def test_malformed_value_is_usage_error(self, capsys, trace_dir,
                                            command, doc):
        tmp_path, files = trace_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if command == "simulate":
            rest = ["--out", str(tmp_path / "x.csv")]
        else:
            rest = ["--measured", files["measured"],
                    "--candidate", f"close={files['close']}",
                    "--report", str(tmp_path / "r.json")]
        code, _, stderr = run_cli(capsys, command, "--config", str(cfg), *rest)
        assert code == 2
        (key,) = doc
        assert stderr.startswith(f"error: config {cfg}: {key} ")

    def test_bad_format_name_refused_before_any_trace_is_read(self, capsys,
                                                              tmp_path):
        # The header line picks each file's layout, so a file may not name
        # a format at all, not even the one every file is read by.
        cfg = tmp_path / "cfg.json"
        for name in ("parquet", "auto"):
            cfg.write_text(json.dumps({"format": name}))
            code, _, stderr = run_cli(
                capsys, "compare", "--config", str(cfg),
                "--measured", str(tmp_path / "nope.csv"),
                "--candidate", f"a={tmp_path / 'nope.csv'}",
                "--report", str(tmp_path / "r.json"))
            assert code == 2
            assert stderr == f"error: config {cfg} has unknown keys: format\n"

    def test_format_flag_refused(self, capsys, trace_dir):
        _, files = trace_dir
        with pytest.raises(SystemExit) as info:
            main(["compare", "--measured", files["measured"],
                  "--candidate", f"close={files['close']}", "--format", "auto"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format auto" in capsys.readouterr().err

    def test_choice_names_keep_their_any_case_reading(self, capsys, tmp_path):
        # A config file's names are read in any ASCII case, surrounding
        # spaces stripped (TestChoiceNames covers every choice key).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": " RK4", "sign": "Minus",
                                   "t_end": 1.0, "output_points": 11}))
        code, stdout, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                                  "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert "(rk4, step 0.001)" in stdout

    def test_invalid_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "JSON" in stderr

    def test_non_object_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert stderr == f"error: config {cfg} must hold a JSON object\n"

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "ghost.json"),
            "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "cannot open config" in stderr

    _TRACE_CASE = (
        _TRACE_VALUES,
        ["--grid-points", "51", "--windows", "5", "--threshold", "0.5",
         "--nrmse-mean", "measured"],
        {"grid_points": 51, "n_windows": 5, "threshold": 0.5,
         "mean_from": MeanFrom.MEASURED})

    @pytest.mark.parametrize("command,doc,flags,want", [
        ("simulate",
         {"a": 2.05, "sign": "plus", "method": "euler", "ic": [0.5, -1, 0.25],
          "step": 2e-3, "t_end": 3, "output_points": 31},
         ["--a", "2.05", "--sign", "plus", "--method", "euler",
          "--ic", "0.5,-1,0.25", "--h", "0.002", "--t-end", "3", "--points", "31"],
         {"a": 2.05, "sign": Sign.PLUS, "ic": SystemState(0.5, -1.0, 0.25),
          "method": Method.EULER, "step": 2e-3, "t_start": 0.0, "t_end": 3.0,
          "output_points": 31}),
        ("compare", *_TRACE_CASE),
        ("horizon", *_TRACE_CASE),
    ], ids=["simulate", "compare", "horizon"])
    def test_config_file_and_flags_give_equal_run_configs(self, tmp_path, command,
                                                          doc, flags, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rest = (["--out", "x.csv"] if command == "simulate"
                else ["--measured", "m.csv", "--candidate", "c=c.csv"])
        parse = cli._build_parser().parse_args
        merged = lambda argv: cli._merged_config(parse(argv), CONFIGS[command])
        from_file = merged([command, "--config", str(cfg), *rest])
        from_flags = merged([command, *flags, *rest])
        assert from_file == from_flags == want
        # Of the same types too: the file's integer t_end is the float the
        # flag gives, as the library reads it.
        types = lambda cfg: {key: type(value) for key, value in cfg.items()}
        assert types(from_file) == types(from_flags)

    def test_run_config_holds_the_library_values(self):
        sim, comp = cli._SIMULATE, cli._COMPARE
        assert isinstance(sim["sign"], Sign)
        assert isinstance(sim["method"], Method)
        assert isinstance(comp["mean_from"], MeanFrom)
        assert isinstance(sim["ic"], SystemState)

    def test_non_finite_flag_gets_the_config_wording(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(capsys, "simulate", "--a", "nan", "--out", str(out))
        assert code == 2
        assert stderr == "error: a must be a finite number, got nan\n"
        assert not out.exists()

    def test_several_bad_flags_get_one_refusal_under_any_hash_seed(
            self, monkeypatch, tmp_path):
        # Flags are checked in table order, not in a set's order, which
        # follows the process's string hash seed.
        argv = ["-m", "jerklab", "simulate", "--t-end", "nan", "--h", "nan",
                "--a", "nan", "--out", str(tmp_path / "x.csv")]
        for seed in ("0", "1", "2", "3"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            proc = run_python(*argv)
            assert proc.returncode == 2
            assert proc.stderr == "error: a must be a finite number, got nan\n", seed

    def test_config_ic_as_list(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"ic": [0.0, 0.0, 0.2], "t_end": 5.0, "output_points": 21}))
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg),
            "--out", str(tmp_path / "x.csv"))
        assert code == 0

    @pytest.mark.parametrize("command", ["compare", "horizon"])
    def test_integer_threshold_writes_the_flags_report(self, capsys, trace_dir,
                                                       command):
        # A config file's integer reaches the report as the float the flag
        # gives, so the same settings give the same report bytes.
        tmp_path, files = trace_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 1}))
        inputs = ["--measured", files["measured"],
                  "--candidate", f"rough={files['rough']}"]
        written = []
        for name, settings in (("file", ["--config", str(cfg)]),
                               ("flag", ["--threshold", "1"])):
            report = tmp_path / f"{name}.json"
            code, _, stderr = run_cli(capsys, command, *settings, *inputs,
                                      "--report", str(report))
            assert code == 0, stderr
            written.append(report.read_bytes())
        assert b'"threshold": 1.0\n' in written[1]
        assert written[0] == written[1]


def _config_run(capsys, trace_dir, command, doc):
    """Run ``command`` with ``doc`` as its config file; its stdout and the
    bytes of every file it writes."""
    tmp_path, files = trace_dir
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    if command == "simulate":
        rest, written = ["--out", str(tmp_path / "x.csv")], ["x.csv"]
    else:
        rest = ["--measured", files["measured"],
                "--candidate", f"close={files['close']}",
                "--candidate", f"rough={files['rough']}",
                "--report", str(tmp_path / "r.json")]
        written = ["r.json", "r_windows.csv"][:2 if command == "compare" else 1]
    code, stdout, stderr = run_cli(capsys, command, "--config", str(cfg), *rest)
    assert code == 0, stderr
    return stdout, [(tmp_path / name).read_bytes() for name in written]


class TestEveryAcceptedKeyIsRead:
    """A command accepts a config key only if the key changes what it does."""

    BASE = {"simulate": {"t_end": 2.0, "output_points": 21},
            "compare": {"grid_points": 101}, "horizon": {"grid_points": 101}}

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_each_key_changes_the_output(self, capsys, trace_dir, command):
        table = CONFIGS[command]
        other = OTHER_VALUES[command]
        assert list(other) == list(table)
        base = self.BASE[command]
        before = _config_run(capsys, trace_dir, command, base)
        for key, value in other.items():
            assert cli._field_value(table, key, value) != table[key], key
            assert value != base.get(key), key
            after = _config_run(capsys, trace_dir, command, {**base, key: value})
            assert after != before, key

    @pytest.mark.parametrize("command,key", [
        (command, key) for command in sorted(CONFIGS)
        for other in ("compare", "simulate") for key in OTHER_VALUES[other]
        if key not in CONFIGS[command]])
    def test_key_of_another_command_refused(self, capsys, tmp_path, command,
                                            key):
        value = {**OTHER_VALUES["simulate"], **OTHER_VALUES["compare"]}[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        missing = str(tmp_path / "nope.csv")  # read only after the config
        rest = (["--out", str(tmp_path / "x.csv")] if command == "simulate"
                else ["--measured", missing, "--candidate", f"a={missing}",
                      "--report", str(tmp_path / "r.json")])
        code, stdout, stderr = run_cli(capsys, command, "--config", str(cfg), *rest)
        assert code == 2
        assert stderr == f"error: config {cfg} has unknown keys: {key}\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [cfg]

    def test_readme_lists_each_commands_keys(self):
        # README states which keys each command's config file accepts; it
        # must name the keys of the command's settings table, in order.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| `([\w, ]+)` \|$",
                          readme.read_text(encoding="utf-8"), re.MULTILINE)
        listed = {command.strip("`"): keys.split(", ")
                  for commands, keys in rows for command in commands.split(", ")}
        assert listed == {command: list(table)
                          for command, table in CONFIGS.items()}


class TestSettingsTables:
    """Each command's table holds the library's parameter names and defaults,
    and no run changes it."""

    @staticmethod
    def _same(value, default):
        return type(value) is type(default) and value == default

    def test_compare_keys_are_build_comparison_keywords(self):
        params = inspect.signature(build_comparison).parameters
        for key, default in cli._COMPARE.items():
            assert params[key].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, key
            assert self._same(default, params[key].default), key

    def test_simulate_keys_are_library_fields(self):
        library = {f.name: f.default
                   for cls in (JerkParams, IntegratorConfig)
                   for f in dataclasses.fields(cls)}
        for key, default in cli._SIMULATE.items():
            if key == "ic":
                assert self._same(default, DEFAULT_INITIAL_STATE)
                assert self._same(default, library["initial_state"])
            else:
                assert self._same(default, library[key]), key

    def test_horizon_threshold_is_the_one_default_the_cli_owns(self):
        # horizon needs a threshold, which build_comparison does not default
        # to; every other horizon setting is compare's, in compare's order.
        params = inspect.signature(build_comparison).parameters
        assert params["threshold"].default is None
        assert cli._HORIZON == {**cli._COMPARE, "threshold": 1.0}
        assert list(cli._HORIZON) == list(cli._COMPARE)
        assert type(cli._HORIZON["threshold"]) is float

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_running_a_command_leaves_the_tables_unchanged(self, capsys,
                                                           trace_dir, command):
        before = {name: dict(table) for name, table in CONFIGS.items()}
        # Once on the defaults (horizon's table then supplies its threshold),
        # once with every key set.
        for doc in ({}, OTHER_VALUES[command]):
            _config_run(capsys, trace_dir, command, doc)
            assert {name: dict(table) for name, table in CONFIGS.items()} == before


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "run.csv"
        proc = run_python("-m", "jerklab", "simulate",
                          "--t-end", "5", "--points", "21", "--out", str(out))
        assert proc.returncode == 0
        assert "wrote 21 samples" in proc.stdout
        assert out.exists()

    def test_help_exits_zero(self):
        proc = run_python("-m", "jerklab", "--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


def _options(command):
    """``command``'s options, each flag mapped to its argparse action."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {flag: action for action in sub.choices[command]._actions
            for flag in action.option_strings}


class TestHelpDefaults:
    _TRACE_FLAGS = {"--windows": "n_windows", "--grid-points": "grid_points",
                    "--nrmse-mean": "mean_from"}
    FLAGS = {
        "simulate": {"--a": "a", "--sign": "sign", "--ic": "ic",
                     "--method": "method", "--h": "step", "--t-end": "t_end",
                     "--points": "output_points"},
        "compare": _TRACE_FLAGS,
        "horizon": {**_TRACE_FLAGS, "--threshold": "threshold"},
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_shows_each_run_config_default(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        options = _options(command)
        shown = {}
        for flag, field in self.FLAGS[command].items():
            value = CONFIGS[command][field]
            if isinstance(value, enum.Enum):
                shown[flag] = value.name.lower()
            elif isinstance(value, SystemState):
                shown[flag] = ",".join(map(format_float, value.as_tuple()))
            else:
                shown[flag] = format_float(value)
        for flag, text in shown.items():
            flag_help = " ".join(options[flag].help.split())
            assert f"default {text}" in flag_help, flag
            assert flag_help in help_text, flag

    @pytest.mark.parametrize("command,key", CHOICES)
    def test_choices_are_the_enum_member_names(self, command, key):
        # The choice's one flag lists its members' lowercase names, and the
        # config reading gives back each member from its listed name.
        table = CONFIGS[command]
        (action,) = {a for a in _options(command).values() if a.dest == key}
        members = list(type(table[key]))
        assert action.choices == [m.name.lower() for m in members]
        assert [cli._field_value(table, key, c) for c in action.choices] == members


def _names(command, key):
    """The lowercase names of the members of ``command``'s choice ``key``."""
    return [m.name.lower() for m in type(CONFIGS[command][key])]


def _refused(command, key, kind):
    """Config values of one ``kind`` that ``command``'s choice ``key`` refuses."""
    names = _names(command, key)
    values = {
        "other-choices": [name for choice in CHOICES for name in _names(*choice)],
        "garbage": ["garbage", "", names[0] + "x", f"{names[0]} {names[-1]}"],
        "not-a-string": [5, 1.5, math.nan, 10**400, None, True, names[:1],
                         {"name": names[0]}],
        # Text that Unicode case mapping or stripping would read as a name:
        # a dotless i as I, a long s as S, a no-break or ideographic space.
        "non-ascii": ["\u00a0rk4", "s\u0131mulated"] + [
            variant for name in names
            for variant in ("\u00a0" + name, name + "\u3000",
                            name.replace("i", "\u0131"), name.replace("s", "\u017f"))],
    }[kind]
    return [value for value in values if value not in names]


class TestChoiceNames:
    """A config file names a choice by one of its enum's members' lowercase
    names, the names its flag lists. Every key whose table default is an enum
    member is covered, read from the tables."""

    @staticmethod
    def _run(capsys, tmp_path, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        missing = str(tmp_path / "nope.csv")  # read only after the config
        rest = (["--out", str(tmp_path / "x.csv")] if command == "simulate"
                else ["--measured", missing, "--candidate", f"a={missing}"])
        return cfg, run_cli(capsys, command, "--config", str(cfg), *rest)

    def test_the_choice_keys_are_found_in_the_tables(self):
        assert {("compare", "mean_from"), ("horizon", "mean_from"),
                ("simulate", "sign"), ("simulate", "method")} <= set(CHOICES)

    @pytest.mark.parametrize("command,key,name", [
        (command, key, name) for command, key in CHOICES
        for name in _names(command, key)])
    def test_any_ascii_case_and_surrounding_spaces_give_the_member(
            self, tmp_path, command, key, name):
        table = CONFIGS[command]
        member = type(table[key])[name.upper()]
        rest = (["--out", "x.csv"] if command == "simulate"
                else ["--measured", "m.csv", "--candidate", "c=c.csv"])
        cfg = tmp_path / "cfg.json"
        for text in (name, name.upper(), name.capitalize(),
                     name.capitalize().swapcase(), f"  {name}  ",
                     f"\t{name.upper()}\n"):
            cfg.write_text(json.dumps({key: text}))
            args = cli._build_parser().parse_args([command, "--config", str(cfg),
                                                   *rest])
            assert cli._merged_config(args, table)[key] is member, text

    @pytest.mark.parametrize("kind", ["other-choices", "garbage", "not-a-string",
                                      "non-ascii"])
    @pytest.mark.parametrize("command,key", CHOICES)
    def test_anything_else_exits_2_listing_the_names(self, capsys, tmp_path,
                                                     command, key, kind):
        names = _names(command, key)
        quoted = [f"'{name}'" for name in names]
        values = _refused(command, key, kind)
        assert values
        for value in values:
            cfg, (code, stdout, stderr) = self._run(capsys, tmp_path, command,
                                                    key, value)
            assert code == 2, value
            assert stdout == ""
            head = f"error: config {cfg}: {key} must be "
            assert stderr.startswith(head), value
            listed, got = stderr[len(head):].rsplit(", got ", 1)
            assert got == f"{value!r}\n"
            assert re.findall(r"'([^']*)'", listed) == names
            assert listed == f"{', '.join(quoted[:-1])} or {quoted[-1]}"

    def test_method_refusal_lists_three_names(self, capsys, tmp_path):
        cfg, (code, _, stderr) = self._run(capsys, tmp_path, "simulate",
                                           "method", "rk5")
        assert code == 2
        assert stderr == (f"error: config {cfg}: method must be 'euler', "
                          "'rk4' or 'rk45', got 'rk5'\n")
