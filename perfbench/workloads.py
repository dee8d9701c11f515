"""The ops of each workload, and the checks that decide whether an op passed.

One op is a short list of ``jerklab`` command lines (steps). ``op_steps``
builds a workload's op from the generated inputs;
``check_op`` reads what an op wrote and raises :class:`~checks.CheckFailed` on
the first disagreement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import checks
from spec import ESCAPE_ARGS, RUNS, SIM_POINTS, SIM_T_END, SIM_TOL, WORKLOADS


@dataclass(frozen=True)
class Step:
    label: str
    argv: list[str]


@dataclass(frozen=True)
class StepResult:
    """What one ``jerklab.cli.main`` call did. ``code`` is None if it raised."""

    code: int | None
    stdout: str
    stderr: str
    raised: str | None = None


def fmt(x: float) -> str:
    """Shortest text that parses back to exactly ``x``."""
    return repr(float(x))


def op_steps(workload: str, inputs: dict, in_dir: Path, out_dir: Path) -> list[Step]:
    """The steps of one op of ``workload``; every op of a workload is the same."""
    spec = WORKLOADS[workload]
    if workload == "simulate-set":
        a = inputs["draw"]["a"]
        ic = ",".join(fmt(c) for c in inputs["draw"]["ic"])
        span = ["--t-end", fmt(SIM_T_END), "--points", str(SIM_POINTS)]
        op = [Step(name, ["simulate", "--a", fmt(a), "--ic", ic, *RUNS[name][2],
                          *span, "--out", str(out_dir / f"{name}.csv")])
              for name in spec["runs"]]
        op.append(Step("escape", ["simulate", *ESCAPE_ARGS, *span,
                                  "--out", str(out_dir / "escape.csv")]))
        return op
    files = ["--measured", str(in_dir / inputs["measured"])]
    for name, rel in inputs["candidates"].items():
        files += ["--candidate", f"{name}={in_dir / rel}"]
    flags = ["--windows", str(spec["n_windows"]), "--grid-points", str(spec["grid_points"])]
    if spec["threshold"] is not None:
        flags += ["--threshold", fmt(spec["threshold"])]
    op = []
    for cmd in spec["commands"]:
        extra = ["--report", str(out_dir / f"{cmd}.json")]
        if cmd == "compare":
            extra += ["--windows-out", str(out_dir / "compare_windows.csv")]
        op.append(Step(cmd, [cmd, *files, *flags, *extra]))
    return op


def _ok(label: str, res: StepResult) -> None:
    checks.require(res.raised is None, f"{label} raised {res.raised}")
    checks.require(res.code == 0, f"{label} exited {res.code}: {res.stderr.strip()}")


def check_op(workload: str, inputs: dict, results: dict[str, StepResult],
             out_dir: Path) -> None:
    """Check every artifact of one op; raise CheckFailed on the first fault."""
    spec = WORKLOADS[workload]
    if workload == "simulate-set":
        oracle = inputs["oracle"]
        for name in spec["runs"]:
            _ok(name, results[name])
            checks.check_trace((out_dir / f"{name}.csv").read_bytes(), SIM_T_END,
                               SIM_POINTS, oracle["t"], oracle["xdd"], SIM_TOL[name])
        esc = results["escape"]
        checks.require(esc.raised is None, f"escape raised {esc.raised}")
        checks.check_escape(esc.code, (out_dir / "escape.csv").exists())
        return
    oracle = inputs["oracle"]
    for cmd in results:
        _ok(cmd, results[cmd])
        report = checks.check_report((out_dir / f"{cmd}.json").read_bytes(), oracle)
        if cmd == "compare":
            checks.check_windows_csv((out_dir / "compare_windows.csv").read_bytes(),
                                     report)
        else:
            checks.check_horizon_stdout(results[cmd].stdout, report)


def digests(out_dir: Path, results: dict[str, StepResult]) -> dict[str, str]:
    """SHA-256 of every file the op wrote and of the horizon listing."""
    out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out_dir.iterdir())}
    if "horizon" in results:
        out["horizon.stdout"] = hashlib.sha256(
            results["horizon"].stdout.encode("utf-8")).hexdigest()
    return out
