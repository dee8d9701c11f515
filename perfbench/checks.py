"""Correctness checks on the artifacts of one op.

Each check raises :class:`CheckFailed` with a precise message; the harness
counts an op with any failed check as failed. The checks read only the files
and text jerklab produced and the oracle values from ``gen.py``; they never
call jerklab.
"""

from __future__ import annotations

import json
import math
import re

from spec import SCORE_RTOL


class CheckFailed(Exception):
    """An artifact disagrees with its oracle or with itself."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_trace(data: bytes, t_end: float, points: int, oracle_t, oracle_xdd,
                tol: float) -> None:
    """A simulate trace: exact ``t0 + k*dt`` grid, finite values, and
    agreement with the oracle's xdd wherever the oracle has a sample."""
    lines = data.decode("utf-8").splitlines()
    require(len(lines) == points + 1,
            f"trace has {len(lines) - 1} rows, expected {points}")
    dt = (t_end - 0.0) / (points - 1)
    values = []
    for k, line in enumerate(lines[1:]):
        t_text, sep, v_text = line.partition(",")
        require(bool(sep), f"row {k} is not t,v: {line!r}")
        t, v = float(t_text), float(v_text)
        require(t == 0.0 + k * dt, f"row {k}: t={t!r}, expected {0.0 + k * dt!r}")
        require(math.isfinite(v), f"row {k}: non-finite value {v!r}")
        values.append(v)
    for k, (t, want) in enumerate(zip(oracle_t, oracle_xdd)):
        err = abs(values[k] - want)
        require(err <= tol, f"t={t!r}: |xdd - oracle| = {err:.3g} > {tol:g}")


def check_escape(code: int, wrote_file: bool) -> None:
    """The documented escaping start: exit status 1 and no trace written."""
    require(code == 1, f"escaping start exited {code}, expected 1")
    require(not wrote_file, "escaping start wrote a trace file")


def check_horizon(cand: dict, boundaries, dt: float, span: float,
                  threshold: float) -> None:
    """The horizon lies in the first window whose score exceeds the
    threshold, or is the full span when none does."""
    cid = cand["id"]
    first = next((j for j, s in enumerate(cand["scores"]) if s > threshold), None)
    require(cand["horizon_exceeded"] is (first is not None),
            f"{cid}: horizon_exceeded={cand['horizon_exceeded']} but the first "
            f"window above {threshold} is {first}")
    h = cand["horizon_time"]
    if first is None:
        require(_close(h, span, 1e-12), f"{cid}: horizon {h!r} is not the span {span!r}")
        return
    lo = 0.0 if first == 0 else (boundaries[first - 1] - 1) * dt
    hi = (boundaries[first] - 1) * dt
    require(lo <= h < hi,
            f"{cid}: horizon {h!r} outside the crossing window [{lo!r}, {hi!r})")


def check_report(data: bytes, oracle: dict) -> dict:
    """A compare/horizon JSON report against the numpy/fsum oracle."""
    report = json.loads(data)
    grid = report["grid"]
    for key in ("t0", "t1", "n"):
        require(grid[key] == oracle["grid"][key],
                f"grid {key}={grid[key]!r}, expected {oracle['grid'][key]!r}")
    require(report["n_windows"] == oracle["n_windows"],
            f"n_windows={report['n_windows']}, expected {oracle['n_windows']}")
    want = oracle["candidates"]
    got = {c["id"]: c for c in report["candidates"]}
    require(set(got) == set(want), f"candidates {sorted(got)}, expected {sorted(want)}")
    for cid, cand in got.items():
        require(cand["boundaries"] == oracle["boundaries"], f"{cid}: wrong boundaries")
        full, last = cand["full_nrmse"], cand["scores"][-1]
        require(full == last and math.copysign(1.0, full) == math.copysign(1.0, last),
                f"{cid}: full_nrmse {full!r} != last window score {last!r}")
        require(len(cand["scores"]) == len(want[cid]["scores"]),
                f"{cid}: {len(cand['scores'])} window scores")
        for j, (s, w) in enumerate(zip(cand["scores"], want[cid]["scores"])):
            require(_close(s, w, SCORE_RTOL),
                    f"{cid}: window {j} score {s!r}, oracle {w!r}")
    best = min(c["full_nrmse"] for c in want.values())
    ref = report["reference_id"]
    require(ref in want and want[ref]["full_nrmse"] <= best * (1 + SCORE_RTOL),
            f"reference_id {ref!r} does not attain the oracle minimum {best!r}")
    threshold = oracle["threshold"]
    if threshold is not None:
        require(report["threshold"] == threshold, "threshold not recorded")
        dt = grid["dt"]
        span = (grid["n"] - 1) * dt
        for cand in got.values():
            check_horizon(cand, oracle["boundaries"], dt, span, threshold)
    return report


def check_windows_csv(data: bytes, report: dict) -> None:
    """The per-window CSV repeats the report's boundaries and scores exactly."""
    lines = data.decode("utf-8").splitlines()
    cands = report["candidates"]
    require(lines[0] == "prefix_end," + ",".join(c["id"] for c in cands),
            f"windows header {lines[0]!r}")
    rows = lines[1:]
    require(len(rows) == len(cands[0]["boundaries"]), f"{len(rows)} window rows")
    for j, row in enumerate(rows):
        cells = row.split(",")
        require(int(cells[0]) == cands[0]["boundaries"][j], f"window row {j}: boundary")
        for c, cell in zip(cands, cells[1:]):
            require(float(cell) == c["scores"][j],
                    f"window row {j}: {c['id']} {cell} != {c['scores'][j]!r}")


_HORIZON_LINE = re.compile(r"^(.+): horizon=(\S+) \((exceeded|not exceeded)\)$")
_WINNER_LINE = re.compile(r"^winner: (.+) \(horizon=(\S+)\)$")


def check_horizon_stdout(text: str, report: dict) -> None:
    """``jerklab horizon`` prints one line per candidate matching the report,
    and a winner that attains the longest horizon."""
    cands = {c["id"]: c for c in report["candidates"]}
    seen = set()
    winner = None
    for line in text.splitlines():
        m = _HORIZON_LINE.match(line)
        if m:
            cid, value, state = m.groups()
            require(cid in cands, f"horizon line for unknown candidate {cid!r}")
            cand = cands[cid]
            require(float(value) == cand["horizon_time"],
                    f"{cid}: printed horizon {value} != report {cand['horizon_time']!r}")
            require((state == "exceeded") is cand["horizon_exceeded"],
                    f"{cid}: printed state {state!r}")
            seen.add(cid)
            continue
        m = _WINNER_LINE.match(line)
        if m:
            winner = m.groups()
    require(seen == set(cands), f"horizon lines for {sorted(seen)}, expected {sorted(cands)}")
    require(winner is not None, "no winner line")
    longest = max(c["horizon_time"] for c in cands.values())
    wid, value = winner
    require(wid in cands and cands[wid]["horizon_time"] == longest
            and float(value) == longest,
            f"winner {wid!r} (horizon={value}) does not attain the longest horizon "
            f"{longest!r}")
