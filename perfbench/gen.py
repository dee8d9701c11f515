"""Generate one workload's input files and the independent oracle values the
checks compare against.

Run as its own process during set-up (``python perfbench/gen.py WORKLOAD SEED
DIR``), so that scipy and the large generation buffers never count towards the
measured process's memory. Everything is derived from SEED: the same seed
gives byte-identical inputs. The result is ``DIR/inputs.json``.

The "measured" captures are the exact solution (scipy DOP853 at rtol 1e-12)
sampled at jittered scope times plus Gaussian noise; candidates are written by
``jerklab simulate`` itself, because reproducing a capture with the package
is what the compare workloads stand for.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from spec import DRAWS, ORACLE_T_END, RUNS, SIM_POINTS, SIM_T_END, WORKLOADS
from workloads import fmt

_DENSE_RTOL = 1e-12


def _rhs(t, y, a):
    return [y[1], y[2], -a * y[2] - y[0] - y[1] * y[1]]


def _solve(a, ic, t_end, rtol, dense=False):
    return solve_ivp(_rhs, (0.0, t_end), list(ic), method="DOP853",
                     rtol=rtol, atol=rtol, args=(a,), dense_output=dense)


def _bounded(a, ic) -> bool:
    sol = _solve(a, ic, SIM_T_END, 1e-10)
    return sol.status == 0 and float(np.abs(sol.y).max()) < 20.0


def draw(seed: int):
    """A bifurcation parameter and initial state near the defaults.

    The basin of the attractor is thin (from (0, 0, 0.01) the orbit escapes),
    so a draw is kept only if the oracle keeps it bounded over the whole span
    and also keeps bounded every neighbour 1e-3 away in ``a`` and in the
    initial kick: integrator error far smaller than that must then not decide
    between capture and escape.
    """
    rng = random.Random(seed)
    while True:
        a = rng.uniform(*DRAWS["a"])
        ic = (0.0, 0.0, rng.uniform(*DRAWS["xdd0"]))
        if all(_bounded(a + da, (0.0, 0.0, ic[2] + dz))
               for da in (0.0, -1e-3, 1e-3) for dz in (0.0, -1e-3, 1e-3)):
            return a, ic


def sim_grid() -> np.ndarray:
    """The output grid of a default-span simulation, t0 + k*dt."""
    dt = (SIM_T_END - 0.0) / (SIM_POINTS - 1)
    return 0.0 + np.arange(SIM_POINTS, dtype=np.float64) * dt


def _write_rows(path: Path, header: str, t, v, delim: str) -> None:
    rows = [header]
    rows.extend(f"{fmt(a)}{delim}{fmt(b)}" for a, b in zip(t, v))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_rows(path: Path):
    """Independent two-column reader: header line, then ``t<sep>v`` rows."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    sep = "\t" if "\t" in lines[0] else ","
    pairs = [line.split(sep) for line in lines if line.strip()]
    return (np.array([float(p[0]) for p in pairs]),
            np.array([float(p[1]) for p in pairs]))


def _cli(argv) -> None:
    from jerklab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"generating a candidate failed: jerklab {argv} -> {code}")


def _simulate_candidate(d: Path, name: str, a: float, ic, extra, spice: bool) -> str:
    csv = d / f"{name}.csv"
    ic_text = ",".join(fmt(c) for c in ic)
    _cli(["simulate", "--a", fmt(a), "--ic", ic_text, "--t-end", fmt(SIM_T_END),
          "--points", str(SIM_POINTS), "--out", str(csv), *extra])
    if not spice:
        return csv.name
    lines = csv.read_text(encoding="utf-8").splitlines()[1:]
    tsv = d / f"{name}.tsv"
    tsv.write_text("\n".join(["time\tV(xdd)", *(ln.replace(",", "\t") for ln in lines)])
                   + "\n", encoding="utf-8")
    csv.unlink()
    return tsv.name


def _prefix_score(y, yhat, b: int) -> float:
    """NRMSE of the first ``b`` samples, simulated-mean variant, with fsum."""
    ybar = math.fsum(yhat[:b].tolist()) / b
    num = math.fsum(((y[:b] - yhat[:b]) ** 2).tolist())
    den = math.fsum(((y[:b] - ybar) ** 2).tolist())
    return math.sqrt(num) / math.sqrt(den)


def compare_oracle(series: dict[str, tuple], grid_points: int, n_windows: int,
                   threshold: float | None) -> dict:
    """Expected scores from numpy ``interp`` and ``math.fsum``.

    ``series`` maps "measured" and each candidate id to its (t, v) arrays.
    """
    t0 = max(float(t[0]) for t, _ in series.values())
    t1 = min(float(t[-1]) for t, _ in series.values())
    dt = (t1 - t0) / (grid_points - 1)
    grid = t0 + np.arange(grid_points, dtype=np.float64) * dt
    y = np.interp(grid, *series["measured"])
    bounds = [round(j * grid_points / n_windows) for j in range(1, n_windows + 1)]
    cands = {}
    for name, (t, v) in series.items():
        if name == "measured":
            continue
        scores = [_prefix_score(y, np.interp(grid, t, v), b) for b in bounds]
        cands[name] = {"full_nrmse": scores[-1], "scores": scores}
    return {"grid": {"t0": t0, "t1": t1, "n": grid_points}, "n_windows": n_windows,
            "boundaries": bounds, "threshold": threshold, "candidates": cands}


def gen_simulate_set(seed: int, d: Path) -> dict:
    a, ic = draw(seed)
    grid = sim_grid()
    early = grid[grid <= ORACLE_T_END]
    sol = _solve(a, ic, ORACLE_T_END + 0.1, _DENSE_RTOL, dense=True)
    return {"draw": {"a": a, "ic": list(ic)},
            "oracle": {"t": early.tolist(), "xdd": sol.sol(early)[2].tolist()}}


def gen_compare(seed: int, d: Path, spec: dict) -> dict:
    a, ic = draw(seed)
    rng = np.random.default_rng(seed)
    rows = spec["measured_rows"]
    step = SIM_T_END / (rows - 1)
    t = np.arange(rows, dtype=np.float64) * step
    # Scope timing jitter, at most a quarter sample, so times stay increasing;
    # the first and last sample keep their nominal times.
    t[1:-1] += rng.uniform(-0.25, 0.25, rows - 2) * step
    sol = _solve(a, ic, SIM_T_END, _DENSE_RTOL, dense=True)
    v = sol.sol(t)[2] + rng.normal(0.0, spec["noise"], rows)
    measured = d / "measured.csv"
    _write_rows(measured, "time,xdd", t.tolist(), v.tolist(), ",")

    candidates = {}
    for name in spec["candidates"]:
        da, dz, extra = RUNS[name]
        spice = name in spec["spice"]
        candidates[name] = _simulate_candidate(
            d, name, a + da, (ic[0], ic[1], ic[2] + dz), extra, spice)
    # repr() round-trips, so the arrays are exactly what the files hold.
    series = {"measured": (t, v), **{n: read_rows(d / f) for n, f in candidates.items()}}
    oracle = compare_oracle(series, spec["grid_points"], spec["n_windows"],
                            spec["threshold"])
    return {"draw": {"a": a, "ic": list(ic)}, "measured": measured.name,
            "candidates": candidates, "oracle": oracle}


def main(argv) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[workload]
    if workload == "simulate-set":
        doc = gen_simulate_set(seed, out)
    else:
        doc = gen_compare(seed, out, spec)
    doc.update(workload=workload, seed=seed)
    (out / "inputs.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
