"""What each workload runs, and the tolerances its checks allow.

Shared by the input generator, the harness and the harness's tests, so the
three cannot disagree about a workload.
"""

from __future__ import annotations

#: Default simulation span and sample count; every simulate call passes them
#: explicitly so a change of the CLI defaults does not change the work.
SIM_T_END = 100.0
SIM_POINTS = 4700

#: Seeded draws near the defaults (a = 2.03, initial kick xdd0 = 0.1).
DRAWS = {"a": (2.027, 2.038), "xdd0": (0.096, 0.1)}

#: Simulate runs: name -> (delta a, delta xdd0, extra CLI flags).
RUNS = {
    "rk4": (0.0, 0.0, ["--method", "rk4", "--h", "1e-3"]),
    "rk4_2h": (0.0, 0.0, ["--method", "rk4", "--h", "2e-3"]),
    "euler": (0.0, 0.0, ["--method", "euler", "--h", "1e-3"]),
    "rk45": (0.0, 0.0, ["--method", "rk45", "--h", "1e-3"]),
    "ic_1e-8": (0.0, 1e-8, ["--method", "rk4", "--h", "1e-3"]),
    "ic_1e-4": (0.0, 1e-4, ["--method", "rk4", "--h", "1e-3"]),
    "a_1e-4": (1e-4, 0.0, ["--method", "rk4", "--h", "1e-3"]),
}

#: The documented escaping start: jerklab must exit 1 and write nothing.
ESCAPE_ARGS = ["--a", "2.03", "--ic", "0,0,0.01", "--method", "rk4", "--h", "1e-3"]

#: Traces are checked against the DOP853 oracle over t in [0, ORACLE_T_END].
ORACLE_T_END = 10.0

#: Max |xdd - oracle| over [0, 10] per run. Pinned at roughly ten times the
#: worst error measured over 30 seeds at the commit that added the benchmark:
#: rk4 (h 1e-3 or 2e-3) 1.24e-11, euler 1.35e-4, rk45 9.4e-5. A more accurate
#: integrator passes; a wrong one does not.
SIM_TOL = {"rk4": 2e-10, "rk4_2h": 2e-10, "euler": 2e-3, "rk45": 1e-3}

#: Relative tolerance between jerklab's scores and the numpy-interp/fsum
#: oracle. Both interpolate linearly; they differ in rounding only.
SCORE_RTOL = 1e-9

WORKLOADS = {
    "simulate-set": {
        "runs": ["rk4", "rk4_2h", "euler", "rk45"],
    },
    "compare-windows": {
        "measured_rows": 20001,
        "noise": 1e-3,
        "candidates": ["rk4_2h", "euler", "rk45", "ic_1e-8", "ic_1e-4", "a_1e-4"],
        "spice": ["euler", "ic_1e-8", "a_1e-4"],
        "grid_points": 4700,
        "n_windows": 100,
        "threshold": 0.3,
        "commands": ["compare", "horizon"],
    },
    "long-capture": {
        "measured_rows": 100000,
        "noise": 1e-3,
        "candidates": ["rk4_2h", "rk45"],
        "spice": ["rk45"],
        "grid_points": 4700,
        "n_windows": 10,
        "threshold": None,
        "commands": ["compare"],
    },
}
