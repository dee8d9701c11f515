"""Trace files in and out: CSV, simulator exports, and exact round-trips.

Run:  python3 demos/04_trace_files.py
"""

import tempfile
from pathlib import Path

import numpy as np

from jerklab import (
    IntegratorConfig,
    ParseError,
    load_trace,
    parse_trace,
    simulate,
    write_series_csv,
)

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    # --- Write a simulated trace and read it back -------------------------
    res = simulate(IntegratorConfig(t_end=10.0, output_points=101))
    path = tmp / "xdd.csv"
    path.write_bytes(write_series_csv(res.xdd))
    back = load_trace(path)
    exact = np.array_equal(back.v, res.xdd.values)
    print(f"wrote {len(back)} samples to {path.name}; "
          f"values round-tripped bit-exactly: {exact}")

    # --- Circuit-simulator exports are told apart by their tab layout -----
    spice_text = "time\tV(xdd)\n0.0\t1.0e-2\n1.0e-3\t2.0e-2\n2.0e-3\t1.5e-2\n"
    trace = parse_trace(spice_text)
    print(f"parsed export: {len(trace)} samples of {trace.meta.signal!r}")

    # --- Failures carry the physical line number --------------------------
    for label, text in [
        ("non-numeric cell", "t,v\n0,1\n1,zap\n"),
        ("time going backwards", "t,v\n0,1\n2,2\n1,3\n"),
        ("truncated file", "t,v\n0,1\n"),
    ]:
        try:
            parse_trace(text)
        except ParseError as exc:
            print(f"{label:>22}: {exc}")
