"""Command-line front end.

Three subcommands cover the pipeline end to end:

* ``jerklab simulate`` — integrate the oscillator and write a trace CSV;
* ``jerklab compare``  — score candidate traces against a measured one,
  writing a JSON report plus a per-window CSV;
* ``jerklab horizon``  — report per-candidate prediction horizons.

Each command's settings are one table keyed by the library's own parameter
names, holding its defaults (``_SIMULATE``, ``_COMPARE``, and ``_HORIZON``:
``_COMPARE`` with a threshold of 1.0, the one default the CLI owns). A JSON
``--config`` file overrides the table, flags override the file, and the
result goes to the library as keyword arguments.

Exit statuses: 0 success; 1 I/O or data failure; 2 usage/validation failure.
"""

from __future__ import annotations

import argparse
import enum
import inspect
import json
import math
import os
import sys
from pathlib import Path

from .core import DEFAULT_INITIAL_STATE, JerkParams, Sign, SystemState
from .errors import DataError, ValidationError, _require_member
from .ingest import format_float, load_trace, write_series_csv
from .integrate import IntegratorConfig, Method, simulate
from .metrics import MeanFrom, build_comparison

_COMPARISON = inspect.signature(build_comparison).parameters


#: Every setting ``simulate`` reads, keyed by the library's parameter name
#: (``ic`` is ``IntegratorConfig``'s ``initial_state``), with its default.
_SIMULATE = {"a": JerkParams().a, "sign": JerkParams().sign,
             "ic": DEFAULT_INITIAL_STATE,
             **{key: getattr(IntegratorConfig(), key)
                for key in ("method", "step", "t_start", "t_end", "output_points")}}
#: Every setting ``compare`` and ``horizon`` read: ``build_comparison``'s
#: keywords with their defaults.
_COMPARE = {key: _COMPARISON[key].default
            for key in ("grid_points", "n_windows", "threshold", "mean_from")}
#: Every setting ``horizon`` reads: ``compare``'s, with a threshold of 1.0.
_HORIZON = {**_COMPARE, "threshold": 1.0}


def _config_file(path: str, table):
    """The settings of the JSON ``--config`` file ``path``, each checked
    against ``table``; a key that is not in ``table`` is refused."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open config {path}: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ValidationError(f"config {path} has unknown keys: "
                              f"{', '.join(unknown)}")
    try:
        return {key: _field_value(table, key, value) for key, value in doc.items()}
    except ValidationError as exc:
        raise ValidationError(f"config {path}: {exc}") from None


def _field_value(table, key: str, value):
    """``value`` as the setting ``key`` of ``table``: a choice's name (any
    ASCII case) as its member, an ``ic`` list of three finite numbers as a
    ``SystemState``, an integer as it is where the default is an integer, and
    any other finite number as a float, as the library reads it
    (``threshold`` may also be null, which means the table's default)."""
    default = table.get(key)  # None for compare's threshold and an ic component
    if isinstance(default, enum.Enum):
        *names, last = (f"'{m.name.lower()}'" for m in type(default))
        return _require_member(type(default), value, f"{key} must be "
                               f"{', '.join(names)} or {last}, got {{!r}}")
    if isinstance(default, SystemState):
        if not isinstance(value, list):
            raise ValidationError(f"ic must be three numbers, got {value!r}")
        components = [_field_value(table, "ic component", v) for v in value]
        if len(components) != 3:
            raise ValidationError(f"ic must have exactly 3 components, got {len(value)}")
        return SystemState(*components)
    if type(default) is int:
        ok, want = type(value) is int, "an integer"
    elif key == "threshold" and value is None:
        return default
    else:
        try:
            ok = type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            ok = False
        want = "a finite number"
    if not ok:
        raise ValidationError(f"{key} must be {want}, got {value!r}")
    return value if type(default) is int else float(value)


def _merged_config(args: argparse.Namespace, table):
    """A fresh dict of ``table``'s settings: its defaults, then the checked
    ``--config`` file, then each flag that was given."""
    cfg = dict(table)
    if args.config:
        cfg.update(_config_file(args.config, table))
    for key in table:  # in table order, so one argv gets one refusal
        if key != "ic" and (value := getattr(args, key, None)) is not None:
            cfg[key] = _field_value(table, key, value)
    if (text := getattr(args, "ic", None)) is not None:
        try:
            cfg["ic"] = _field_value(table, "ic", [float(p) for p in text.split(",")])
        except ValidationError as exc:
            raise ValidationError(f"--ic: {exc}") from None
        except ValueError:  # a part float() cannot read
            raise ValidationError(
                f"--ic: ic components must be numbers, got {text!r}") from None
    return cfg


#: The windows CSV's first column, the sample count that ends each prefix.
_BOUNDARY_COLUMN = "prefix_end"


def _build_report(args: argparse.Namespace, cfg, outputs):
    """Load the measured and candidate traces and score them with the
    ``build_comparison`` settings ``cfg``: the pipeline that ``compare`` and
    ``horizon`` share. ``outputs`` are the (label, path) pairs of the files
    the command will write."""
    def load(path, source_id):
        try:
            return load_trace(path, source_id=source_id)
        except OSError as exc:
            raise DataError(f"cannot open {path}: {exc}") from None

    def file_of(path):  # an existing file by inode: a hard link is that file
        try:
            return (st := os.stat(path)).st_dev, st.st_ino
        except OSError:
            return Path(path).resolve()

    paths = {}
    for spec_text in args.candidate:
        name, sep, path = spec_text.partition("=")
        if not sep or not name or not path:
            raise ValidationError(f"--candidate expects NAME=FILE, got {spec_text!r}")
        if set(name) & set(',"\r\n'):  # the name heads a windows CSV column
            raise ValidationError(f"--candidate NAME may not hold a comma, double "
                                  f"quote or line break, got {spec_text!r}")
        if name == _BOUNDARY_COLUMN:
            raise ValidationError(f"--candidate NAME may not be the windows CSV's "
                                  f"first column {name!r}, got {spec_text!r}")
        if name in paths:
            raise ValidationError(f"duplicate candidate name {name!r}")
        paths[name] = path
    # Inputs may share a file; an output may share none.
    taken = {file_of(path): f"--candidate {name}" for name, path in paths.items()}
    taken[file_of(args.measured)] = "--measured"
    for label, path in outputs:
        key = file_of(path)
        if key in taken:
            raise ValidationError(f"{label} {path} names the same file as {taken[key]}")
        taken[key] = label
    measured = load(args.measured, "measured")
    candidates = {name: load(path, name) for name, path in paths.items()}
    return build_comparison(measured, candidates, **cfg)


def _report_payload(report, threshold):
    payload = {
        "grid": {
            "t0": report.grid.t0,
            "t1": report.grid.t1,
            "n": report.grid.n,
            "dt": report.grid.dt,
        },
        "n_windows": report.n_windows,
        "mean_from": report.mean_from.value,
        "threshold": threshold,
        "reference_id": report.reference_id,
        "candidates": [],
    }
    for cand in report.candidates:
        entry = {
            "id": cand.id,
            "full_nrmse": cand.full_nrmse,
            "boundaries": list(cand.windowed.boundaries),
            "scores": cand.windowed.scores.tolist(),
        }
        if cand.horizon is not None:
            entry["horizon_time"] = cand.horizon.time
            entry["horizon_exceeded"] = cand.horizon.exceeded
        payload["candidates"].append(entry)
    return payload


def _write_report_json(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _write_windows_csv(path: str, report) -> None:
    ids = [c.id for c in report.candidates]
    lines = [",".join([_BOUNDARY_COLUMN, *ids])]
    boundaries = report.candidates[0].windowed.boundaries
    for row, boundary in enumerate(boundaries):
        cells = [str(boundary)]
        cells.extend(format_float(c.windowed.scores[row]) for c in report.candidates)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, _SIMULATE)
    params = JerkParams(a=cfg.pop("a"), sign=cfg.pop("sign"))
    config = IntegratorConfig(initial_state=cfg.pop("ic"), **cfg)
    result = simulate(config, params)
    # The trace carries the xdd channel: the measurable node in the analogue
    # realization this pipeline's comparisons are styled after.
    Path(args.out).write_bytes(write_series_csv(result.xdd))
    print(
        f"wrote {config.output_points} samples over "
        f"[{format_float(config.t_start)}, {format_float(config.t_end)}] "
        f"({config.method.value}, step {format_float(config.step)}) to {args.out}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, _COMPARE)
    windows_path = args.windows_out or str(
        Path(args.report).with_name(Path(args.report).stem + "_windows.csv"))
    report = _build_report(args, cfg, [("--report", args.report),
                                       ("windows CSV", windows_path)])
    _write_report_json(args.report, _report_payload(report, cfg["threshold"]))
    _write_windows_csv(windows_path, report)
    for cand in report.candidates:
        marker = "  <- reference" if cand.id == report.reference_id else ""
        print(f"{cand.id}: full NRMSE {cand.full_nrmse:.6g}{marker}")
    print(f"reference: {report.reference_id}")
    print(f"report: {args.report}")
    print(f"windows: {windows_path}")
    return 0


def cmd_horizon(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, _HORIZON)
    report = _build_report(args, cfg, [("--report", args.report)] if args.report else [])
    for cand in report.candidates:
        hz = cand.horizon
        state = "exceeded" if hz.exceeded else "not exceeded"
        print(f"{cand.id}: horizon={format_float(hz.time)} ({state})")
    best = max(report.candidates, key=lambda c: c.horizon.time)  # first of a tie
    print(f"winner: {best.id} (horizon={format_float(best.horizon.time)})")
    if args.report:
        _write_report_json(args.report, _report_payload(report, cfg["threshold"]))
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    sd, cd, hd = _SIMULATE, _COMPARE, _HORIZON  # every "(default ...)" below
    num = format_float
    parser = argparse.ArgumentParser(
        prog="jerklab",
        description="Simulate a quadratic jerk chaotic oscillator and "
                    "analyze the reproducibility of its traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file (flags override it)")

    traces = argparse.ArgumentParser(add_help=False)
    traces.add_argument("--measured", required=True, help="measured trace file")
    traces.add_argument("--candidate", action="append", required=True,
                        metavar="NAME=FILE", help="candidate trace (repeatable)")
    traces.add_argument("--windows", type=int, dest="n_windows",
                        help=f"number of cumulative windows (default {num(cd['n_windows'])})")
    traces.add_argument("--grid-points", type=int, dest="grid_points",
                        help=f"common-grid sample count (default {num(cd['grid_points'])})")
    traces.add_argument("--nrmse-mean", choices=[m.name.lower() for m in MeanFrom],
                        dest="mean_from", help="which series supplies the "
                        f"normalizing mean (default {cd['mean_from'].name.lower()})")

    sim = sub.add_parser("simulate", parents=[config],
                         help="integrate the system, write a trace CSV")
    sim.add_argument("--a", type=float, dest="a",
                     help=f"bifurcation parameter (default {num(sd['a'])})")
    sim.add_argument("--sign", choices=[m.name.lower() for m in Sign],
                     help=f"sign of the quadratic term (default {sd['sign'].name.lower()})")
    sim.add_argument("--ic", help="initial state as X,XD,XDD "
                                  f"(default {','.join(map(num, sd['ic'].as_tuple()))})")
    sim.add_argument("--method", choices=[m.name.lower() for m in Method],
                     help=f"integration method (default {sd['method'].name.lower()})")
    sim.add_argument("--h", type=float, dest="step",
                     help="step ceiling (fixed-step) or initial step (rk45); "
                          f"default {num(sd['step'])}")
    sim.add_argument("--t-end", type=float, dest="t_end",
                     help=f"end of the integration span (default {num(sd['t_end'])})")
    sim.add_argument("--points", type=int, dest="output_points",
                     help=f"number of output samples (default {num(sd['output_points'])})")
    sim.add_argument("--out", required=True, help="output trace CSV path")
    sim.set_defaults(func=cmd_simulate)

    comp = sub.add_parser("compare", parents=[config, traces],
                          help="score candidate traces against a measured trace")
    comp.add_argument("--threshold", type=float,
                      help="also compute prediction horizons at this NRMSE "
                           "threshold")
    comp.add_argument("--report", default="report.json",
                      help="JSON report path (default %(default)s)")
    comp.add_argument("--windows-out",
                      help="per-window CSV path (default <report>_windows.csv)")
    comp.set_defaults(func=cmd_compare)

    hor = sub.add_parser("horizon", parents=[config, traces],
                         help="per-candidate prediction horizons")
    hor.add_argument("--threshold", type=float,
                     help=f"NRMSE threshold (default {num(hd['threshold'])})")
    hor.add_argument("--report", help="optional JSON report path")
    hor.set_defaults(func=cmd_horizon)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
