"""Parsers and writers for trace files.

Two text formats are read, with LF or CRLF line endings: comma-separated
``time,value`` rows (the layout :func:`write_series_csv` writes) and
tab-separated exports from SPICE-style circuit simulators, whose header names
a ``time`` column. A file is decoded and split into lines once. Blank lines
are skipped but keep their physical numbering; the first non-blank line is
always the header, and the ``auto`` format reads that same line. Cells are
read by ``float()`` after stripping whitespace ("." is the only decimal
separator; ``1_0`` and non-ASCII digits are numbers). Values are checked
once, by :class:`TimeSeries`; only a file that fails is scanned again, to
name the first faulty row and its line.
"""

from __future__ import annotations

import math
from itertools import islice
from os import PathLike
from pathlib import Path

from .errors import InsufficientDataError, ParseError, ValidationError
from .series import SeriesMeta, TimeSeries, UniformSeries

#: The trace formats :func:`parse_trace` reads; ``auto`` picks one per file.
FORMATS = ("auto", "csv", "spice")


def _lines(data: bytes | str) -> list[str]:
    if isinstance(data, str):
        return data.splitlines()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # One more than the line breaks str.splitlines sees before the bad byte.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"not valid UTF-8 at byte {exc.start}") from None


def _numbered(lines: list[str], start: int = 0):
    """(1-based physical line number, stripped text) of each non-blank line."""
    for number, raw in enumerate(islice(lines, start, None), start + 1):
        line = raw.strip()
        if line:
            yield number, line


def _parse_rows(lines: list[str], start: int, time_col: int, value_col: int,
                delimiter: str, meta: SeriesMeta) -> TimeSeries:
    times: list[float] = []
    values: list[float] = []
    try:
        for _, line in _numbered(lines, start):
            fields = line.split(delimiter)
            times.append(float(fields[time_col].strip()))
            values.append(float(fields[value_col].strip()))
        return TimeSeries(t=times, v=values, meta=meta)
    except (IndexError, ValueError):  # ValidationError is a ValueError
        pass
    # A row is faulty or there are fewer than two: rescan with per-row checks
    # to name the first fault and its physical line.
    need, number, rows, prev = max(time_col, value_col) + 1, 1, 0, 0.0
    for number, line in _numbered(lines, start):
        fields = line.split(delimiter)
        if len(fields) < need:
            raise ParseError(
                number, f"expected at least {need} fields, found {len(fields)}")
        row = []
        for col in (time_col, value_col):
            text = fields[col].strip()
            try:
                row.append(float(text))
            except ValueError:
                raise ParseError(number, f"not a number: {text!r}") from None
            if not math.isfinite(row[-1]):
                raise ParseError(number, f"non-finite value: {text!r}")
        if rows and row[0] <= prev:
            raise ParseError(
                number, f"time not strictly increasing: {row[0]!r} after {prev!r}"
            )
        prev, rows = row[0], rows + 1
    raise InsufficientDataError(number, rows)


def parse_trace(data: bytes | str, fmt: str = "auto",
                source_id: str = "") -> TimeSeries:
    """Parse a trace text into a :class:`TimeSeries`.

    The first non-blank line is the header. ``csv`` rows are comma-separated
    with the time in column 0 and the value in column 1; header cell 1, when
    present, names the signal. ``spice`` rows are tab-separated; the header
    must label a column ``time`` (any case), and the first other column
    supplies the values and the signal name. ``auto`` reads ``spice`` when
    the header holds a tab and ``csv`` otherwise.
    """
    if fmt not in FORMATS:
        raise ValidationError(f"format must be csv, spice, or auto; got {fmt!r}")
    lines = _lines(data)
    # Line 0 stands for a missing header: every line is blank.
    start, header = next(_numbered(lines), (0, ""))
    if fmt == "auto":
        fmt = "spice" if "\t" in header else "csv"
    if fmt == "csv":
        fields = header.split(",")
        time_col, value_col, delimiter = 0, 1, ","
        signal = fields[1].strip() if len(fields) > 1 else ""
    else:
        if not start:
            raise ParseError(1, "missing header line")
        fields = [f.strip() for f in header.split("\t")]
        time_col = next((i for i, f in enumerate(fields) if f.lower() == "time"), None)
        if time_col is None:
            raise ParseError(start, f"no 'time' column in header {fields!r}")
        if len(fields) < 2:
            raise ParseError(start, "header has a time column but no value column")
        value_col = int(time_col == 0)  # the first non-time column
        delimiter, signal = "\t", fields[value_col]
    meta = SeriesMeta(source_id=source_id, signal=signal)
    return _parse_rows(lines, start, time_col, value_col, delimiter, meta)


def format_float(value: float) -> str:
    """Shortest decimal text that parses back to exactly the same float.

    Integral values drop the redundant ``.0`` (so 1.0 prints as ``1``),
    which keeps files compact without costing round-trip exactness.
    """
    return repr(float(value)).removesuffix(".0")


def write_series_csv(series: TimeSeries | UniformSeries) -> bytes:
    """Serialize a series to ``t,v`` CSV bytes.

    Output is byte-deterministic for a given series and round-trips through
    :func:`parse_trace` bit-exactly.
    """
    if isinstance(series, UniformSeries):
        pairs = zip(series.times().tolist(), series.values.tolist())
    elif isinstance(series, TimeSeries):
        pairs = zip(series.t.tolist(), series.v.tolist())
    else:
        raise ValidationError(
            f"expected a TimeSeries or UniformSeries, got {type(series).__name__}"
        )
    lines = ["t,v"]
    lines.extend(f"{format_float(t)},{format_float(v)}" for t, v in pairs)
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_trace(path: str | PathLike, fmt: str = "auto",
               source_id: str | None = None) -> TimeSeries:
    """Read a trace file and parse it as :func:`parse_trace` does.

    The file name stem becomes the source id unless one is given. I/O
    failures propagate as :class:`OSError`.
    """
    p = Path(path)
    return parse_trace(p.read_bytes(), fmt, p.stem if source_id is None else source_id)
