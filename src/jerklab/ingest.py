"""Parsers and writers for trace files.

Two concrete text formats are supported:

* generic delimited text (default: RFC-4180-style comma CSV, optional single
  header row, LF or CRLF line endings);
* tab-separated exports from SPICE-style circuit simulators — a header line
  naming the time column followed by tab-separated numeric rows, scientific
  notation welcome.

All parsing is locale-independent (the decimal separator is always ".") and
every failure is reported with a 1-based physical line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from os import PathLike
from pathlib import Path

from .errors import InsufficientDataError, ParseError, ValidationError
from .series import SeriesMeta, TimeSeries, UniformSeries


@dataclass(frozen=True)
class CsvOptions:
    """Column layout of a delimited trace file."""

    time_column: int = 0
    value_column: int = 1
    delimiter: str = ","
    header: bool = True

    def __post_init__(self):
        if self.time_column < 0 or self.value_column < 0:
            raise ValidationError("column indices must be >= 0")
        if self.time_column == self.value_column:
            raise ValidationError("time and value columns must differ")
        if not self.delimiter:
            raise ValidationError("delimiter must be non-empty")


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise ParseError(line, f"not valid UTF-8 at byte {exc.start}") from None


def _numbered_lines(text: str):
    # splitlines handles LF and CRLF alike; blank lines (commonly a trailing
    # newline artifact) are skipped but keep their physical numbering.
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield number, line


def _parse_rows(numbered, time_col: int, value_col: int, delimiter: str,
                meta: SeriesMeta) -> TimeSeries:
    need = max(time_col, value_col) + 1
    times: list[float] = []
    values: list[float] = []
    last_line = 0
    for number, line in numbered:
        last_line = number
        fields = line.split(delimiter)
        if len(fields) < need:
            raise ParseError(
                number, f"expected at least {need} fields, found {len(fields)}"
            )
        row = []
        for col in (time_col, value_col):
            text = fields[col].strip()
            try:
                val = float(text)
            except ValueError:
                raise ParseError(number, f"not a number: {text!r}") from None
            if not math.isfinite(val):
                raise ParseError(number, f"non-finite value: {text!r}")
            row.append(val)
        t, v = row
        if times and t <= times[-1]:
            raise ParseError(
                number,
                f"time not strictly increasing: {t!r} after {times[-1]!r}",
            )
        times.append(t)
        values.append(v)
    if len(times) < 2:
        raise InsufficientDataError(max(last_line, 1), len(times))
    return TimeSeries(t=times, v=values, meta=meta)


def parse_trace_csv(data: bytes | str, options: CsvOptions = CsvOptions(),
                    source_id: str = "") -> TimeSeries:
    """Parse a delimited text trace into a :class:`TimeSeries`.

    With ``options.header`` set, the first non-blank line is skipped
    unconditionally (it is declared to be a header, not sniffed).
    """
    numbered = _numbered_lines(_decode(data))
    signal = ""
    if options.header:
        try:
            _, header_line = next(numbered)
        except StopIteration:
            raise InsufficientDataError(1, 0) from None
        fields = header_line.split(options.delimiter)
        if options.value_column < len(fields):
            signal = fields[options.value_column].strip()
    meta = SeriesMeta(source_id=source_id, signal=signal)
    return _parse_rows(numbered, options.time_column, options.value_column,
                       options.delimiter, meta)


def parse_spice_export(data: bytes | str, source_id: str = "") -> TimeSeries:
    """Parse a tab-separated circuit-simulator export.

    The first line must be a header with a column labeled ``time`` (any
    case); the first non-time column supplies the values and its label is
    recorded as the series' signal name. Trailing blank lines are tolerated.
    """
    numbered = _numbered_lines(_decode(data))
    try:
        header_number, header_line = next(numbered)
    except StopIteration:
        raise ParseError(1, "missing header line") from None
    fields = [f.strip() for f in header_line.split("\t")]
    time_col = next(
        (i for i, f in enumerate(fields) if f.lower() == "time"), None
    )
    if time_col is None:
        raise ParseError(header_number, f"no 'time' column in header {fields!r}")
    value_col = next(
        (i for i in range(len(fields)) if i != time_col), None
    )
    if value_col is None:
        raise ParseError(header_number, "header has a time column but no value column")
    meta = SeriesMeta(source_id=source_id, signal=fields[value_col])
    return _parse_rows(numbered, time_col, value_col, "\t", meta)


def format_float(value: float) -> str:
    """Shortest decimal text that parses back to exactly the same float.

    Integral values drop the redundant ``.0`` (so 1.0 prints as ``1``),
    which keeps files compact without costing round-trip exactness.
    """
    return repr(float(value)).removesuffix(".0")


def write_series_csv(series: TimeSeries | UniformSeries) -> bytes:
    """Serialize a series to ``t,v`` CSV bytes.

    Output is byte-deterministic for a given series and round-trips through
    :func:`parse_trace_csv` bit-exactly.
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


def sniff_format(data: bytes | str) -> str:
    """Guess ``"spice"`` (tab-separated) or ``"csv"`` from the first line."""
    text = _decode(data)
    first = text.splitlines()[0] if text.splitlines() else ""
    return "spice" if "\t" in first else "csv"


def load_trace(path: str | PathLike, fmt: str = "auto",
               options: CsvOptions | None = None,
               source_id: str | None = None) -> TimeSeries:
    """Read and parse a trace file.

    ``fmt`` is ``"csv"``, ``"spice"``, or ``"auto"`` (sniff by the first
    line). The file name stem becomes the source id unless one is given.
    I/O failures propagate as :class:`OSError`.
    """
    p = Path(path)
    data = p.read_bytes()
    if source_id is None:
        source_id = p.stem
    if fmt == "auto":
        fmt = sniff_format(data)
    if fmt == "spice":
        return parse_spice_export(data, source_id=source_id)
    if fmt == "csv":
        return parse_trace_csv(data, options or CsvOptions(), source_id=source_id)
    raise ValidationError(f"format must be csv, spice, or auto; got {fmt!r}")
