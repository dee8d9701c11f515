"""Parsers and writers for trace files.

Two text formats are read, with LF or CRLF line endings: delimited text
(comma CSV by default, optional header row) and tab-separated exports from
SPICE-style circuit simulators, whose header names a ``time`` column. A file
is decoded and split into lines once. Blank lines are skipped but keep their
physical numbering; the header is the first non-blank line, and format
sniffing reads that same line. Cells are read by ``float()`` after stripping
whitespace ("." is the only decimal separator; ``1_0`` and non-ASCII digits
are numbers). Values are checked once, by :class:`TimeSeries`; only a file
that fails is scanned again, to name the first faulty row and its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from os import PathLike
from pathlib import Path

from .errors import InsufficientDataError, ParseError, ValidationError, _require_int
from .series import SeriesMeta, TimeSeries, UniformSeries


@dataclass(frozen=True)
class CsvOptions:
    """Column layout of a delimited trace file."""

    time_column: int = 0
    value_column: int = 1
    delimiter: str = ","
    header: bool = True

    def __post_init__(self):
        for name in ("time_column", "value_column"):
            object.__setattr__(self, name, _require_int(
                getattr(self, name), "column indices must be >= 0", 0))
        if self.time_column == self.value_column:
            raise ValidationError("time and value columns must differ")
        if not isinstance(self.delimiter, str) or not self.delimiter:
            raise ValidationError(
                f"delimiter must be a non-empty string, got {self.delimiter!r}")
        if not isinstance(self.header, bool):
            raise ValidationError(f"header must be True or False, got {self.header!r}")


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
    need = max(time_col, value_col) + 1
    number, rows, prev = 1, 0, 0.0
    for number, line in _numbered(lines, start):
        fields = line.split(delimiter)
        if len(fields) < need:
            raise ParseError(number, f"expected at least {need} fields, found {len(fields)}")
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


def _sniff(header: tuple[int, str] | None) -> str:
    return "spice" if header and "\t" in header[1] else "csv"


def _read(lines: list[str], fmt: str, options: CsvOptions, source_id: str) -> TimeSeries:
    header = next(_numbered(lines), None)
    if fmt == "auto":
        fmt = _sniff(header)
    if fmt == "spice":
        if header is None:
            raise ParseError(1, "missing header line")
        start, line = header
        fields = [f.strip() for f in line.split("\t")]
        time_col = next((i for i, f in enumerate(fields) if f.lower() == "time"), None)
        if time_col is None:
            raise ParseError(start, f"no 'time' column in header {fields!r}")
        if len(fields) < 2:
            raise ParseError(start, "header has a time column but no value column")
        value_col = int(time_col == 0)  # the first non-time column
        delimiter, signal = "\t", fields[value_col]
    elif fmt == "csv":
        time_col, value_col = options.time_column, options.value_column
        delimiter, start, signal = options.delimiter, 0, ""
        if options.header:
            if header is None:
                raise InsufficientDataError(1, 0)
            start, line = header  # the rows start at the index after the header
            fields = line.split(delimiter)
            if value_col < len(fields):
                signal = fields[value_col].strip()
    else:
        raise ValidationError(f"format must be csv, spice, or auto; got {fmt!r}")
    meta = SeriesMeta(source_id=source_id, signal=signal)
    return _parse_rows(lines, start, time_col, value_col, delimiter, meta)


def parse_trace_csv(data: bytes | str, options: CsvOptions = CsvOptions(),
                    source_id: str = "") -> TimeSeries:
    """Parse a delimited text trace into a :class:`TimeSeries`.

    With ``options.header`` set, the first non-blank line is skipped
    unconditionally (it is declared to be a header, not sniffed).
    """
    return _read(_lines(data), "csv", options, source_id)


def parse_spice_export(data: bytes | str, source_id: str = "") -> TimeSeries:
    """Parse a tab-separated circuit-simulator export.

    The first non-blank line must be a header with a column labeled ``time``
    (any case); the first non-time column supplies the values and its label
    is recorded as the series' signal name. Blank lines are tolerated.
    """
    return _read(_lines(data), "spice", CsvOptions(), source_id)


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
    """Guess ``"spice"`` or ``"csv"``: spice when the first non-blank line,
    the header the parsers read, contains a tab."""
    return _sniff(next(_numbered(_lines(data)), None))


def load_trace(path: str | PathLike, fmt: str = "auto",
               options: CsvOptions | None = None,
               source_id: str | None = None) -> TimeSeries:
    """Read and parse a trace file.

    ``fmt`` is ``"csv"``, ``"spice"``, or ``"auto"`` (sniff the first
    non-blank line, as :func:`sniff_format` does). The file name stem
    becomes the source id unless one is given. I/O failures propagate as
    :class:`OSError`.
    """
    p = Path(path)
    return _read(_lines(p.read_bytes()), fmt, options or CsvOptions(),
                 p.stem if source_id is None else source_id)
