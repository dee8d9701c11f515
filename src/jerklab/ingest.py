"""Parsers and writers for trace files.

Two text formats are read, with LF or CRLF line endings: comma-separated
``time,value`` rows (the layout :func:`write_series_csv` writes) and
tab-separated exports from SPICE-style circuit simulators, whose header names
a ``time`` column. Blank lines are skipped but keep their physical numbering;
the first non-blank line is always the header, and the ``auto`` format reads
that same line. Rows are read on one of two paths:

* the gated read: when the header is line 1 and every byte after it is an
  ASCII digit, ``.``, ``e``, ``E``, ``+``, ``-``, CR, LF or the delimiter,
  only the header is decoded and the rows are read by one
  :func:`numpy.loadtxt` call. Within that alphabet it parses each cell as
  ``float()`` does, bit for bit, and refuses the same cells;
* the checked scan: any other file, and any file the gated read refuses or
  that :class:`TimeSeries` refuses, is decoded in full (a bad UTF-8 byte is
  reported first), split into lines and read row by row with ``float()``
  after stripping whitespace ("." is the only decimal separator; ``1_0`` and
  non-ASCII digits are numbers). The scan names the first faulty row and its
  line, or returns the series when it finds none.
"""

from __future__ import annotations

import io
import math
import warnings
from itertools import islice
from os import PathLike
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, ParseError, ValidationError
from .series import SeriesMeta, TimeSeries, UniformSeries

#: The trace formats :func:`parse_trace` reads; ``auto`` picks one per file.
FORMATS = ("auto", "csv", "spice")
_DELIMITERS = {"csv": ",", "spice": "\t"}
#: Beside the delimiter, the only bytes the gated read takes after the header.
#: On them np.loadtxt and float() parse alike (both by PyOS_string_to_double),
#: and no cell holds whitespace for the scan's stripping to remove. loadtxt
#: ends a line at LF or CRLF, as str.splitlines does, and refuses a lone CR,
#: which sends the file to the scan.
_NUMERIC = b"0123456789.eE+-\r\n"


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValidationError(f"format must be csv, spice, or auto; got {fmt!r}")


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


def _first_line(head: bytes) -> str:
    """``head``, the bytes before the first LF, as the stripped header text
    when they decode and form one non-blank line; else ``""``."""
    try:
        split = head.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return ""
    return split[0].strip() if len(split) == 1 else ""


def _format(fmt: str, header: str) -> str:
    """The format ``fmt`` stands for in a file with this header line."""
    if fmt == "auto":
        return "spice" if "\t" in header else "csv"
    return fmt


def _parse_rows(data: bytes | str, body: bytes, lines: list[str] | None,
                start: int, cols: tuple[int, int], delimiter: str,
                meta: SeriesMeta) -> TimeSeries:
    """The rows after the header line ``start``, as a series.

    ``lines`` is None when ``body``, the bytes after the header, passed the
    gate: they are then read in one call. A read that fails, and every file
    that did not pass, goes to the checked scan of ``lines``.
    """
    if lines is None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. "input contained no data"
                cells = np.loadtxt(io.BytesIO(body), delimiter=delimiter,
                                   usecols=cols, ndmin=2, comments=None,
                                   dtype=np.float64)
            return TimeSeries(t=cells[:, 0], v=cells[:, 1], meta=meta)
        except (ValueError, Warning):  # ValidationError is a ValueError
            lines = _lines(data)
    return _scan(lines, start, cols, delimiter, meta)


def _scan(lines: list[str], start: int, cols: tuple[int, int], delimiter: str,
          meta: SeriesMeta) -> TimeSeries:
    """Read the rows one by one: the series, or the first fault and its
    physical line."""
    need, number = max(cols) + 1, 1
    times: list[float] = []
    values: list[float] = []
    for number, line in _numbered(lines, start):
        fields = line.split(delimiter)
        if len(fields) < need:
            raise ParseError(
                number, f"expected at least {need} fields, found {len(fields)}")
        row = []
        for col in cols:
            text = fields[col].strip()
            try:
                row.append(float(text))
            except ValueError:
                raise ParseError(number, f"not a number: {text!r}") from None
            if not math.isfinite(row[-1]):
                raise ParseError(number, f"non-finite value: {text!r}")
        if times and row[0] <= times[-1]:
            raise ParseError(
                number,
                f"time not strictly increasing: {row[0]!r} after {times[-1]!r}",
            )
        times.append(row[0])
        values.append(row[1])
    if len(times) < 2:
        raise InsufficientDataError(number, len(times))
    return TimeSeries(t=times, v=values, meta=meta)


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
    _check_format(fmt)
    raw = data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass")
    head, _, body = raw.partition(b"\n")
    start, header, lines = 1, _first_line(head), None
    gate = _NUMERIC + _DELIMITERS[_format(fmt, header)].encode()
    if not header or body.translate(None, gate):
        # Not the gated read's layout: decode in full before any header check.
        lines = _lines(data)
        # Line 0 stands for a missing header: every line is blank.
        start, header = next(_numbered(lines), (0, ""))
    fmt = _format(fmt, header)
    if fmt == "csv":
        fields = header.split(",")
        time_col, value_col = 0, 1
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
        signal = fields[value_col]
    meta = SeriesMeta(source_id=source_id, signal=signal)
    return _parse_rows(data, body, lines, start, (time_col, value_col),
                       _DELIMITERS[fmt], meta)


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
