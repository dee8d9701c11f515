"""Parsers and writers for trace files.

Two text layouts are read, with LF, CRLF or CR line ends: comma-separated
``time,value`` rows (the layout :func:`write_series_csv` writes) and
tab-separated exports from SPICE-style circuit simulators, whose header names
a ``time`` column. Blank lines are skipped but keep their physical numbering;
the first non-blank line is always the header, and a tab in it marks an
export. One UTF-8 byte-order mark at the start of the file is dropped. Rows
are read on one of two paths:

* the gated read: when the header is line 1 and every byte after it is an
  ASCII digit, ``.``, ``e``, ``E``, ``+``, ``-``, CR, LF or the delimiter,
  only the header is decoded, and each share of the body is checked against
  that alphabet and read from the checked bytes by the C reader of
  :func:`numpy.loadtxt`, which pulls 16,384-character chunks through the
  buffer's ``read()``, parses each cell as ``float()`` does, bit for bit,
  and refuses the same cells. A body of at least two shares of
  ``_SPLIT_FLOOR`` bytes is cut at line ends into one share per usable CPU
  (fewer when it is shorter): forked children parse the first shares and
  send back through pipes a row count, then their times, then their values;
  this process parses the rest (the last share, or every share from a pipe
  or fork the system refuses), reads every count, reads each child's times
  and values straight into one (2, n) array of times and values, copies its
  own rows in last, and the :class:`TimeSeries` adopts that array, whose
  rows become its ``t`` and ``v``. The reader parses row by row, so the
  joined cells have the bits of a single call; one series check covers the
  seams. A share that fails, comes back short or longer than its count, or
  whose child exits non-zero sends the file to the scan; a fault in this
  process's own share kills the children before it is raised. Each process
  reads its share alone: :func:`load_trace` by one ``os.pread``, as forked
  processes share the file offset (a pipe is read whole), while
  :func:`parse_trace` gates the body and reads its last share in place.
  Without ``os.fork``, beside another Python thread or with SIGCHLD not at
  its default (a handler may reap a child before its status is read), the
  body is one share. Python 3.12+'s warning at a fork beside other OS
  threads (a BLAS pool) is ignored; the split is tested on 3.11 only;
* the checked scan: any other file, and any file the gated read refuses or
  that :class:`TimeSeries` refuses, is decoded in full (a bad UTF-8 byte is
  reported first), split into lines and read row by row with ``float()``
  after stripping whitespace ("." is the only decimal separator; ``1_0`` and
  non-ASCII digits are numbers). The scan names the first faulty row and its
  line, or else the :class:`TimeSeries` adopts its rows as one (2, n) array.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import signal
import threading
import warnings
from itertools import islice
from os import PathLike
from pathlib import Path

import numpy as np
from numpy.lib._npyio_impl import _load_from_filelike

from .errors import InsufficientDataError, ParseError, ValidationError
from .series import SeriesMeta, TimeSeries, UniformSeries

#: Beside the delimiter, the only bytes the gated read takes after the header.
#: On them numpy's text reader and float() parse alike (both by
#: PyOS_string_to_double), and no cell holds whitespace for the scan's
#: stripping to remove. The reader ends a line at LF, CRLF or a lone CR, as
#: str.splitlines does on these bytes, also where a CRLF, a cell or a blank
#: line spans the seam of two chunks.
_NUMERIC = b"0123456789.eE+-\r\n"
_BOM = "\ufeff"  # a byte-order mark, dropped from the start of a file
#: The fewest body bytes the gated read gives one process: a body of
#: k * _SPLIT_FLOOR bytes or more is parsed in up to k processes at once.
_SPLIT_FLOOR = 750_000
_WRITE_ROWS = 1024  # rows whose text write_series_csv builds at once


def _lines(data: bytes | str) -> list[str]:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # One more than the line breaks str.splitlines sees before the bad byte.
            line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
            raise ParseError(line, f"not valid UTF-8 at byte {exc.start}") from None
    return data.removeprefix(_BOM).splitlines()


def _numbered(lines: list[str], start: int = 0):
    """(1-based physical line number, stripped text) of each non-blank line."""
    for number, raw in enumerate(islice(lines, start, None), start + 1):
        line = raw.strip()
        if line:
            yield number, line


def _header(header: str, line: int, source_id: str):
    """The delimiter, the (time, value) columns and the series meta that the
    stripped header text on ``line`` gives."""
    if "\t" not in header:
        fields = header.split(",")
        signal = fields[1].strip() if len(fields) > 1 else ""
        return ",", (0, 1), SeriesMeta(source_id=source_id, signal=signal)
    # The header is stripped, so a tab in it has a field on either side.
    fields = [f.strip() for f in header.split("\t")]
    time_col = next((i for i, f in enumerate(fields) if f.lower() == "time"), None)
    if time_col is None:
        raise ParseError(line, f"no 'time' column in header {fields!r}")
    value_col = int(time_col == 0)  # the first non-time column
    return "\t", (time_col, value_col), SeriesMeta(source_id=source_id,
                                                    signal=fields[value_col])


def _loadtxt(lines, delimiter: str, cols: tuple[int, int]) -> np.ndarray:
    """The (time, value) cells of the binary file ``lines`` from its
    position on, as one n-by-2 array, by the C reader np.loadtxt calls with
    np.loadtxt's arguments, except that it pulls 16,384-character chunks
    through ``lines.read()`` instead of iterating lines. A share of no rows
    raises ValueError, where np.loadtxt would warn."""
    cells = _load_from_filelike(
        lines, delimiter=delimiter, comment=None, quote=None, imaginary_unit="j",
        usecols=list(cols), skiplines=0, max_rows=-1, converters=None,
        dtype=np.dtype(np.float64), encoding="latin1", filelike=True,
        byte_converters=False)
    if not len(cells):
        raise ValueError("the share holds no rows")
    return cells


def _cuts(find, start: int, end: int) -> list[int]:
    """Offsets ``[start, ..., end]`` that cut the body ``[start, end)`` after
    line ends, which ``find`` finds as ``bytes.find`` does, into about equal
    shares: one per usable CPU, none under :data:`_SPLIT_FLOOR` bytes, and
    one share where ``os.fork`` is missing, another thread runs or SIGCHLD
    has other than its default action."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    size = end - start
    k = min(cpus, size // _SPLIT_FLOOR)
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or signal.getsignal(signal.SIGCHLD) != signal.SIG_DFL):
        k = 1
    cuts = [start]
    for i in range(1, k):
        cut = find(b"\n", max(cuts[-1], start + size * i // k - 1)) + 1
        if cuts[-1] < cut < end:
            cuts.append(cut)
    cuts.append(end)
    return cuts


def _share(read, lo: int, hi: int, delimiter: str, cols: tuple[int, int]):
    """The cells of the body's bytes ``[lo, hi)``, the last ``hi - lo`` bytes
    of the buffer ``read(lo, hi)`` gives with the offset to gate it from. A
    share cut short or holding a byte outside the gate raises ValueError."""
    buf, gate = read(lo, hi)
    allowed = _NUMERIC + delimiter.encode()
    # buf passes when the alphabet leaves no more of it than of buf[:gate].
    if len(buf) < hi - lo or len(buf.translate(None, allowed)) != len(
            buf[:gate].translate(None, allowed)):
        raise ValueError("a share is short or holds a byte outside the gate")
    lines = io.BytesIO(buf)  # shares buf's buffer until written to
    lines.seek(len(buf) - (hi - lo))
    return _loadtxt(lines, delimiter, cols)


def _child(out, cells):
    """In a forked child: write the row count of the n-by-2 array ``cells()``
    to the pipe ``out`` as 8 bytes, then its times, then its values, and end
    the process, with status 0 only when every byte was written. Never
    returns into the caller's code and flushes no stdio buffer."""
    gc.disable()  # a collection here could run finalizers of the parent's objects
    status = 1
    try:
        rows = cells()  # the share's bytes are freed by now
        out.write(len(rows).to_bytes(8, "little"))
        out.write(np.ascontiguousarray(rows.T))  # the times, then the values
        out.close()
        status = 0
    finally:
        os._exit(status)


def _split_loadtxt(cuts: list[int], share) -> np.ndarray:
    """The cells of the body cut at ``cuts``, where ``share(lo, hi)`` gives
    those of one share as an n-by-2 array, in one C-contiguous (2, n) array
    of times and values: forked children parse the first shares, this
    process the rest, then reads each child's times and values into place
    and copies its own cells last. A child that fails raises ValueError
    here; when anything is raised, the children still running are killed."""
    pids, pipes = [], []
    try:
        with contextlib.suppress(OSError):  # a refused pipe or fork
            for lo, hi in zip(cuts[:-2], cuts[1:-1]):
                r, w = os.pipe()
                pipes.append(open(r, "rb"))
                with open(w, "wb") as out:  # the parent's write end closes here
                    with warnings.catch_warnings():
                        # Python 3.12+ warns at a fork beside other threads (a
                        # BLAS pool). The child takes none of their locks: it
                        # runs only numpy's reader, a pipe write and os._exit.
                        warnings.simplefilter("ignore", DeprecationWarning)
                        pid = os.fork()
                    if pid == 0:
                        # Holding no read end, a child whose pipe is closed
                        # unread (its parent gone) stops at a broken pipe,
                        # not a full one.
                        for pipe in pipes:
                            pipe.close()
                        _child(out, lambda: share(lo, hi))
                pids.append(pid)
        cells = share(cuts[len(pids)], cuts[-1])
        counts = [pipe.read(8) for pipe in pipes[:len(pids)]]  # not a refused fork's
        if any(len(count) < 8 for count in counts):
            raise ValueError("a share of the body did not parse")
        rows = [int.from_bytes(count, "little") for count in counts]
        joined = np.empty((2, sum(rows) + len(cells)))
        at = 0
        for pipe, m in zip(pipes, rows):
            for column in joined[:, at:at + m]:  # its times, then its values
                if pipe.readinto(column) != column.nbytes:
                    raise ValueError("a share came back short")
            if pipe.read(1):
                raise ValueError("a share came back longer than its row count")
            at += m
        joined[:, at:] = cells.T
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # its share is no longer wanted
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise ValueError("a share of the body did not parse")
    return joined


def _parse(end: int, find, read, whole, source_id: str) -> TimeSeries:
    """The series of a file of ``end`` bytes, by the gated read (see _cuts and
    _share for ``find`` and ``read``) or else by the checked scan of ``whole()``."""
    head = read(0, find(b"\n", 0) + 1)[0]  # b"" without a line end: no header
    with contextlib.suppress(ParseError, ValueError):
        header = _lines(head)
        if len(header) == 1 and header[0].strip():
            delimiter, cols, meta = _header(header[0].strip(), 1, source_id)
            # A size below the header's (0 for /proc files) reads no body.
            joined = _split_loadtxt(_cuts(find, len(head), max(end, len(head))),
                                    lambda lo, hi: _share(read, lo, hi, delimiter, cols))
            return TimeSeries._adopt(joined, meta)
    lines = _lines(whole())
    # Line 0 stands for a missing header: every line is blank.
    start, header = next(_numbered(lines), (0, ""))
    delimiter, cols, meta = _header(header, start, source_id)
    return TimeSeries._adopt(_scan(lines, start, cols, delimiter), meta)


def _scan(lines: list[str], start: int, cols: tuple[int, int],
          delimiter: str) -> np.ndarray:
    """Read the rows one by one: the (2, n) array of times and values, or
    the first fault and its physical line."""
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
    return np.array([times, values])


def parse_trace(data: bytes | str, *, source_id: str = "") -> TimeSeries:
    """Parse a trace text into a :class:`TimeSeries`.

    The first non-blank line is the header. When it holds a tab, the rows are
    tab-separated, the header must label a column ``time`` (any case), and
    the first other column supplies the values and the signal name.
    Otherwise the rows are comma-separated with the time in column 0 and the
    value in column 1, and header cell 1, when present, names the signal.
    """
    raw = data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass")
    start = raw.find(b"\n") + 1
    # The last share is read in place and gated with the whole body; others are copied.
    return _parse(len(raw), raw.find, lambda lo, hi: (raw, start) if hi == len(raw)
                  else (raw[lo:hi], 0), lambda: data, source_id)


def format_float(value: float) -> str:
    """Shortest decimal text that parses back to exactly the same float.

    Integral values drop the redundant ``.0`` (so 1.0 prints as ``1``),
    which keeps files compact without costing round-trip exactness.
    """
    return repr(float(value)).removesuffix(".0")


def write_series_csv(series: TimeSeries | UniformSeries) -> bytes:
    """Serialize a series to ``t,v`` CSV bytes.

    Output is byte-deterministic and round-trips through :func:`parse_trace`
    bit-exactly: a grid that could not be read back, with one sample or times
    that do not strictly increase, is refused as its ``to_time_series()`` is.
    """
    if isinstance(series, UniformSeries):
        series = series.to_time_series()
    elif not isinstance(series, TimeSeries):
        raise ValidationError(
            f"expected a TimeSeries or UniformSeries, got {type(series).__name__}"
        )
    out, t, v = io.BytesIO(), series.t, series.v
    out.write(b"t,v\n")
    for i in range(0, len(t), _WRITE_ROWS):
        pairs = zip(t[i:i + _WRITE_ROWS].tolist(), v[i:i + _WRITE_ROWS].tolist())
        text = "".join([f"{a!r},{b!r}\n" for a, b in pairs])
        # Only an integral value's repr ends in ".0", and every cell ends at a
        # comma or a newline, a block's last too: dropping ".0" there is
        # format_float on each cell. No more than two copies of a block at once.
        text = text.replace(".0,", ",")
        text = text.replace(".0\n", "\n")
        out.write(text.encode("utf-8"))
    return out.getvalue()


def load_trace(path: str | PathLike, *,
               source_id: str | None = None) -> TimeSeries:
    """Read a trace file and parse it as :func:`parse_trace` does.

    The file name stem becomes the source id unless one is given. I/O
    failures propagate as :class:`OSError`.
    """
    p = Path(path)
    source_id = p.stem if source_id is None else source_id
    with open(p, "rb") as f:
        if not hasattr(os, "pread") or not f.seekable():  # e.g. a pipe
            return parse_trace(f.read(), source_id=source_id)
        fd = f.fileno()

        def find(sub: bytes, pos: int) -> int:  # bytes.find of one byte
            while window := os.pread(fd, 4096, pos):
                if (at := window.find(sub)) >= 0:
                    return pos + at
                pos += len(window)
            return -1

        # pread leaves alone the file offset that forked children share.
        return _parse(os.fstat(fd).st_size, find,
                      lambda lo, hi: (os.pread(fd, hi - lo, lo), 0), f.read, source_id)
