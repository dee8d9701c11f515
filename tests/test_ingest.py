"""Tests for trace parsing, serialization, and format sniffing."""

from __future__ import annotations

import errno
import io
import math
import os
import random
import signal
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from jerklab import ingest
from jerklab import (
    DataError,
    InsufficientDataError,
    JerkLabError,
    ParseError,
    TimeSeries,
    ValidationError,
    format_float,
    load_trace,
    parse_trace,
    write_series_csv,
)

from conftest import (
    mk_ts,
    mk_uniform,
    reference_spice_export,
    reference_trace_csv,
)


def make_spice_text(rows: int, dt: float = 1e-3) -> str:
    lines = ["time\tV(xdd)"]
    for k in range(rows):
        t = k * dt
        v = math.sin(0.37 * k) * math.exp(-1e-4 * k)
        lines.append(f"{t:.9e}\t{v:.9e}")
    return "\n".join(lines) + "\n"


class TestCsvParsing:
    def test_basic_with_header(self):
        s = parse_trace("t,v\n0,0.5\n1,-0.25\n", source_id="demo")
        assert s.t.tolist() == [0.0, 1.0]
        assert s.v.tolist() == [0.5, -0.25]
        assert s.meta.source_id == "demo"
        assert s.meta.signal == "v"

    def test_scientific_notation(self):
        s = parse_trace("t,v\n0,1e-3\n1e-3,2.5E+0\n")
        assert s.t.tolist() == [0.0, 1e-3]
        assert s.v.tolist() == [1e-3, 2.5]
        # The grammar is float()'s: underscores, non-ASCII digits, padding.
        s = parse_trace("t,v\n0, 1_0 \n\u0661\u0662,\t2\n")
        assert s.t.tolist() == [0.0, 12.0]
        assert s.v.tolist() == [10.0, 2.0]

    def test_repeated_timestamp_cites_line(self):
        with pytest.raises(ParseError, match="strictly increasing") as info:
            parse_trace("t,v\n0,1\n0,2\n")
        assert info.value.line == 3
        assert "line 3" in str(info.value)
        # An earlier fault wins over a later row that does not parse.
        with pytest.raises(ParseError, match="strictly increasing") as info:
            parse_trace("t,v\n0,1\n0,2\n1,oops\n")
        assert info.value.line == 3

    def test_decreasing_timestamp_cites_line(self):
        with pytest.raises(ParseError) as info:
            parse_trace("t,v\n0,1\n1,2\n0.5,3\n")
        assert info.value.line == 4

    def test_non_numeric_cites_line(self):
        with pytest.raises(ParseError, match="not a number") as info:
            parse_trace("t,v\n0,1\n1,oops\n")
        assert info.value.line == 3

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="non-finite") as info:
            parse_trace("t,v\n0,nan\n1,2\n")
        assert info.value.line == 2
        with pytest.raises(ParseError, match="non-finite"):
            parse_trace("t,v\n0,1\n1,inf\n")
        with pytest.raises(ParseError) as info:
            parse_trace("t,v\n0,1\n1,Infinity\n")
        assert str(info.value) == "line 3: non-finite value: 'Infinity'"
        # The time cell is checked before the value cell of the same row.
        with pytest.raises(ParseError) as info:
            parse_trace("t,v\n0,1\ninf,oops\n")
        assert str(info.value) == "line 3: non-finite value: 'inf'"

    def test_too_few_fields_cites_line(self):
        with pytest.raises(ParseError, match="fields") as info:
            parse_trace("t,v\n0,1\n2\n")
        assert info.value.line == 3

    def test_single_row_is_insufficient(self):
        with pytest.raises(InsufficientDataError) as info:
            parse_trace("t,v\n0,1\n")
        assert info.value.rows == 1
        assert info.value.line == 2

    def test_empty_input_is_insufficient(self):
        # Empty, blank-only and header-only texts all cite line 1.
        for text in ["", "t,v\n", "\n\nt,v\n\n", "\n \n"]:
            with pytest.raises(InsufficientDataError) as info:
                parse_trace(text)
            assert (info.value.line, info.value.rows) == (1, 0), text

    def test_blank_lines_skipped_but_numbering_physical(self):
        # Interior and trailing blanks don't break parsing, and the line
        # numbers in diagnostics still count physical lines.
        s = parse_trace("t,v\n0,1\n\n1,2\n\n\n")
        assert s.t.tolist() == [0.0, 1.0]
        with pytest.raises(ParseError) as info:
            parse_trace("t,v\n0,1\n\n0,2\n")
        assert info.value.line == 4

    def test_crlf_accepted(self):
        s = parse_trace(b"t,v\r\n0,1\r\n1,2\r\n")
        assert s.t.tolist() == [0.0, 1.0]
        assert s.v.tolist() == [1.0, 2.0]

    def test_bad_utf8_cites_line(self):
        with pytest.raises(ParseError, match="UTF-8") as info:
            parse_trace(b"t,v\n0,1\n1,\xff\n")
        assert info.value.line == 3

    @pytest.mark.parametrize("eol", ["\r", "\r\n", "\x0b", "\x0c", "\x85",
                                     "\u2028"])
    @pytest.mark.parametrize("row", [b"1,\xff", b"\xff,1"])
    def test_bad_utf8_line_counts_the_breaks_rows_count(self, eol, row):
        # The line of a decoding error is counted as every other ParseError
        # counts lines: by the breaks str.splitlines sees.
        nl = eol.encode("utf-8")
        head = b"t,v" + nl + b"0,1" + nl
        with pytest.raises(ParseError, match="UTF-8") as info:
            parse_trace(head + row + nl)
        assert info.value.line == 3
        with pytest.raises(ParseError, match="not a number") as info:
            parse_trace(head + row.replace(b"\xff", b"oops") + nl)
        assert info.value.line == 3

    def test_locale_independent_decimal_point(self):
        # Comma is the field delimiter, period the only decimal separator:
        # "1,5" is two fields, never the number 1.5.
        s = parse_trace("t,v\n0,0.5\n1.5,2.25\n")
        assert s.t.tolist() == [0.0, 1.5]
        assert s.v.tolist() == [0.5, 2.25]


class TestSpiceParsing:
    def test_basic(self):
        s = parse_trace("time\tV(xdd)\n0.0\t1.0e-2\n1.0e-3\t2.0e-2\n")
        assert s.t.tolist() == [0.0, 1e-3]
        assert s.v.tolist() == [0.01, 0.02]
        assert s.meta.signal == "V(xdd)"

    def test_case_insensitive_time_header(self):
        s = parse_trace("Time\tV(x)\n0\t1\n1\t2\n")
        assert s.t.tolist() == [0.0, 1.0]

    def test_value_column_before_time_column(self):
        s = parse_trace("V(x)\ttime\n5\t0\n6\t1\n")
        assert s.t.tolist() == [0.0, 1.0]
        assert s.v.tolist() == [5.0, 6.0]
        assert s.meta.signal == "V(x)"

    def test_large_export(self):
        s = parse_trace(make_spice_text(4700))
        assert len(s) == 4700
        assert s.t[0] == 0.0
        assert s.t[-1] == pytest.approx(4.699, rel=1e-12)

    def test_missing_time_header(self):
        with pytest.raises(ParseError, match="time") as info:
            parse_trace("volts\tamps\n0\t1\n1\t2\n")
        assert info.value.line == 1

    def test_header_only_time(self):
        # A header without a tab is a csv header, whatever it names.
        with pytest.raises(ParseError) as info:
            parse_trace("time\n0\n1\n")
        assert str(info.value) == "line 2: expected at least 2 fields, found 1"

    def test_body_too_short(self):
        with pytest.raises(InsufficientDataError):
            parse_trace("time\tV(x)\n0\t1\n")

    def test_row_too_short_for_a_late_time_column(self):
        with pytest.raises(ParseError) as info:
            parse_trace("V(a)\tV(b)\ttime\n0\t1\t0\n1\t2\n")
        assert str(info.value) == "line 3: expected at least 3 fields, found 2"

    def test_trailing_blank_lines(self):
        s = parse_trace("time\tV(x)\n0\t1\n1\t2\n\n\n")
        assert len(s) == 2

    def test_malformed_row_cites_line(self):
        with pytest.raises(ParseError) as info:
            parse_trace("time\tV(x)\n0\t1\n1\tbroken\n")
        assert info.value.line == 3


class TestWriting:
    def test_example_bytes(self):
        s = mk_ts([0.0, 1.0], [0.5, -0.25])
        assert write_series_csv(s) == b"t,v\n0,0.5\n1,-0.25\n"

    def test_uniform_series_grid_expansion(self):
        s = mk_uniform([1.0, 2.0, 3.0], t0=0.0, dt=0.5)
        assert write_series_csv(s) == b"t,v\n0,1\n0.5,2\n1,3\n"

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError):
            write_series_csv([1.0, 2.0])  # type: ignore[arg-type]

    @staticmethod
    def _joined(t, v) -> bytes:
        rows = "".join(f"{format_float(a)},{format_float(b)}\n" for a, b in zip(t, v))
        return ("t,v\n" + rows).encode()

    # Integral values in the first, the middle and the last row of each
    # column, the last row's newline included.
    EDGES = [0.0, -0.0, 100.0, 1e15, 1e16, 5e-324]

    @pytest.mark.parametrize("edge", EDGES)
    @pytest.mark.parametrize("t", [
        [-0.0, 5e-324, 0.5, 1e15, 1e15 + 0.5, 9999999999999998.0, 1e16],
        [0.0, 0.25, 0.5, 100.0, 100.5, 1e15, 1e15 + 1.0],
    ], ids=["t_from_minus_zero", "t_to_integral"])
    def test_equals_format_float_per_value(self, t, edge):
        v = [edge, 0.5, -1.25, edge, 3.0, 0.1, edge]
        assert write_series_csv(mk_ts(t, v)) == self._joined(t, v)

    @pytest.mark.parametrize("edge", EDGES)
    def test_uniform_equals_format_float_per_value(self, edge):
        v = [edge, 0.5, -1.25, edge, 3.0, 0.1, edge]
        s = mk_uniform(v, t0=0.0, dt=50.0)
        assert write_series_csv(s) == self._joined(s.times().tolist(), v)

    @pytest.mark.parametrize(
        "value,text",
        [(0.0, "0"), (-0.0, "-0"), (1.0, "1"), (-2.5, "-2.5"),
         (1e-3, "0.001"), (0.1, "0.1"), (1e300, "1e+300"),
         (math.pi, "3.141592653589793")],
    )
    def test_format_float(self, value, text):
        assert format_float(value) == text
        back = float(text)
        assert back == value
        assert math.copysign(1.0, back) == math.copysign(1.0, value)


class TestRoundTrip:
    def test_thousand_random_series_round_trip_bitwise(self, rng):
        for _ in range(1000):
            n = rng.randint(2, 40)
            t, acc = [], rng.uniform(-1e3, 1e3)
            for _ in range(n):
                acc += 10.0 ** rng.uniform(-6, 2)
                t.append(acc)
            v = [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-20, 20)
                 for _ in range(n)]
            original = mk_ts(t, v)
            recovered = parse_trace(write_series_csv(original))
            assert len(recovered) == len(original)
            for a, b in zip(recovered.t, original.t):
                assert a.hex() == b.hex()
            for a, b in zip(recovered.v, original.v):
                assert a.hex() == b.hex()

    def test_writing_is_deterministic(self):
        s = mk_ts([0.0, 0.1, 0.2], [1.0, 2.0, 3.0])
        assert write_series_csv(s) == write_series_csv(s)


@pytest.fixture
def no_scan(monkeypatch):
    """Makes the checked scan raise, so a parse that succeeds took the gated
    read."""
    def refuse(*args):
        raise AssertionError("the checked scan ran")
    monkeypatch.setattr(ingest, "_scan", refuse)


@pytest.fixture
def scans(monkeypatch) -> list:
    """One item per run of the checked scan."""
    calls = []
    scan = ingest._scan
    monkeypatch.setattr(ingest, "_scan", lambda *args: calls.append(1) or scan(*args))
    return calls


class TestGatedRead:
    def test_cells_are_bit_equal_to_float(self, no_scan):
        # 20,000 random doubles of magnitude about 1e-300 to 1e300, each
        # spelled four ways, against float() on the same text.
        rng = random.Random(20261019)
        values = [math.copysign(math.ldexp(rng.random(), rng.randint(-996, 997)),
                                rng.random() - 0.5) for _ in range(20_000)]
        for spell in (repr, "%.17g".__mod__, "%.3e".__mod__, "%.25g".__mod__):
            cells = [spell(v) for v in values]
            data = "t,v\n" + "".join(f"{k},{c}\n" for k, c in enumerate(cells))
            s = parse_trace(data.encode("utf-8"))
            assert s.v.tobytes() == np.array([float(c) for c in cells]).tobytes()

    def test_written_files_take_the_gated_read(self, no_scan, rng):
        t = [k * 0.02 + rng.uniform(-5e-3, 5e-3) for k in range(500)]
        v = [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-20, 20) for _ in t]
        written = write_series_csv(mk_ts(t, v))
        # The layouts of the benchmark's inputs: a capture spelled by repr()
        # under a "time,xdd" header, and a written trace turned into a
        # SPICE-style export by replacing its commas with tabs; each also
        # with CRLF line ends.
        capture = "time,xdd\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t, v))
        export = b"time\tV(xdd)\n" + written.split(b"\n", 1)[1].replace(b",", b"\t")
        for data, signal in ((written, "v"), (capture.encode("utf-8"), "xdd"),
                             (export, "V(xdd)")):
            for eol in (b"\n", b"\r\n"):
                s = parse_trace(data.replace(b"\n", eol))
                assert s.t.tobytes() == np.array(t).tobytes()
                assert s.v.tobytes() == np.array(v).tobytes()
                assert s.meta.signal == signal

    @pytest.mark.parametrize("text", [
        "t,v\n 0,1\n1,2\n",  # a space, which loadtxt and the scan both take
        "t,v\n0,1\nv,2\n",  # a byte of the header
        "\ufefft,v\n0,1\n1,\ufeff2\n",  # the header's byte-order mark
        "time\tV(x)\n0\t1\n1\t2,\n",  # the other format's delimiter
        "t,v\n0,1\n1,2\t",
    ])
    def test_a_byte_outside_the_gate_skips_loadtxt(self, monkeypatch, text):
        def refuse(*args, **kwargs):
            raise AssertionError("loadtxt read a body outside the gate")
        monkeypatch.setattr(ingest, "_loadtxt", refuse)
        assert _outcome(parse_trace, text) == _outcome(_reference_auto, text)

    @pytest.mark.parametrize("data", [b"t,v\n", b"t,v", b"t,v\n\n\n",
                                      b"time\tV(x)\n", b"t,v\n0,1\n"])
    def test_no_warning_escapes(self, data):
        # An empty body sends the file to the scan, and no warning (such as
        # np.loadtxt's of an input with no data) is raised or shown.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError):
                parse_trace(data)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            with pytest.raises(InsufficientDataError):
                parse_trace(data)
        assert shown == []


class TestSniffAndLoad:
    def test_sniff(self):
        # Each text reads differently by the two reference readers, so the
        # outcome shows which layout the header line picked.
        csv, spice = reference_trace_csv, reference_spice_export
        for text, layout, other in [
            ("time\tV(x)\n0\t1\n1\t2\n", spice, csv),
            ("t,v\n0,1\n1,2\n", csv, spice),
            ("", csv, spice),
            # The header is the first non-blank line, stripped.
            ("\ntime\tV(x)\n0\t1\n1\t2\n", spice, csv),
            (" \t \nt,v\n0\t1\n", csv, spice),
            ("\r\n\t\r\n", csv, spice),
        ]:
            got = _outcome(parse_trace, text)
            assert got == _outcome(layout, text), text
            assert got != _outcome(other, text), text

    @pytest.mark.parametrize("text,signal", [
        ("\ntime\tV(x)\n0\t1\n1\t2\n", "V(x)"),
        (" \t \nt,v\n0,1\n1,2\n", "v"),
    ], ids=["blank-then-spice", "tab-blank-then-csv"])
    def test_load_auto_sniffs_the_header_line(self, tmp_path, text, signal):
        p = tmp_path / "trace.txt"
        p.write_text(text)
        s = load_trace(p)
        assert s.t.tolist() == [0.0, 1.0]
        assert s.meta.signal == signal

    def test_load_csv(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_bytes(b"t,v\n0,1\n1,2\n")
        s = load_trace(p)
        assert isinstance(s, TimeSeries)
        assert s.meta.source_id == "run"
        assert s.v.tolist() == [1.0, 2.0]

    def test_load_spice_auto(self, tmp_path):
        p = tmp_path / "export.raw.txt"
        p.write_text(make_spice_text(10))
        s = load_trace(p)
        assert len(s) == 10
        assert s.meta.signal == "V(xdd)"

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(tmp_path / "nope.csv")

    def test_format_is_not_an_argument(self, tmp_path):
        # The header line alone picks the layout; a second positional
        # argument is refused rather than taken as the source id.
        p = tmp_path / "x.csv"
        p.write_bytes(b"t,v\n0,1\n1,2\n")
        for call in (lambda: parse_trace("t,v\n0,1\n1,2\n", "csv"),
                     lambda: parse_trace("t,v\n0,1\n1,2\n", fmt="csv"),
                     lambda: load_trace(p, "csv"),
                     lambda: load_trace(p, fmt="auto")):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("text", [
        "time\tV(x)\n0\t1\n1\t2\n",  # the gated read's layout
        "time\tV(x)\r\n 0\t1\n\n1\t2\n",  # the checked scan's
        "\ntime\tV(x)\n0\t1\n1\t2\n",  # the mark alone on line 1
    ], ids=["gated", "scan", "blank-line-1"])
    def test_byte_order_mark_is_dropped(self, text):
        bom = "\ufeff" + text
        for data in (bom, bom.encode("utf-8")):
            s = parse_trace(data)
            assert s.meta.signal == "V(x)"
            assert _outcome(parse_trace, data) == _outcome(parse_trace, text)
        # A csv header only names the signal, and reads as it did with the mark.
        csv = b"\xef\xbb\xbft,v\n0,1\n1,2\n"
        assert parse_trace(csv).meta.signal == "v"
        assert parse_trace(csv).v.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("data,line", [
        (b"\xef\xbb\xbftime\tV(x)\n0\t1\n1\t\xff\n", 3),
        (b"\xef\xbb\xbft,v\r0,1\r1,\xff\r", 3),
        (b"\xef\xbb\xbf\xff,v\n0,1\n1,2\n", 1),
    ])
    def test_bad_utf8_after_a_byte_order_mark_counts_from_the_first_byte(
            self, data, line):
        with pytest.raises(ParseError) as info:
            parse_trace(data)
        at = data.index(b"\xff")
        assert str(info.value) == f"line {line}: not valid UTF-8 at byte {at}"

    def test_parse_errors_are_data_errors(self):
        # The whole parse-failure family maps to the data-problem branch of
        # the hierarchy (CLI exit status 1), not the bad-request branch.
        with pytest.raises(DataError):
            parse_trace("t,v\n0,1\nbad\n")


# Cells that are not plain increasing numbers: blanks, non-numbers,
# non-finite spellings, and texts float() reads in its own way.
ODD_CELLS = ("", " ", "abc", "1.5.2", "0x10", "nan", "NaN", "inf", "-inf",
             "Infinity", "1e999", "1_0", "\u0661\u0662", " 7 ", "\x1f8", "+.5",
             "1e-3")
BLANKS = ("", " ", "\t", " \t ")


def _reference_auto(text: str):
    """The reference reader the header line picks: spice when the first
    non-blank line, stripped, holds a tab."""
    header = next((line.strip() for line in text.splitlines() if line.strip()), "")
    return (reference_spice_export if "\t" in header else reference_trace_csv)(text)


# The layouts texts are generated in: (delimiter, headers as (text, time
# column, value column, width)); no header for None.
LAYOUTS = (
    (",", [("t,v", 0, 1, 2), ("time,xdd,extra", 0, 1, 3), ("t", 0, 1, 2),
           (None, 0, 1, 2)]),
    ("\t", [("time\tV(x)", 0, 1, 2), ("V(x)\tTime", 1, 0, 2),
            ("TIME\tV(a)\tV(b)", 0, 1, 3), ("volts\tamps", 0, 1, 2),
            ("V(a)\tV(b)\ttime", 2, 0, 3), ("time", 0, 1, 2),
            ("time\t", 0, 1, 2)]),
)


def _fuzz_text(rng: random.Random, delimiter: str, headers) -> str:
    """A short trace text in one reader's layout; each kind of fault hits a
    row with a per-text probability, so some texts are clean and some have
    several faults. Half the texts are in the layout the gated read takes:
    LF line ends, no padding and no blank line before the header."""
    header, time_col, value_col, width = rng.choice(headers)
    rate = rng.choice((0.0, 0.03, 0.1, 0.3))
    gated = rng.random() < 0.5
    blanks = 0 if gated else rng.choice((0, 0, 0, 1, 2))
    lines = [rng.choice(BLANKS) for _ in range(blanks)]
    if header is not None:
        lines.append(header)
    t = rng.uniform(-5.0, 5.0)
    for _ in range(rng.randint(0, 7)):
        if rng.random() < rate:
            lines.append(rng.choice(BLANKS))
        t += -rng.random() if rng.random() < rate else rng.choice((1.0, 0.25, 1e-3))
        cells = ["0"] * width
        cells[time_col] = rng.choice(ODD_CELLS) if rng.random() < rate else repr(t)
        cells[value_col] = rng.choice(ODD_CELLS) if rng.random() < rate \
            else repr(rng.gauss(0.0, 1.0))
        if rng.random() < rate:  # a non-finite time beside a non-number
            cells[time_col], cells[value_col] = rng.choice(("inf", "nan")), "abc"
        if rng.random() < rate:
            cells = cells[:rng.randint(0, width - 1)]
        elif rng.random() < rate:
            cells.append("9")
        pad = "" if gated else rng.choice(("", "", " ", "\t"))
        lines.append(pad + delimiter.join(cells) + pad)
    if gated:
        return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\r\n\r\n"))


# Texts on the edges of the gate: every byte after the header is one the
# gated read takes, but the rows are not all a clean series.
GATE_EDGES = (
    "t,v\n0,1\n1,,2\n",  # an empty cell
    "t,v\n1\n3,4\n",  # a row of one cell
    "t,v\n0,1,5\n1,2\n2,3,4,5\n",  # ragged rows, each wide enough
    "t,v\n0,1\n2\n",  # a ragged row too short
    "t,v\n0,1,\n1,2,\n",  # a trailing delimiter
    "time\tV(x)\n0\t1\t\n1\t2\t\n",
    "t,v\n0,1\n1,2",  # no final newline
    "time\tV(x)\n0\t1\n1\t2",
    "t,v\n0,1\ne5,2\n",  # cells that are only an exponent, or end in one
    "t,v\n0,1\n1,1e\n",
    "t,v\n0,1\n1e,2\n",
    "t,v\n0,1\n1,1e999\n",  # read as inf, then refused
    "t,v\n0,1\n1e999,2\n",
    "t,v\n\n\n\n",  # a body of only newlines
    "t,v\n0,1\n\n\n",
    "t,v\n,2\n1,3\n",
    "t,v\n0,1\n0,2\n",
    "V(a)\tV(b)\ttime\n1\t2\t0\n3\t4\t1\n",  # time in column 2
    "V(a)\tV(b)\ttime\n1\t2\t0\n3\t4\n",
    "V(a)\tV(b)\ttime\n1\t2\t0\n3\t4\t\n",
    "V(x)\tTime\n1\t0\n2\t1\n",
    "t,v\r\n0,1\r\n1,2\r\n",  # CRLF; a lone CR ends a line for the scan only
    "t,v\r\n0,1\r1,2\r\n",
    "t,v\n0,1\r\r\n1,2\n",
    "t,v\n\r\n0,1\n\r1,2\n",
    "t,v\n0,1\n1,2\r",
    "time\tV(x)\r\n0\t1\r\n1\t2\t\r\n",
    "t,v",  # a header with no line end
    "t,v\nx0,1\n1,2\n",  # a byte outside the gate, first or last in the body
    "t,v\n0,1\n1,2x",
    "t,v\n0,1\nv,2\n",  # a byte the header holds, in the body
    "\ufefft,v\r\n0,1\r\n1,2\r\n",  # a byte-order mark and a CRLF header
)


def _outcome(read, text: str):
    try:
        s = read(text)
    except JerkLabError as exc:
        return type(exc), str(exc), exc.line, getattr(exc, "rows", None)
    return s.t.tobytes(), s.v.tobytes(), s.meta


class TestReferenceReader:
    """The two-path reader against the former per-row reader (conftest)."""

    def test_matches_reference_on_generated_texts(self, monkeypatch):
        scans = []
        scan = ingest._scan
        monkeypatch.setattr(ingest, "_scan",
                            lambda *args: scans.append(1) or scan(*args))
        rng = random.Random(20261018)
        texts = [_fuzz_text(rng, *rng.choice(LAYOUTS)) for _ in range(10_000)]
        kinds, gated = {}, 0
        for text in texts + list(GATE_EDGES):
            want = _outcome(_reference_auto, text)
            ok = not isinstance(want[0], type)
            for data in (text, text.encode("utf-8")):
                before = len(scans)
                assert _outcome(parse_trace, data) == want, data
                gated += ok and len(scans) == before
            kind = "ok" if ok else want[1].split(": ")[1].split(" [")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        # Every outcome the readers can give was exercised many times.
        assert set(kinds) == {
            "ok", "expected at least 2 fields, found 1",
            "expected at least 3 fields, found 1",
            "expected at least 3 fields, found 2", "not a number",
            "non-finite value", "time not strictly increasing",
            "need at least 2 data rows, found 0",
            "need at least 2 data rows, found 1", "no 'time' column in header",
        }, kinds
        assert min(kinds.values()) >= 50, kinds
        # Many of the series came from the gated read, with no scan.
        assert gated >= 1000, gated

    def test_bad_utf8_after_a_bad_spice_header_is_reported_first(self):
        # The body fails the gate, so the file is decoded in full before the
        # header is checked: the UTF-8 error wins, as it did with one path.
        for header in (b"volts\tamps", b"V(a)\tV(b)\tamps"):
            data = header + b"\n0\t1\n1\t\xff\n"
            with pytest.raises(ParseError) as info:
                parse_trace(data)
            at = data.index(b"\xff")
            assert str(info.value) == f"line 3: not valid UTF-8 at byte {at}"
            assert info.value.line == 3


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cuts(raw: bytes, start: int) -> list[int]:
    """The cuts of the in-memory body ``raw[start:]``."""
    return ingest._cuts(raw.find, start, len(raw))


def _cpus(monkeypatch, count: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def kills(monkeypatch) -> list:
    """(pid, signal) of each ``os.kill`` call, which still goes through."""
    calls = []
    kill = os.kill
    monkeypatch.setattr(os, "kill",
                        lambda pid, sig: calls.append((pid, sig)) or kill(pid, sig))
    return calls


def _noisy_rows(seed: int, rows: int) -> str:
    """A tab-separated text of ``rows`` clean rows, the time in column 1."""
    rng = random.Random(seed)
    return "V(x)\tTime\n" + "".join(
        f"{rng.gauss(0.0, 1.0)!r}\t{k + rng.random()!r}\n" for k in range(rows))


class TestSplitRead:
    """The gated read in several processes: a body of k shares of at least
    ``_SPLIT_FLOOR`` bytes each is parsed in k processes at once."""

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_matches_reference_in_shares(self, monkeypatch, forks, cpus):
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 1)
        _cpus(monkeypatch, cpus)
        scans = []
        scan = ingest._scan
        monkeypatch.setattr(ingest, "_scan",
                            lambda *args: scans.append(1) or scan(*args))
        rng = random.Random(20261019 + cpus)
        texts = [_fuzz_text(rng, *rng.choice(LAYOUTS)) for _ in range(300)]
        split = split_series = 0
        for text in texts + list(GATE_EDGES):
            forked, scanned = len(forks), len(scans)
            want = _outcome(_reference_auto, text)
            assert _outcome(parse_trace, text) == want, text
            _no_child_left()
            split += len(forks) > forked
            # A series read in shares, with no scan after it.
            split_series += (len(forks) > forked and len(scans) == scanned
                             and not isinstance(want[0], type))
        assert split >= 50, split
        assert split_series >= 25, split_series
        # Under four CPUs, texts of three rows or more got three children.
        assert (len(forks) > split) == (cpus == 4)

    def test_cuts_are_line_ends(self, monkeypatch):
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 4)
        _cpus(monkeypatch, 4)
        body = b"0,1\n1,2\n2,3\n3,4\n4,5\n"
        cuts = _cuts(body, 0)
        assert cuts == [0, 8, 12, 16, 20]
        assert all(body[c - 1:c] == b"\n" for c in cuts[1:])
        # A body under two floors is one share, and no share is empty.
        assert _cuts(b"0,1\n1,2", 0) == [0, 7]
        assert _cuts(b"0,1\n" + b"\n" * 12, 0) == [0, 4, 8, 12, 16]
        assert _cuts(b"0,1,2,3,4,5,6,7,8\n", 0) == [0, 18]
        # Below a header the offsets are those of the file, shifted by the
        # header, and the header's length counts toward no share.
        assert _cuts(b"time,xdd\n" + body, 9) == [c + 9 for c in cuts]
        assert _cuts(b"t,v\n0,1\n1,2", 4) == [4, 11]

    @pytest.mark.parametrize("fault,message", [
        ("1,", "line 40: not a number: ''"),
        ("1e", "line 40: not a number: '1e'"),
        ("1e999", "line 40: non-finite value: '1e999'"),
        ("0.5", "line 40: time not strictly increasing: 0.5 after 37.0"),
    ])
    def test_fault_in_the_last_share_names_its_line(self, monkeypatch, forks,
                                                     fault, message):
        # Rows 0..37 are clean; the last row (line 40), in the last of four
        # shares, holds a bad cell or steps back in time.
        text = "t,v\n" + "".join(f"{k},{k % 7}\n" for k in range(38)) + f"{fault},2\n"
        with pytest.raises(ParseError) as one:
            parse_trace(text)
        assert not forks
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 40)
        _cpus(monkeypatch, 4)
        raw = text.encode()
        cuts = _cuts(raw, raw.index(b"\n") + 1)
        assert cuts[-2] < raw.index(f"{fault},2".encode())
        with pytest.raises(ParseError) as split:
            parse_trace(text)
        assert len(forks) == 3
        assert str(split.value) == str(one.value) == message
        assert split.value.line == one.value.line == 40
        _no_child_left()

    def test_fault_in_the_parent_share_kills_the_child(self, monkeypatch, kills):
        # This process parses the last share, which holds the bad cell. The
        # child's share would be thrown away, so the child is killed, not
        # waited for: here it would sleep for a minute.
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 1)
        _cpus(monkeypatch, 2)
        pids = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])

        def sleeper(out, cells):
            try:
                time.sleep(60)
            finally:
                os._exit(0)

        monkeypatch.setattr(ingest, "_child", sleeper)
        text = "t,v\n0,1\n1,2\n2,3\n3,\n"
        raw = text.encode()
        assert _cuts(raw, 4)[-2] <= raw.index(b"3,\n")
        began = time.monotonic()
        with pytest.raises(ParseError) as info:
            parse_trace(text)
        assert time.monotonic() - began < 30
        assert str(info.value) == "line 5: not a number: ''"
        assert info.value.line == 5
        assert len(pids) == 1 and kills == [(pids[0], signal.SIGKILL)]
        _no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_series_adopts_the_array_it_was_read_into(
            self, tmp_path, monkeypatch, forks, no_scan, kills, cpus):
        # Every child's rows pass through several blocks, the last one
        # partial, into one (2, n) array that the series keeps as its t and v.
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100)
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", 3)
        _cpus(monkeypatch, cpus)
        text = _noisy_rows(20261030, 40)
        assert len(_cuts(text.encode(), text.index("\n") + 1)) == cpus + 1
        want = _outcome(_reference_auto, text)
        for read in (parse_trace, _load(tmp_path)):
            series = read(text)
            rows = series.t.base
            assert rows is series.v.base and rows.shape == (2, 40)
            assert rows.flags.c_contiguous and series.t.flags.c_contiguous
            assert not (rows.flags.writeable or series.t.flags.writeable
                        or series.v.flags.writeable)
            assert (series.t.tobytes(), series.v.tobytes(), series.meta) == want
        assert len(forks) == 2 * (cpus - 1) and kills == []
        _no_child_left()

    @pytest.mark.parametrize("sent, status", [
        (lambda count, cells: count[:4], 0),
        (lambda count, cells: b"", 0),
        (lambda count, cells: count + cells[:-16], 0),
        (lambda count, cells: count + cells[:-8], 0),
        (lambda count, cells: count + cells + cells[:16], 0),
        (lambda count, cells: count + cells, 1),
    ], ids=["short-count", "nothing", "a-row-fewer", "half-a-row-fewer",
            "a-row-more", "exit-status-1"])
    def test_child_that_sends_a_wrong_share_sends_the_file_to_the_scan(
            self, monkeypatch, forks, scans, sent, status):
        # The child parses its share, then sends ``sent`` of its count and
        # cells and exits with ``status``; the scan reads the file to the
        # reference outcome, here a series.
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100)
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", 3)
        _cpus(monkeypatch, 2)

        def child(out, cells):
            try:
                rows = cells()
                out.write(sent(len(rows).to_bytes(8, "little"), rows.tobytes()))
                out.close()
            finally:
                os._exit(status)

        text = _noisy_rows(20261031, 40)
        want = _outcome(_reference_auto, text)
        assert not isinstance(want[0], type)
        monkeypatch.setattr(ingest, "_child", child)
        assert _outcome(parse_trace, text) == want
        assert len(forks) == 1 and scans == [1]
        _no_child_left()

    def test_fault_in_the_parent_share_ends_a_child_with_a_full_pipe(
            self, monkeypatch):
        # The child's cells overflow its pipe's buffer (64 KiB on Linux).
        # When the parent's share, the last, fails on its last row, the
        # parent leaves the pipe unread, and the child must stop, not wait
        # to write.
        pids, hung = [], []
        fork = os.fork

        def record():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        def stuck(signum, frame):
            hung.append(1)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)

        monkeypatch.setattr(os, "fork", record)
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100_000)
        _cpus(monkeypatch, 2)
        text = "t,v\n" + "".join(f"{k},{k % 7}\n" for k in range(39_999)) + "39999,\n"
        raw = text.encode()
        cuts = _cuts(raw, 4)
        assert len(cuts) == 3 and 16 * raw.count(b"\n", 4, cuts[1]) > 65_536
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(20)
        try:
            with pytest.raises(ParseError) as info:
                parse_trace(text)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(info.value) == "line 40001: not a number: ''"
        assert info.value.line == 40_001
        assert len(pids) == 1
        assert not hung
        _no_child_left()

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    @pytest.mark.parametrize("refused", [0, 1], ids=["first-child", "later-child"])
    def test_refused_pipe_or_fork_leaves_the_rest_to_this_process(
            self, monkeypatch, forks, no_scan, call, refused):
        # Four shares: the children before the refused call parse theirs,
        # and this process parses every share from the refused one on.
        rng = random.Random(20261021)
        text = "t,v\n" + "".join(f"{k + rng.random()!r},{rng.gauss(0, 1)!r}\n"
                                 for k in range(40))
        want = _outcome(parse_trace, text)
        assert not forks and not isinstance(want[0], type)
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100)
        _cpus(monkeypatch, 4)
        assert len(_cuts(text.encode(), 4)) == 5
        made = []
        real = getattr(os, call)

        def refuse():
            if len(made) == refused:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            made.append(1)
            return real()

        monkeypatch.setattr(os, call, refuse)
        assert _outcome(parse_trace, text) == want
        assert len(forks) == refused
        _no_child_left()

    def test_file_above_the_floor_forks(self, tmp_path, monkeypatch, forks,
                                        no_scan):
        # The real floor: a body of two floors is read in two processes, and
        # to the same bits as in one, with no scan.
        _cpus(monkeypatch, 2)
        rows = 2 * ingest._SPLIT_FLOOR // 20 + 1
        t = [k * 1e-3 for k in range(rows)]
        v = [math.sin(0.37 * k) for k in range(rows)]
        path = tmp_path / "capture.csv"
        path.write_bytes(write_series_csv(mk_ts(t, v)))
        assert path.stat().st_size > 2 * ingest._SPLIT_FLOOR
        split = load_trace(path)
        assert len(forks) == 1
        _no_child_left()
        _cpus(monkeypatch, 1)
        one = load_trace(path)
        assert len(forks) == 1
        assert split.t.tobytes() == one.t.tobytes() == np.array(t).tobytes()
        assert split.v.tobytes() == one.v.tobytes() == np.array(v).tobytes()
        # Half the body is one share on any number of CPUs.
        _cpus(monkeypatch, 8)
        half = b"t,v\n" + path.read_bytes().split(b"\n", 1)[1][:ingest._SPLIT_FLOOR]
        parse_trace(half[:half.rindex(b"\n") + 1])
        assert len(forks) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_reads_the_file_in_place(self, monkeypatch, forks, no_scan, cpus):
        # No copy of the body is made, which would add 1.0x. The peak is the
        # buffer bytes.translate sizes to the file (1.0x, never written for a
        # clean body), then this process's cells and the array the series
        # adopts, at most 32 bytes a row against about 38 in a row of the
        # benchmark captures' layout.
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100_000)
        _cpus(monkeypatch, cpus)
        rng = random.Random(20261020)
        raw = ("time,xdd\n" + "".join(
            f"{k * 1e-3 + rng.uniform(-1e-4, 1e-4)!r},{rng.gauss(0.0, 1.0)!r}\n"
            for k in range(20_000))).encode()
        tracemalloc.start()
        try:
            series = parse_trace(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == 20_000
        assert len(forks) == cpus - 1
        _no_child_left()
        assert peak < 1.25 * len(raw), peak / len(raw)

    def test_one_process_without_fork_or_beside_a_thread(self, monkeypatch, forks):
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 1)
        _cpus(monkeypatch, 2)
        text = "t,v\n0,1\n1,2\n2,3\n"
        want = _outcome(parse_trace, text)
        assert len(forks) == 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _outcome(parse_trace, text) == want
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        # With SIGCHLD ignored, the system reaps a child and its status with it.
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert _outcome(parse_trace, text) == want
        finally:
            signal.signal(signal.SIGCHLD, previous)
        monkeypatch.delattr(os, "fork")
        assert _outcome(parse_trace, text) == want
        assert len(forks) == 1

    @pytest.mark.parametrize("text", ["t,v\n0,1\n1,2\n2,3\n",  # clean
                                      "t,v\n0,1\n\n\n\n\n",  # an empty share
                                      "t,v\n0,1\n1,2\n2,\n"])  # a bad cell
    def test_no_warning_escapes(self, monkeypatch, forks, text):
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 1)
        _cpus(monkeypatch, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _outcome(parse_trace, text)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert _outcome(parse_trace, text) == want
        assert shown == []
        assert forks
        _no_child_left()


def _load(tmp_path):
    """``load_trace`` of a file in ``tmp_path`` holding a text's bytes, as
    ``parse_trace`` encodes them, under parse_trace's source id."""
    path = tmp_path / "trace.csv"

    def read(data):
        path.write_bytes(data.encode("utf-8", "surrogatepass")
                         if isinstance(data, str) else data)
        return load_trace(path, source_id="")
    return read


# Lines longer than load_trace's 4 KiB window: a header, and a row on which
# cuts fall.
LONG_LINES = ("t,v" + ",v" * 3000 + "\n0,1\n1,2\n",
              "t,v\n0,1\n1." + "0" * 9000 + ",2\n" + "".join(
                  f"{k},{k % 5}\n" for k in range(10**9, 10**9 + 400)))


class TestFileRead:
    """``load_trace`` reads a regular file share by share with os.pread, to
    the outcome ``parse_trace`` gives its bytes."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_matches_parse_trace_in_shares(self, tmp_path, monkeypatch, forks,
                                           scans, cpus):
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 1)
        _cpus(monkeypatch, cpus)
        cuts = []
        real_cuts = ingest._cuts
        monkeypatch.setattr(ingest, "_cuts", lambda *a: cuts.append(real_cuts(*a))
                            or cuts[-1])
        load = _load(tmp_path)
        rng = random.Random(20261019 + cpus)  # TestSplitRead's texts at 2 and 4
        texts = [_fuzz_text(rng, *rng.choice(LAYOUTS)) for _ in range(300)]
        split = split_series = 0
        for text in texts + list(GATE_EDGES) + list(LONG_LINES):
            del cuts[:]
            want = _outcome(parse_trace, text)
            assert want == _outcome(_reference_auto, text), text
            forked, scanned = len(forks), len(scans)
            assert _outcome(load, text) == want, text
            _no_child_left()
            # The file's line ends cut its body where the text's do.
            assert len(cuts) in (0, 2) and cuts[:1] == cuts[1:], text
            split += len(forks) > forked
            split_series += (len(forks) > forked and len(scans) == scanned
                             and not isinstance(want[0], type))
        if cpus == 1:
            assert split == 0
        else:
            assert split >= 50 and split_series >= 25, (split, split_series)

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    @pytest.mark.parametrize("refused", [0, 1], ids=["first-child", "later-child"])
    def test_refused_pipe_or_fork_leaves_the_rest_to_this_process(
            self, tmp_path, monkeypatch, forks, no_scan, call, refused):
        # TestSplitRead's case, read from a file.
        rng = random.Random(20261021)
        text = "t,v\n" + "".join(f"{k + rng.random()!r},{rng.gauss(0, 1)!r}\n"
                                 for k in range(40))
        want = _outcome(parse_trace, text)
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100)
        _cpus(monkeypatch, 4)
        assert len(_cuts(text.encode(), 4)) == 5
        made = []
        real = getattr(os, call)

        def refuse():
            if len(made) == refused:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            made.append(1)
            return real()

        monkeypatch.setattr(os, call, refuse)
        assert _outcome(_load(tmp_path), text) == want
        assert len(forks) == refused
        _no_child_left()

    @pytest.mark.parametrize("share", [0, 1], ids=["child", "this-process"])
    def test_short_pread_reads_the_file_whole(self, tmp_path, monkeypatch, forks,
                                             scans, share):
        # The file comes back one byte short in one of two shares, as if cut
        # while being read: the gated read gives up and the scan reads the
        # whole file.
        text = "t,v\n" + "".join(f"{k},{k % 7}\n" for k in range(40))
        want = _outcome(parse_trace, text)
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 50)
        _cpus(monkeypatch, 2)
        cuts = _cuts(text.encode(), 4)
        assert len(cuts) == 3
        pread = os.pread

        def short(fd, n, offset):
            return pread(fd, n - (offset == cuts[share]), offset)

        monkeypatch.setattr(os, "pread", short)
        assert _outcome(_load(tmp_path), text) == want
        assert len(forks) == 1 and scans == [1]
        _no_child_left()

    @pytest.mark.parametrize("row,message", [
        (" 5,1", None),  # a space: outside the gate, read by the scan
        ("5,1x", "line 7: not a number: '1x'"),
    ])
    def test_child_share_outside_the_gate(self, tmp_path, monkeypatch, forks,
                                          scans, row, message):
        # The byte outside the gate is in the first share, which a child
        # gates and refuses; the scan reads the file.
        rows = [f"{k},{k % 7}" for k in range(40)]
        rows[5] = row
        text = "t,v\n" + "\n".join(rows) + "\n"
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 50)
        _cpus(monkeypatch, 2)
        raw = text.encode()
        assert raw.index(row.encode()) < _cuts(raw, 4)[1]
        want = _outcome(_reference_auto, text)
        assert (want[1] if message else None) == message
        assert _outcome(_load(tmp_path), text) == want
        assert len(forks) == 1 and scans == [1]
        _no_child_left()

    def test_size_below_the_header_reads_the_file_whole(self, tmp_path,
                                                        monkeypatch, scans):
        # A file may report size 0, as /proc files do, or have grown since
        # its size was taken: the body between the header and that size is
        # empty, so the scan reads the file whole.
        text = "t,v\n0,1\n1,2\n"
        want = _outcome(parse_trace, text)
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (*fstat(fd)[:6], 0, *fstat(fd)[7:])))
        assert _outcome(_load(tmp_path), text) == want
        assert scans == [1]

    def test_reads_only_its_shares(self, tmp_path, monkeypatch, forks, no_scan):
        # Two shares: this process holds only its own, the last, and the
        # buffer bytes.translate sizes to it (never written for a clean
        # share), about 1.0x the file. A read of the whole file peaks at
        # 2.0x: the file, then a translate buffer of its size.
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100_000)
        _cpus(monkeypatch, 2)
        rng = random.Random(20261020)
        raw = ("time,xdd\n" + "".join(
            f"{k * 1e-3 + rng.uniform(-1e-4, 1e-4)!r},{rng.gauss(0.0, 1.0)!r}\n"
            for k in range(20_000))).encode()
        path = tmp_path / "capture.csv"
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            series = load_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == 20_000
        assert len(forks) == 1
        _no_child_left()
        assert peak < 1.25 * len(raw), peak / len(raw)

    def test_a_pipe_is_read_whole(self, monkeypatch, forks):
        # A pipe has no offsets to read at, nor a size: it is read in one go
        # and parsed as parse_trace parses it, here in two shares as the
        # same bytes are.
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 1)
        _cpus(monkeypatch, 2)
        text = "t,v\n0,1\n1,2\n2,3\n"
        want = _outcome(parse_trace, text)
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        try:
            assert _outcome(lambda _: load_trace(f"/dev/fd/{r}", source_id=""),
                            text) == want
        finally:
            os.close(r)
        assert len(forks) == 2
        _no_child_left()


#: The characters numpy's C reader pulls through each ``read()`` of a share.
_CHUNK = 16_384


class _ReadOnly(io.BytesIO):
    """A buffer read only by ``read()``, which notes the size of each read."""

    def __init__(self, data: bytes = b""):
        super().__init__(data)
        self.reads = []

    def read(self, size=-1):
        self.reads.append(size)
        return super().read(size)

    def __iter__(self):
        raise AssertionError("the buffer was iterated line by line")

    def readline(self, size=-1):
        raise AssertionError("the buffer was read line by line")


def _cells(read):
    """(shape, bytes) of the array ``read()`` gives, or "refused" when it
    raises ValueError or warns (np.loadtxt warns of an input with no rows)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cells = read()
        except (ValueError, UserWarning):
            return "refused"
    return cells.shape, cells.tobytes()


def _seamed(before: str, after: str, blocks: int = 4) -> str:
    """A comma-separated text whose body is ``blocks`` blocks of one length,
    each ending at a line end. In each block ``before`` ends and ``after``
    begins _CHUNK characters in: on the seam of the first two chunks of a
    share that begins with the block. ``before`` is a format of {a}, the
    time of the row it starts, and ``after`` of {b}, the next row's time;
    the rows around them are clean."""
    body = []
    for base in range(0, 10_000 * blocks, 10_000):
        cut = before.format(a=f"{base + 5000:07d}")
        rows, pad = divmod(_CHUNK - len(cut), 10)  # each row is 10 characters
        body += ["0" * pad, *[f"{base + k:07d},{k % 7}\n" for k in range(rows)],
                 cut, after.format(b=f"{base + 5001:07d}"),
                 *[f"{base + k:07d},{k % 7}\n" for k in range(6000, 6003)]]
    return "t,v\n" + "".join(body)


# (before, after) of the seam in each block of a _seamed text.
SEAMS = {
    "crlf": ("{a},1\r", "\n{b},2\n"),
    "lone-cr": ("{a},1\r", "{b},2\n"),
    "value-cell": ("{a},1.2", "5\n{b},2\n"),
    "time-cell": ("{a}.2", "5,1\n{b},2\n"),
    "blank-line": ("{a},1\n", "\n{b},2\n"),
    "blank-crlf-line": ("{a},1\r\n\r", "\n{b},2\n"),
    "bad-cell": ("{a},1e", "e\n{b},2\n"),
    "short-row": ("{a}0\r", "\n{b},2\n"),
    "step-back": ("{a},1\r", "0000001,2\n"),
}


class TestChunkedReader:
    """The gated read parses each share with numpy's C reader, which pulls
    _CHUNK characters at a time through the buffer's ``read()`` and ends a
    line at LF, CRLF or a lone CR, in a chunk or across two."""

    def test_reads_only_by_read(self):
        rows = [(k * 0.5, (k % 9) / 8) for k in range(8000)]
        raw = b"t,v\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows).encode()
        assert len(raw) > 3 * _CHUNK
        lines = _ReadOnly(raw)
        lines.seek(4)
        cells = ingest._loadtxt(lines, ",", (0, 1))
        assert cells.tobytes() == np.array(rows).tobytes()
        assert set(lines.reads) == {_CHUNK} and len(lines.reads) > 3

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_every_share_reads_only_by_read(self, tmp_path, monkeypatch, forks,
                                            no_scan, cpus):
        # A share read line by line raises, in a child as in this process,
        # and the scan it would fall back to raises too.
        monkeypatch.setattr(ingest, "io", SimpleNamespace(BytesIO=_ReadOnly))
        monkeypatch.setattr(ingest, "_SPLIT_FLOOR", 100)
        _cpus(monkeypatch, cpus)
        text = _noisy_rows(20261101, 40)
        want = _outcome(_reference_auto, text)
        for read in (parse_trace, _load(tmp_path)):
            assert _outcome(read, text) == want
            _no_child_left()
        assert len(forks) == 2 * (cpus - 1)

    def test_matches_public_loadtxt(self, tmp_path):
        # Each body inside the gate, read by _loadtxt and by np.loadtxt from
        # a file of the same bytes, which numpy reads through the same C
        # reader: the same bits, or a refusal by both. np.loadtxt of the
        # buffer itself iterates lines, and refuses a CR inside one that the
        # chunked reader ends a line at; on every other body it agrees.
        rng = random.Random(20261018)  # the reference texts
        texts = [_fuzz_text(rng, *rng.choice(LAYOUTS)) for _ in range(10_000)]
        path = tmp_path / "body.txt"
        counts = {"refused": 0, "read": 0, "lone CR": 0}
        for text in texts + list(GATE_EDGES):
            head, eol, body = text.encode("utf-8").partition(b"\n")
            header = head.decode("utf-8").removeprefix(ingest._BOM).splitlines()
            if not eol or len(header) != 1 or not header[0].strip():
                continue
            try:
                delimiter, cols, _ = ingest._header(header[0].strip(), 1, "")
            except ParseError:
                continue
            if body.translate(None, ingest._NUMERIC + delimiter.encode()):
                continue
            path.write_bytes(body)
            kwargs = dict(delimiter=delimiter, usecols=cols, ndmin=2,
                          comments=None, dtype=np.float64)
            got = _cells(lambda: ingest._loadtxt(io.BytesIO(body), delimiter, cols))
            assert got == _cells(lambda: np.loadtxt(path, **kwargs)), text
            by_line = _cells(lambda: np.loadtxt(io.BytesIO(body), **kwargs))
            # A CR that ends neither a CRLF nor the body.
            lone_cr = b"\r" in body.replace(b"\r\n", b"\n")[:-1]
            assert by_line == ("refused" if lone_cr else got), text
            counts["lone CR" if lone_cr else "refused" if got == "refused"
                   else "read"] += 1
        assert counts["read"] >= 1500 and counts["refused"] >= 500, counts
        assert counts["lone CR"] >= 3, counts

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_line_ends_and_cells_across_a_chunk_seam(self, tmp_path, monkeypatch,
                                                     forks, scans, cpus):
        # Four blocks of one length and up to four shares, each beginning
        # with a block: each share's first chunk ends inside a line end, a
        # cell or a blank line. A clean body takes the gated read; a faulty
        # one goes to the scan, which names the fault's line.
        _cpus(monkeypatch, cpus)
        load = _load(tmp_path)
        for name, (before, after) in SEAMS.items():
            text = _seamed(before, after)
            raw = text.encode()
            block = (len(raw) - 4) // 4
            monkeypatch.setattr(ingest, "_SPLIT_FLOOR", block)
            cuts = _cuts(raw, 4)
            assert cuts == [4 + 4 * block * i // cpus for i in range(cpus + 1)]
            for lo in cuts[:-1]:
                # Every time cell is seven digits, the first of them 0.
                assert raw[lo + _CHUNK - 1:lo + _CHUNK + 1] == (
                    before.format(a="0")[-1] + after.format(b="0")[0]).encode()
            want = _outcome(_reference_auto, text)
            clean = not isinstance(want[0], type)
            assert clean == (name not in ("bad-cell", "short-row", "step-back"))
            for read in (parse_trace, load):
                forked, scanned = len(forks), len(scans)
                assert _outcome(read, text) == want, (name, read)
                _no_child_left()
                assert len(forks) - forked == cpus - 1
                assert (len(scans) == scanned) == clean, (name, read)
