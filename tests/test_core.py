"""Tests for the system definition: right-hand side, parameters, symmetry."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
import random
import re
import sys
from pathlib import Path

import pytest

import jerklab
from jerklab import (
    CHAOTIC_A_LOWER,
    CHAOTIC_A_UPPER,
    DEFAULT_A,
    JerkParams,
    Sign,
    SystemState,
    ValidationError,
    in_chaotic_range,
)
from jerklab import cli
from jerklab.core import _rhs

MINUS, PLUS = Sign.MINUS.value, Sign.PLUS.value


class TestJerkRhs:
    """The kernel ``_rhs(x, xd, xdd, a, sf)`` every integrator steps with."""

    def test_origin_is_not_an_equilibrium(self):
        # J(0,0,0) = -0 - 0 - 0 = 0 ... x-feedback is -x, so the origin IS
        # a fixed point of the flow map: rhs(0,0,0) = (0, 0, 0).
        assert _rhs(0.0, 0.0, 0.0, DEFAULT_A, MINUS) == (0.0, 0.0, 0.0)

    def test_pure_displacement(self):
        # At (1, 0, 0): velocity and acceleration derivatives vanish and the
        # jerk reduces to the position feedback term alone.
        assert _rhs(1.0, 0.0, 0.0, 2.0, MINUS) == (0.0, 0.0, -1.0)

    def test_pure_velocity_minus(self):
        assert _rhs(0.0, 1.0, 0.0, 2.0, MINUS) == (1.0, 0.0, -1.0)

    def test_pure_velocity_plus(self):
        assert _rhs(0.0, 1.0, 0.0, 2.0, PLUS) == (1.0, 0.0, 1.0)

    def test_damping_term(self):
        assert _rhs(0.0, 0.0, 1.0, 2.0, MINUS) == (0.0, 1.0, -2.0)

    def test_not_odd_symmetric(self):
        # The squared-velocity term breaks odd symmetry of a single vector
        # field: negating the state does not negate the derivative.
        d_pos = _rhs(0.3, 0.7, -0.2, DEFAULT_A, MINUS)
        d_neg = _rhs(-0.3, -0.7, 0.2, DEFAULT_A, MINUS)
        assert d_neg[2] != -d_pos[2]

    def test_mirror_pairing_between_signs(self):
        # Negating the state exactly swaps the two nonlinearity signs:
        # rhs_plus(-s) == -rhs_minus(s), bit for bit.
        rnd = random.Random(7)
        for _ in range(500):
            x, xd, xdd = (rnd.uniform(-8, 8), rnd.uniform(-8, 8), rnd.uniform(-8, 8))
            d = _rhs(x, xd, xdd, 2.03, MINUS)
            m = _rhs(-x, -xd, -xdd, 2.03, PLUS)
            assert m == (-d[0], -d[1], -d[2])

    def test_linear_on_zero_velocity_slice(self):
        # With the velocity component pinned at zero the field is linear in
        # (x, xdd); check superposition to tight tolerance.
        rnd = random.Random(11)
        a = 2.03
        for _ in range(200):
            s1 = (rnd.uniform(-4, 4), 0.0, rnd.uniform(-4, 4))
            s2 = (rnd.uniform(-4, 4), 0.0, rnd.uniform(-4, 4))
            al, be = rnd.uniform(-2, 2), rnd.uniform(-2, 2)
            combo = (al * s1[0] + be * s2[0], 0.0, al * s1[2] + be * s2[2])
            d1, d2, dc = (_rhs(*s1, a, MINUS), _rhs(*s2, a, MINUS),
                          _rhs(*combo, a, MINUS))
            for got, want in zip(dc, (al * u + be * v for u, v in zip(d1, d2))):
                assert got == pytest.approx(want, abs=1e-12)


class TestJerkParams:
    def test_defaults(self):
        p = JerkParams()
        assert p.a == DEFAULT_A == 2.03
        assert p.sign is Sign.MINUS
        assert [f.name for f in dataclasses.fields(p)] == ["a", "sign"]

    @pytest.mark.parametrize("bad_a", [0.0, -1.0, -2.03])
    def test_rejects_nonpositive_damping(self, bad_a):
        with pytest.raises(ValidationError, match="a must be > 0"):
            JerkParams(a=bad_a)

    @pytest.mark.parametrize("bad_a", [math.nan, math.inf])
    def test_rejects_nonfinite_damping(self, bad_a):
        with pytest.raises(ValidationError):
            JerkParams(a=bad_a)

    def test_rejects_plain_number_for_sign(self):
        with pytest.raises(ValidationError):
            JerkParams(sign=-1)  # type: ignore[arg-type]


class TestSign:
    def test_factors(self):
        assert Sign.MINUS.value == -1.0
        assert Sign.PLUS.value == 1.0


class TestSystemState:
    def test_as_tuple(self):
        assert SystemState(1.0, 2.0, 3.0).as_tuple() == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValidationError):
            SystemState(bad, 0.0, 0.0)


class TestChaoticRange:
    def test_default_inside(self):
        assert in_chaotic_range(JerkParams())

    @pytest.mark.parametrize("a", [2.0168, 2.0577])
    def test_endpoints_excluded(self, a):
        assert not in_chaotic_range(JerkParams(a=a))

    @pytest.mark.parametrize("a", [1.5, 2.0, 2.10, 3.0])
    def test_outside(self, a):
        assert not in_chaotic_range(JerkParams(a=a))

    def test_monotone_sweep(self):
        # Membership along increasing damping flips exactly twice:
        # out -> in at the lower edge, in -> out at the upper edge.
        n = 2001
        lo, hi = 1.9, 2.2
        flags = [
            in_chaotic_range(JerkParams(a=lo + (hi - lo) * k / (n - 1)))
            for k in range(n)
        ]
        flips = sum(1 for u, v in zip(flags, flags[1:]) if u != v)
        assert flips == 2
        assert not flags[0] and not flags[-1]
        mid_index = min(range(n), key=lambda k: abs(
            lo + (hi - lo) * k / (n - 1)
            - 0.5 * (CHAOTIC_A_LOWER + CHAOTIC_A_UPPER)))
        assert flags[mid_index]


def test_public_surface_resolves_without_the_removed_wrappers():
    for name in ("euler_step", "rk4_step", "jerk_rhs", "circuit_time_scale",
                 "CsvOptions", "parse_trace_csv", "parse_spice_export",
                 "sniff_format"):
        assert name not in jerklab.__all__
        assert not hasattr(jerklab, name)
    for name in jerklab.__all__:
        assert hasattr(jerklab, name), name
    # The header line alone picks a trace's layout: no format setting is left.
    for name in ("FORMATS", "_check_format", "_DELIMITERS", "_format",
                 "_parse_rows"):
        assert not hasattr(jerklab.ingest, name), name
    for reader in (jerklab.parse_trace, jerklab.load_trace):
        params = inspect.signature(reader).parameters
        assert "fmt" not in params
        assert params["source_id"].kind is inspect.Parameter.KEYWORD_ONLY
    for table in (cli._SIMULATE, cli._COMPARE, cli._HORIZON):
        assert "format" not in table
    # A choice's name is read only by the CLI, from flags and config files.
    for cls in (jerklab.Sign, jerklab.Method, jerklab.MeanFrom):
        assert not hasattr(cls, "parse"), cls


def test_version_matches_pyproject():
    # The version is written twice: in the package and in its metadata.
    # Read without tomllib, which Python 3.10 lacks: the [project] table's
    # own version line.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert jerklab.__version__ == re.search(r'^version = "(.*)"$', project, re.M)[1]


def _starred_since_3_11(tree):
    """The Starred nodes of ``tree`` that only Python 3.11+ parses (PEP 646):
    in a subscript's slice, ``a[*b]`` or ``a[1, *b]``, and as the annotation
    of ``*args``. A parenthesized ``a[(*b,)]`` gives the same tree and is
    found with them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            cells = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        elif isinstance(node, ast.arguments) and node.vararg is not None:
            cells = [node.vararg.annotation]
        else:
            continue
        yield from (cell for cell in cells if isinstance(cell, ast.Starred))


def test_every_file_parses_as_the_oldest_python_supported():
    # requires-python states the floor; a file using newer syntax (an
    # except* clause, say) would fail only on that interpreter. The parser's
    # feature_version check is best effort: on 3.11 it refuses except* but
    # lets PEP 646's starred forms through, so below a 3.11 floor each tree
    # is also searched for those.
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    assert floor is not None
    version = (int(floor[1]), int(floor[2]))
    if sys.version_info >= (3, 11):  # 3.10's own parser refuses the forms
        forms = ast.parse("a[*b]\na[1, *b]\ndef f(*args: *Ts): pass\n")
        assert len(list(_starred_since_3_11(forms))) == 3
    files = sorted(path for top in ("src", "tests", "demos", ".github")
                   for path in (root / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path), feature_version=version)
        if version < (3, 11):
            lines = [node.lineno for node in _starred_since_3_11(tree)]
            assert not lines, f"{path}: 3.11 syntax on lines {lines}"
