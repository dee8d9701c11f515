"""Acceptance gate: eight end-to-end criteria, one test each.

Each criterion is a plain function that raises ``AssertionError`` on failure
and prints ``ACCEPTANCE n (<label>): PASS`` on success, so this file runs
under pytest or standalone (``python tests/test_acceptance.py``).

Criterion 6 is expected to FAIL, and that failure is intentional, not a bug
in the package: the reenactment is implemented exactly as specified — the
measured trace generated from the initial state (0, 0, 0.01) — and at those
settings the orbit misses the chaotic attractor and diverges to overflow
near t = 66, so no measured trace exists over the full span. The failure
message carries the complete analysis, including what happens when the run
is repaired with the capturing initial state (0, 0, 0.1): every candidate
then satisfies the final >= first clause, but none ever crosses NRMSE 1.0
(the worst candidate tops out around 0.65), so the crossing clause is
unattainable either way. Weakening the test to pass would misreport both
facts.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from jerklab import (
    IntegrationOverflowError,
    IntegratorConfig,
    JerkParams,
    Method,
    SystemState,
    cumulative_nrmse,
    divergence_rate,
    nrmse,
    parse_trace,
    select_reference,
    simulate,
    write_series_csv,
)
from jerklab.cli import main as cli_main
from jerklab.series import SeriesMeta, TimeSeries, UniformSeries

from conftest import LINEAR_PARAMS, simulation_bits


def _uniform(values, t0=0.0, dt=1.0) -> UniformSeries:
    return UniformSeries(t0=t0, dt=dt, values=values, meta=SeriesMeta())


def _random_pair(rnd: random.Random, n=None):
    if n is None:
        n = rnd.randint(2, 50)
    y = [rnd.gauss(0.0, 1.0) for _ in range(n)]
    yhat = [v + rnd.gauss(0.0, 0.5) for v in y]
    return _uniform(y), _uniform(yhat)


def _ok(number: int, label: str, extra: str = ""):
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number} ({label}): PASS{suffix}")


def _fail(number: int, label: str, detail: str):
    raise AssertionError(f"ACCEPTANCE {number} ({label}): FAIL — {detail}")


# ---------------------------------------------------------------------------

def criterion_1():
    """Reference selection picks the minimal-score candidate, fast."""
    label = "reference selection"
    scores = {1: 1.4752, 2: 1.5572, 3: 1.4841, 4: 1.4748}
    begin = time.perf_counter()
    winner = select_reference(scores)
    elapsed = time.perf_counter() - begin
    if winner != 4:
        _fail(1, label, f"expected candidate 4, got {winner!r}")
    if elapsed >= 1e-3:
        _fail(1, label, f"selection took {elapsed * 1e3:.3f} ms (budget 1 ms)")
    _ok(1, label, f"{elapsed * 1e6:.1f} us")


def criterion_2():
    """NRMSE identities: zero on identity, invariant under joint shift/scale."""
    label = "metric identities"
    rnd = random.Random(2)
    for i in range(1000):
        m, s = _random_pair(rnd)
        if nrmse(m, m) != 0.0:
            _fail(2, label, f"nrmse(s, s) != 0 on series {i}")
        base = nrmse(m, s)
        c = rnd.uniform(-10.0, 10.0)
        k = rnd.uniform(0.5, 3.0)
        shifted = nrmse(_uniform([v + c for v in m.values]),
                        _uniform([v + c for v in s.values]))
        scaled = nrmse(_uniform([v * k for v in m.values]),
                       _uniform([v * k for v in s.values]))
        if abs(shifted - base) > 1e-12:
            _fail(2, label,
                  f"shift by {c} moved score by {abs(shifted - base):.3g}")
        if abs(scaled - base) > 1e-12:
            _fail(2, label,
                  f"scale by {k} moved score by {abs(scaled - base):.3g}")
    two = nrmse(_uniform([0.0, 1.0]), _uniform([1.0, 0.0]))
    if abs(two - 2.0) > 1e-12:
        _fail(2, label, f"hand oracle [0,1]/[1,0] gave {two!r}, want 2.0")
    one = nrmse(_uniform([1.0, 2.0, 3.0]), _uniform([2.0, 2.0, 2.0]))
    if abs(one - 1.0) > 1e-12:
        _fail(2, label, f"hand oracle [1,2,3]/[2,2,2] gave {one!r}, want 1.0")
    _ok(2, label)


def criterion_3():
    """Cumulative windows: last equals full bit-exactly; standard boundaries."""
    label = "cumulative consistency"
    rnd = random.Random(3)
    for i in range(200):
        m, s = _random_pair(rnd, n=rnd.randint(10, 300))
        k = rnd.randint(1, 9)
        w = cumulative_nrmse(m, s, k)
        if w.scores[-1] != nrmse(m, s):
            _fail(3, label,
                  f"case {i}: last window {w.scores[-1]!r} != full "
                  f"{nrmse(m, s)!r} (must be bit-equal)")
    m, s = _random_pair(random.Random(33), n=4700)
    w = cumulative_nrmse(m, s, 10)
    expected = tuple(470 * j for j in range(1, 11))
    if w.boundaries != expected:
        _fail(3, label, f"boundaries {w.boundaries} != {expected}")
    _ok(3, label)


def criterion_4():
    """Byte-identical CLI reruns; bit-reproducible metric calls."""
    label = "determinism"
    with tempfile.TemporaryDirectory() as tmp:
        blobs = []
        for tag in ("first", "second"):
            out = Path(tmp) / f"{tag}.csv"
            code = cli_main(["simulate", "--out", str(out)])
            if code != 0:
                _fail(4, label, f"simulate exited {code}")
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            _fail(4, label, "two identical simulate runs differ byte-wise")
    m, s = _random_pair(random.Random(4), n=500)
    if nrmse(m, s) != nrmse(m, s):
        _fail(4, label, "nrmse is not bit-reproducible")
    if (cumulative_nrmse(m, s, 10).scores.tobytes()
            != cumulative_nrmse(m, s, 10).scores.tobytes()):
        _fail(4, label, "cumulative nrmse is not bit-reproducible")
    b = _uniform([1e-9 * math.exp(0.3 * k) for k in range(500)])
    a = _uniform([0.0] * 500)
    if divergence_rate(a, b, 0, 499) != divergence_rate(a, b, 0, 499):
        _fail(4, label, "divergence rate is not bit-reproducible")
    _ok(4, label)


def criterion_5():
    """RK4 beats 1e-6 on the linear subsystem and converges at 4th order.

    The integrators run the model with its quadratic coefficient set to 0,
    so their output has a closed form to compare with."""
    label = "integrator correctness"
    _ok(5, label, _linear_subsystem_accuracy(label))


def _linear_subsystem_accuracy(label: str) -> str:
    begin = time.perf_counter()
    params = LINEAR_PARAMS
    a = params.a
    ic = SystemState(1.0, 0.0, 0.0)

    roots = np.roots([1.0, a, 0.0, 1.0])
    vand = np.vander(roots, 3, increasing=True).T
    coef = np.linalg.solve(vand, np.array([1.0, 0.0, 0.0], dtype=complex))

    def exact_x(times):
        return (np.exp(np.outer(np.asarray(times), roots)) @ coef).real

    config = IntegratorConfig(t_end=10.0, step=1e-3, output_points=101,
                              initial_state=ic)
    res = simulate(config, params)
    if simulation_bits(res) == simulation_bits(simulate(config, JerkParams(a=a))):
        _fail(5, label, "the quadratic term was never switched off")
    err = float(np.max(np.abs(np.array(res.x.values) - exact_x(res.x.times()))))
    if err >= 1e-6:
        _fail(5, label, f"linear-subsystem error {err:.3g} >= 1e-6 at h=1e-3")

    def max_err(step):
        r = simulate(IntegratorConfig(t_end=10.0, step=step, output_points=21,
                                      initial_state=ic), params)
        return float(np.max(np.abs(np.array(r.x.values) - exact_x(r.x.times()))))

    ratio = max_err(0.05) / max_err(0.025)
    if not 12.0 <= ratio <= 20.0:
        _fail(5, label, f"halving-step error ratio {ratio:.2f} outside [12, 20]")
    elapsed = time.perf_counter() - begin
    if elapsed >= 5.0:
        _fail(5, label, f"took {elapsed:.1f} s (budget 5 s)")
    return f"err {err:.2e}, ratio {ratio:.2f}, {elapsed:.2f} s"


def _reenactment_profiles(base_ic: SystemState):
    """The full candidate-comparison pipeline for criterion 6.

    Measured truth: RK4 at step 1e-3. Candidates: the same generator at a
    doubled step, the same generator from an initial state perturbed by 1e-8,
    and first-order Euler at the truth step. All runs share one output grid,
    and the scored channel is xdd.
    """
    a = 2.03

    def run(method, step, ic):
        return simulate(
            IntegratorConfig(method=method, t_end=100.0, step=step,
                             output_points=4700, initial_state=ic),
            JerkParams(a=a))

    measured = run(Method.RK4, 1e-3, base_ic)
    perturbed = SystemState(base_ic.x, base_ic.xd, base_ic.xdd + 1e-8)
    candidates = {
        "coarse-step": run(Method.RK4, 2e-3, base_ic),
        "perturbed-ic": run(Method.RK4, 1e-3, perturbed),
        "euler": run(Method.EULER, 1e-3, base_ic),
    }
    return {
        cid: cumulative_nrmse(measured.xdd, cand.xdd, 10)
        for cid, cand in candidates.items()
    }


def criterion_6():
    """Reenact the published comparison from the stated starting point."""
    label = "phenomenon reenactment"
    begin = time.perf_counter()
    stated_ic = SystemState(0.0, 0.0, 0.01)
    try:
        profiles = _reenactment_profiles(stated_ic)
    except IntegrationOverflowError as exc:
        # The stated pipeline cannot complete: characterize the failure and
        # what the repaired starting point would give, then fail honestly.
        repaired = _reenactment_profiles(SystemState(0.0, 0.0, 0.1))
        finals = {cid: w.scores[-1] for cid, w in repaired.items()}
        ordered_ok = all(w.scores[-1] >= w.scores[0]
                         for w in repaired.values())
        peak = max(max(w.scores) for w in repaired.values())
        elapsed = time.perf_counter() - begin
        _fail(
            6, label,
            "the measured-trace generator (rk4, step 1e-3, initial state "
            f"(0, 0, 0.01), t in [0, 100]) diverges to overflow: {exc}. "
            "The orbit from that starting point misses the bounded attractor "
            "entirely, so the comparison cannot even produce its measured "
            "trace. Repairing the starting point to (0, 0, 0.1) — which the "
            "attractor does capture — completes the pipeline and satisfies "
            f"the final>=first clause for all candidates ({ordered_ok}), "
            f"with full-series scores {{{', '.join(f'{k}: {v:.4g}' for k, v in sorted(finals.items()))}}}; "
            "but no candidate's cumulative NRMSE ever crosses 1.0 (peak "
            f"window score {peak:.4g}), so the crossing clause is "
            f"unattainable under either starting point. [{elapsed:.1f} s]"
        )
    # If integration ever completes as stated, evaluate the clauses directly.
    for cid, w in profiles.items():
        if w.scores[-1] < w.scores[0]:
            _fail(6, label,
                  f"candidate {cid}: final score {w.scores[-1]:.4g} < first "
                  f"{w.scores[0]:.4g}")
    if not any(s > 1.0 for w in profiles.values() for s in w.scores[:-1]):
        peak = max(max(w.scores) for w in profiles.values())
        _fail(6, label,
              f"no candidate crossed NRMSE 1.0 before the full span "
              f"(peak window score {peak:.4g})")
    elapsed = time.perf_counter() - begin
    if elapsed >= 30.0:
        _fail(6, label, f"took {elapsed:.1f} s (budget 30 s)")
    _ok(6, label, f"{elapsed:.1f} s")


def criterion_7():
    """Divergence-rate estimator: planted exponents and real chaotic growth."""
    label = "divergence rate"
    begin = time.perf_counter()
    n, dt = 501, 0.01
    zero = _uniform([0.0] * n, dt=dt)
    for planted in (0.5, -0.2):
        sep = _uniform([1e-6 * math.exp(planted * k * dt) for k in range(n)],
                       dt=dt)
        got = divergence_rate(zero, sep, 0, n - 1)
        rel = abs(got - planted) / abs(planted)
        if rel >= 1e-6:
            _fail(7, label,
                  f"planted exponent {planted}: recovered {got!r} "
                  f"(relative error {rel:.3g})")

    def run(ic):
        return simulate(IntegratorConfig(t_end=100.0, step=1e-3,
                                         output_points=1001,
                                         initial_state=ic))

    base = run(SystemState(0.0, 0.0, 0.1))
    bumped = run(SystemState(0.0, 0.0, 0.1 + 1e-10))
    # Fit over t in [10, 90]: past the indistinguishable transient, before
    # any saturation.
    rate = divergence_rate(base.xdd, bumped.xdd, 100, 900)
    if not rate > 0.0:
        _fail(7, label, f"chaotic pair separation rate {rate!r} is not > 0")
    if not rate < 1.0:
        _fail(7, label, f"separation rate {rate!r} implausibly large")
    elapsed = time.perf_counter() - begin
    if elapsed >= 10.0:
        _fail(7, label, f"took {elapsed:.1f} s (budget 10 s)")
    _ok(7, label, f"rate {rate:.4f}, {elapsed:.1f} s")


def criterion_8():
    """Parsers: bit-exact round-trips, bulk export ingestion, diagnostics."""
    label = "parser robustness"
    rnd = random.Random(8)
    for i in range(1000):
        n = rnd.randint(2, 40)
        t, acc = [], rnd.uniform(-100.0, 100.0)
        for _ in range(n):
            acc += 10.0 ** rnd.uniform(-5, 2)
            t.append(acc)
        v = [rnd.gauss(0.0, 1.0) * 10.0 ** rnd.uniform(-15, 15)
             for _ in range(n)]
        original = TimeSeries(t=t, v=v, meta=SeriesMeta())
        recovered = parse_trace(write_series_csv(original))
        if any(x.hex() != y.hex() for x, y in zip(recovered.t, original.t)) \
                or any(x.hex() != y.hex()
                       for x, y in zip(recovered.v, original.v)):
            _fail(8, label, f"round-trip {i} is not bit-exact")

    rows = ["time\tV(xdd)"]
    rows += [f"{k * 1e-3:.9e}\t{math.sin(0.37 * k):.9e}" for k in range(4700)]
    trace = parse_trace("\n".join(rows) + "\n")
    if len(trace) != 4700:
        _fail(8, label, f"bulk export parsed to {len(trace)} samples, not 4700")

    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good.csv"
        good.write_bytes(write_series_csv(
            _uniform([math.sin(0.1 * k) for k in range(50)], dt=0.1)))
        bad = Path(tmp) / "bad.csv"
        bad.write_text("t,v\n0,1\n1,zap\n2,3\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli_main(["compare", "--measured", str(good),
                             "--candidate", f"broken={bad}",
                             "--report", str(Path(tmp) / "r.json")])
        if code != 1:
            _fail(8, label, f"malformed input exited {code}, want 1")
        if "line 3" not in stderr.getvalue():
            _fail(8, label,
                  f"diagnostic lacks a line number: {stderr.getvalue()!r}")
    _ok(8, label)


# ---------------------------------------------------------------------------

def test_acceptance_1_reference_selection():
    criterion_1()


def test_acceptance_2_metric_identities():
    criterion_2()


def test_acceptance_3_cumulative_consistency():
    criterion_3()


def test_acceptance_4_determinism():
    criterion_4()


def test_acceptance_5_integrator_correctness():
    criterion_5()


def test_acceptance_6_phenomenon_reenactment():
    # Expected to fail; see the module docstring for why that is the honest
    # outcome rather than a packaging bug.
    criterion_6()


def test_acceptance_7_divergence_rate():
    criterion_7()


def test_acceptance_8_parser_robustness():
    criterion_8()


if __name__ == "__main__":
    failures = 0
    for fn in (criterion_1, criterion_2, criterion_3, criterion_4,
               criterion_5, criterion_6, criterion_7, criterion_8):
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(exc)
    sys.exit(1 if failures else 0)
