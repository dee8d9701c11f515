"""Host speed, measured with a fixed pure-Python kernel while the benchmark runs.

Other tenants of a shared host slow whole stretches of a run, by up to 2x
(CPU time equals wall time and steal time stays near 1%, so this is not
scheduling). The kernel does the kind of work jerklab's hot paths do (small
function calls returning tuples, float arithmetic, list appends, a
generator-fed compensated sum), so a slowdown stretches it and an op alike.

:class:`Sampler` times a short run of the kernel every few milliseconds from a
``SIGALRM`` handler while an op or a set-up process runs; the mean sample is
the host's speed over exactly that stretch, and a wall time is converted to a
fixed reference speed with it. The set-up measurement runs a sampler inside
each child interpreter, so this module imports nothing that a fresh
interpreter has not loaded already, apart from ``signal``. The kernel is the
benchmark's own code: nothing jerklab does changes it.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Kernel steps per sample, and the sampling interval (about 1% overhead).
SAMPLE_STEPS = 40
SAMPLE_INTERVAL_S = 0.01
#: A sample's time at the reference speed: about its mean on a 2-core Xeon
#: VM with Python 3.11. A time at the reference speed is only comparable with
#: others taken the same way.
REF_SAMPLE_S = 1.0e-4


def _rhs(x, y, z, a):
    return y, z, -a * z - x - y * y


def _sum(values) -> float:
    total = carry = 0.0
    for v in values:
        s = total + v
        if abs(total) >= abs(v):
            carry += (total - s) + v
        else:
            carry += (v - s) + total
        total = s
    return total + carry


def kernel(steps: int) -> float:
    """RK4 steps of a jerk system, then a compensated sum over the states."""
    x, y, z, h, a = 0.0, 0.0, 0.1, 1e-3, 2.03
    zs = []
    for _ in range(steps):
        k1 = _rhs(x, y, z, a)
        k2 = _rhs(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], z + 0.5 * h * k1[2], a)
        k3 = _rhs(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1], z + 0.5 * h * k2[2], a)
        k4 = _rhs(x + h * k3[0], y + h * k3[1], z + h * k3[2], a)
        x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        z += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        zs.append(z)
    return _sum(zs[k] * zs[k] for k in range(steps))


def speed_probe() -> float:
    """Median time of a few 100-sample-sized kernel runs (~30 ms in all), for
    the start and end of a run's record."""
    times = []
    for _ in range(3):
        t = perf_counter()
        kernel(100 * SAMPLE_STEPS)
        times.append(perf_counter() - t)
    return sorted(times)[1]


class Sampler:
    """Samples of the kernel's time, taken inside a ``with`` block on entry
    and then every ``SAMPLE_INTERVAL_S``.

    ``spent_s`` is the time the handler took, which an op timed in the same
    thread must not count as its own.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _take(self) -> float:
        t = perf_counter()
        kernel(SAMPLE_STEPS)
        took = perf_counter() - t
        self.samples.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.spent_s += self._take()

    def __enter__(self) -> Sampler:
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def at_ref_speed(seconds: float, mean_sample_s: float) -> float:
    """``seconds`` of wall time converted to the reference speed, given the
    mean sample taken over them."""
    return seconds * REF_SAMPLE_S / mean_sample_s
