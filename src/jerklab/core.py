"""The quadratic jerk oscillator in first-order state-space form.

The system is the third-order ODE

    x''' = -a * x'' - x + sign * (x')**2

written as a first-order system over the state (x, xd, xdd).  ``sign`` is
-1 or +1 and selects one of the two mirror-image nonlinearities; the two
choices are related by (x, xd, xdd) -> (-x, -xd, -xdd).  For ``a`` inside an
open window around 2.03 the system has a chaotic attractor.

Everything here is a pure function over immutable values; there is no hidden
state and no randomness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ValidationError, _require_float

#: Open interval of the bifurcation parameter on which the dynamics are
#: chaotic.  Both endpoints are truncated decimals of irrational boundaries,
#: so boundary equality counts as outside.
CHAOTIC_A_LOWER = 2.0168
CHAOTIC_A_UPPER = 2.0577

#: Default bifurcation parameter: comfortably interior to the chaotic window.
DEFAULT_A = 2.03


class Sign(enum.Enum):
    """Which sign the quadratic term carries."""

    MINUS = -1.0
    PLUS = 1.0


@dataclass(frozen=True)
class SystemState:
    """The instantaneous triple (x, xd, xdd) = (x, x', x'')."""

    x: float
    xd: float
    xdd: float

    def __post_init__(self):
        for name in ("x", "xd", "xdd"):
            object.__setattr__(self, name, _require_float(
                getattr(self, name), f"{name} must be finite, got {{!r}}"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.xd, self.xdd)


#: Default initial state: a small kick along xdd whose forward orbit is
#: captured by the bounded attractor at the default parameters (max |x| stays
#: below 8).  Note that much smaller kicks do NOT work: from (0, 0, 0.01) the
#: orbit spirals out of the equilibrium, misses the attractor, and blows up
#: to overflow near t = 66 — see the integration tests, which pin both facts.
DEFAULT_INITIAL_STATE = SystemState(0.0, 0.0, 0.1)


@dataclass(frozen=True)
class JerkParams:
    """Model parameters: the damping ``a`` (finite and > 0) and the sign of
    the quadratic term. They are the only settings of the model."""

    a: float = DEFAULT_A
    sign: Sign = Sign.MINUS

    def __post_init__(self):
        a = _require_float(self.a, "a must be finite, got {!r}")
        if a <= 0.0:
            raise ValidationError(f"a must be > 0, got {a!r}")
        object.__setattr__(self, "a", a)
        if not isinstance(self.sign, Sign):
            raise ValidationError(f"sign must be a Sign, got {self.sign!r}")


def _rhs(x, xd, xdd, a, sf):
    # The model's right-hand side on bare floats; its operation order is
    # fixed. rk45 calls it; euler and rk4 write the jerk inline at each
    # stage, and the tests pin each copy to this definition bit for bit.
    return xd, xdd, -(a * xdd) - x + sf * (xd * xd)


def in_chaotic_range(params: JerkParams) -> bool:
    """True iff the bifurcation parameter lies strictly inside the chaotic window."""
    return CHAOTIC_A_LOWER < params.a < CHAOTIC_A_UPPER

