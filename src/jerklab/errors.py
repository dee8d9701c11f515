"""Exception hierarchy.

Two branches matter for callers:

* :class:`ValidationError` — the *request* was malformed (bad argument, bad
  config). The CLI maps these to exit status 2.
* :class:`DataError` — the request was fine but the *data* could not be
  processed (unparseable file, disjoint time domains, numerical blow-up,
  degenerate denominator). The CLI maps these to exit status 1.
"""

from __future__ import annotations

import math


class JerkLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(JerkLabError, ValueError):
    """A precondition on arguments or configuration was violated."""


def _require_int(value, message: str, minimum: int | None = None) -> int:
    """``value`` as an int; ``ValidationError(message)`` if it is below
    ``minimum`` or no integer at all, ``nan``, ``inf`` and ``None`` included."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(message) from None
    if n != value or (minimum is not None and n < minimum):
        raise ValidationError(message)
    return n


def _require_float(value, message: str, positive: bool = False) -> float:
    """``value`` as a finite float, ``> 0`` if ``positive``; else ``ValidationError``
    with ``{!r}`` in ``message`` replaced by the repr of the float or, if none
    (``None``, ``"abc"``, ``10**400``), of ``value``; other braces stay as they are."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(message.replace("{!r}", repr(value))) from None
    if not math.isfinite(x) or (positive and x <= 0.0):
        raise ValidationError(message.replace("{!r}", repr(x)))
    return x


def _require_member(cls, text, message: str):
    """The member of enum ``cls`` named ``text`` (stripped, any ASCII case);
    else ``ValidationError`` with ``{!r}`` in ``message`` replaced by
    ``repr(text)``. Non-ASCII text is refused, as Unicode case mapping would
    let e.g. a dotless ``ı`` stand for ``I``."""
    if isinstance(text, str) and text.isascii():
        try:
            return cls[text.strip().upper()]
        except KeyError:
            pass
    raise ValidationError(message.replace("{!r}", repr(text)))


class DataError(JerkLabError):
    """Input data could not be processed."""


class ParseError(DataError):
    """A trace file failed to parse.

    Every parse failure carries the 1-based physical line number where it
    was detected.
    """

    def __init__(self, line: int, message: str):
        self.line = int(line)
        super().__init__(f"line {self.line}: {message}")


class InsufficientDataError(ParseError):
    """A trace contained fewer than the two samples needed to be a series."""

    def __init__(self, line: int, rows: int):
        self.rows = int(rows)
        super().__init__(line, f"need at least 2 data rows, found {self.rows}")


class NoOverlapError(DataError):
    """The time domains of a trace set have an empty intersection.

    ``domains`` maps each trace label to its ``(t_start, t_end)`` span so the
    caller can see exactly which trace is the odd one out.
    """

    def __init__(self, domains: dict[str, tuple[float, float]]):
        self.domains = dict(domains)
        spans = "; ".join(
            f"{label}: [{lo:g}, {hi:g}]" for label, (lo, hi) in self.domains.items()
        )
        super().__init__(f"trace time domains do not overlap ({spans})")


class ExtrapolationError(DataError):
    """A resampling query fell outside the source trace's time domain."""


class DegenerateDataError(DataError):
    """An NRMSE denominator vanished: the spread is zero or below double precision.

    ``window`` is the 1-based cumulative-window index when the failure
    occurred inside a prefix computation, else ``None``.
    """

    def __init__(self, message: str, window: int | None = None):
        self.window = window
        super().__init__(message)


class DegenerateSeparationError(DataError):
    """Two trajectories coincide at a sample inside a divergence-fit range."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(
            f"separation is exactly zero at sample {self.index}; "
            "log-separation is undefined there"
        )


class IntegrationOverflowError(DataError):
    """The integration diverged to non-finite values.

    Divergence is reported, never clipped: a blow-up is a property of the
    trajectory and hiding it would defeat the point of comparing runs.
    ``last_valid_time`` is the latest time at which the state was still
    finite. ``simulate`` sets ``partial`` on every such error it raises: a
    :class:`~jerklab.integrate.SimulationResult` whose channels ``x``, ``xd``
    and ``xdd`` hold exactly the output-grid samples whose time is at most
    ``last_valid_time``.
    """

    def __init__(
        self,
        message: str,
        last_valid_time: float | None = None,
        partial: "SimulationResult | None" = None,
    ):
        self.last_valid_time = last_valid_time
        self.partial = partial
        if last_valid_time is not None:
            message = f"{message} (last finite state at t={last_valid_time:.6g})"
        super().__init__(message)
