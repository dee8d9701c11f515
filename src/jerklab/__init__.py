"""jerklab: a deterministic quadratic-jerk chaos simulator and a
reproducibility-analysis pipeline for time-series traces."""

from .align import CommonGrid, build_common_grid, resample_linear
from .core import (
    CHAOTIC_A_LOWER,
    CHAOTIC_A_UPPER,
    DEFAULT_A,
    DEFAULT_INITIAL_STATE,
    JerkParams,
    Sign,
    SystemState,
    in_chaotic_range,
)
from .errors import (
    DataError,
    DegenerateDataError,
    DegenerateSeparationError,
    ExtrapolationError,
    InsufficientDataError,
    IntegrationOverflowError,
    JerkLabError,
    NoOverlapError,
    ParseError,
    ValidationError,
)
from .ingest import (
    format_float,
    load_trace,
    parse_trace,
    write_series_csv,
)
from .integrate import (
    IntegratorConfig,
    Method,
    SimulationResult,
    simulate,
)
from .metrics import (
    CandidateScore,
    ComparisonReport,
    HorizonResult,
    MeanFrom,
    WindowedNrmse,
    build_comparison,
    cumulative_nrmse,
    divergence_rate,
    nrmse,
    prediction_horizon,
    select_reference,
)
from .series import SeriesMeta, TimeSeries, UniformSeries

__version__ = "0.1.0"

__all__ = [
    "CHAOTIC_A_LOWER",
    "CHAOTIC_A_UPPER",
    "CandidateScore",
    "CommonGrid",
    "ComparisonReport",
    "DEFAULT_A",
    "DEFAULT_INITIAL_STATE",
    "DataError",
    "DegenerateDataError",
    "DegenerateSeparationError",
    "ExtrapolationError",
    "HorizonResult",
    "InsufficientDataError",
    "IntegrationOverflowError",
    "IntegratorConfig",
    "JerkLabError",
    "JerkParams",
    "MeanFrom",
    "Method",
    "NoOverlapError",
    "ParseError",
    "SeriesMeta",
    "Sign",
    "SimulationResult",
    "SystemState",
    "TimeSeries",
    "UniformSeries",
    "ValidationError",
    "WindowedNrmse",
    "build_common_grid",
    "build_comparison",
    "cumulative_nrmse",
    "divergence_rate",
    "format_float",
    "in_chaotic_range",
    "load_trace",
    "nrmse",
    "parse_trace",
    "prediction_horizon",
    "resample_linear",
    "select_reference",
    "simulate",
    "write_series_csv",
    "__version__",
]
