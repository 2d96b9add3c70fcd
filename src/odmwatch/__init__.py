"""odmwatch: anomaly detection for origin-destination mobility matrices."""

from .core import AreaId, FlowKey, SparseOdm, TimeWindow
from .detector import (
    DetectorConfig,
    DayReport,
    KeyOutcome,
    Signal,
    WindowReport,
    classify_level,
    detect_day,
    evaluate_key,
    run_window,
)
from .ingestion import (
    DayValidationReport,
    OdmIntegrityError,
    OdmParseError,
    SourceProfile,
    parse_file,
    validate_day,
)
from .rolling import RollingStats, key_universe, rolling_stats_for_keys
from .store import HistoryQuery, HistorySlice, HistoryStore
from .synth import AnomalySpec, SynthSpec, generate
from .thresholds import Bounds, ThresholdSet, bounds_for, daily_quantile_threshold

__version__ = "0.1.0"

__all__ = [
    "AreaId",
    "AnomalySpec",
    "Bounds",
    "DayReport",
    "DayValidationReport",
    "DetectorConfig",
    "FlowKey",
    "HistoryQuery",
    "HistorySlice",
    "HistoryStore",
    "KeyOutcome",
    "OdmIntegrityError",
    "OdmParseError",
    "RollingStats",
    "Signal",
    "SourceProfile",
    "SparseOdm",
    "SynthSpec",
    "ThresholdSet",
    "TimeWindow",
    "WindowReport",
    "bounds_for",
    "classify_level",
    "daily_quantile_threshold",
    "detect_day",
    "evaluate_key",
    "generate",
    "key_universe",
    "parse_file",
    "rolling_stats_for_keys",
    "run_window",
    "validate_day",
]
