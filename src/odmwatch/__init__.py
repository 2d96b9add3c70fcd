"""odmwatch: anomaly detection for origin-destination mobility matrices."""

from .core import AreaId, SparseOdm, TimeWindow
from .detector import (
    DetectorConfig,
    DayReport,
    WindowReport,
    detect_day,
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
from .store import HistoryStore
from .synth import AnomalySpec, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AreaId",
    "AnomalySpec",
    "DayReport",
    "DayValidationReport",
    "DetectorConfig",
    "HistoryStore",
    "OdmIntegrityError",
    "OdmParseError",
    "SourceProfile",
    "SparseOdm",
    "SynthSpec",
    "TimeWindow",
    "WindowReport",
    "detect_day",
    "generate",
    "parse_file",
    "run_window",
    "validate_day",
]
