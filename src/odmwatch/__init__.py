"""odmwatch: anomaly detection for origin-destination mobility matrices.

The public names load on first use, each from its submodule, so that
``import odmwatch`` (and a command that needs only part of the package)
loads no code it does not run.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "AreaId": "core",
    "DetectorConfig": "core",
    "SparseOdm": "core",
    "TimeWindow": "core",
    "DayReport": "detector",
    "WindowReport": "detector",
    "detect_day": "detector",
    "run_window": "detector",
    "DayValidationReport": "ingestion",
    "OdmIntegrityError": "ingestion",
    "OdmParseError": "ingestion",
    "SourceProfile": "ingestion",
    "parse_file": "ingestion",
    "validate_day": "ingestion",
    "HistoryStore": "store",
    "AnomalySpec": "synth",
    "SynthSpec": "synth",
    "generate": "synth",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)

