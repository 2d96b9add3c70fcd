"""Per-window signal evaluation, day-level orchestration and report output.

Every monitored series of a window gets exactly one status:

* ``missing_data`` - all p past periods unavailable, nothing to compare to;
* ``below_eligibility`` - moving average under the threshold th;
* ``no_signal`` - observed value inside [lower, upper] (level 0);
* ``signal`` - out of bounds, classified level 1-3 by the absolute percent
  increment over the moving average (<50, 50-100, >=100).

Missing data is checked before eligibility, eligibility before bounds, so
an unavailable history never masquerades as a drop.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from . import _engine
from .core import SparseOdm, TimeWindow
from .ingestion import window_gaps
from .store import STRIDE_DAYS, HistoryStore, atomic_open, history_dates

BOUNDS_MODES = ("clamped", "paper_literal")

REPORT_COLUMNS = (
    "source",
    "date",
    "start",
    "end",
    "kind",
    "origin",
    "destination",
    "status",
    "direction",
    "level",
    "inc_percent",
    "observed",
    "ma",
    "sd",
    "lower",
    "upper",
)

_INC = REPORT_COLUMNS.index("inc_percent")

# Labels indexed by the engine's STATUS_* and DIR_* codes.
_STATUS_NAMES = np.array(
    ["no_signal", "signal", "below_eligibility", "missing_data"], dtype=object
)
_DIRECTION_NAMES = np.array([None, "upper", "lower"], dtype=object)


@dataclass(frozen=True, kw_only=True)
class DetectorConfig:
    """The five detection parameters, in the report header's order: the
    eligibility threshold th, the window length p, the daily quantile, the
    history stride and the lower-bound mode."""

    th: int = 20
    p: int = 4
    quantile: float = 0.75
    stride: str = "weekly"
    bounds_mode: str = "clamped"

    def __post_init__(self) -> None:
        if self.th < 0:
            raise ValueError("th must be >= 0")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.stride not in STRIDE_DAYS:
            raise ValueError(f"stride must be one of {sorted(STRIDE_DAYS)}, got {self.stride!r}")
        if self.bounds_mode not in BOUNDS_MODES:
            raise ValueError(f"bounds_mode must be one of {BOUNDS_MODES}")


@dataclass
class WindowReport:
    """One window's result. ``t`` is the day's quantile threshold, or th
    itself when ``degenerate`` (no cell reached th); ``eligible_count`` is
    the number of cells that did. ``outcomes`` holds one tuple per series
    whose status is not ``no_signal``, in ``REPORT_COLUMNS`` order."""

    source_id: str
    window: TimeWindow
    t: float
    eligible_count: int
    degenerate: bool
    available: int
    outcomes: list[tuple]
    summary: dict[str, int]


@dataclass
class DayReport:
    source_id: str
    date: dt.date
    config: DetectorConfig
    window_reports: list[WindowReport]
    missing_windows: list[str] = field(default_factory=list)
    extra_windows: list[str] = field(default_factory=list)
    input_digest: str = ""

    @property
    def fully_missing(self) -> bool:
        return not self.window_reports

    def summary(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for report in self.window_reports:
            for name, value in report.summary.items():
                totals[name] = totals.get(name, 0) + value
        totals["windows_present"] = len(self.window_reports)
        totals["windows_missing"] = len(self.missing_windows)
        return totals


def _report_rows(
    evaluation: _engine.WindowEvaluation,
    labels: list[str],
    source_id: str,
    window: TimeWindow,
) -> list[tuple]:
    """One ``REPORT_COLUMNS`` tuple per series that is not level 0, in report
    order; fields a status does not have are ``None``."""
    names = np.array(labels, dtype=object)
    n_areas = evaluation.n_areas
    head = (source_id, window.date.isoformat(), window.start.isoformat(), window.end.isoformat())
    rows: list[tuple] = []
    for kind, codes, block in evaluation.blocks():
        hits = np.flatnonzero(block.status != _engine.STATUS_NO_SIGNAL)
        codes = codes[hits]
        status = block.status[hits]
        none = [None] * len(hits)
        if kind == "cell":
            origin = names[codes // n_areas].tolist()
            destination = names[codes % n_areas].tolist()
        elif kind == "inbound":
            origin, destination = none, names[codes].tolist()
        else:
            origin, destination = names[codes].tolist(), none
        if block.ma is None:  # missing data: no period to compare to
            ma = sd = direction = level = inc = lower = upper = none
        else:
            signal = status == _engine.STATUS_SIGNAL
            ma, sd = block.ma[hits].tolist(), block.sd[hits].tolist()
            direction = _DIRECTION_NAMES[block.direction[hits]].tolist()
            level, inc, lower, upper = (
                np.where(signal, values[hits], None).tolist()
                for values in (block.level, block.inc, block.lower, block.upper)
            )
        rows += zip(
            *map(repeat, (*head, kind)),
            origin,
            destination,
            _STATUS_NAMES[status].tolist(),
            direction,
            level,
            inc,
            block.observed[hits].tolist(),
            ma,
            sd,
            lower,
            upper,
        )
    return rows


def run_window(
    current: SparseOdm,
    history: Sequence[SparseOdm | None],
    config: DetectorConfig,
    source_id: str = "",
) -> WindowReport:
    """Evaluate one window against its past periods (``None`` = missing).

    The monitored universe is every cell present now or in any available
    past period, plus the outbound marginal of every origin and the inbound
    marginal of every destination in that union. Output ordering is fixed:
    cells, then inbound, then outbound, each sorted by area labels.
    """
    present = [current] + [m for m in history if m is not None]
    labels = sorted(set().union(*(m.labels for m in present)))
    label_ids = {label: i for i, label in enumerate(labels)}
    n_areas = max(1, len(labels))
    columns = [
        _engine.columnar_from_entries(
            m, np.array([label_ids[x] for x in m.labels], dtype=np.int64), n_areas
        )
        for m in present
    ]
    try:
        evaluation = _engine.evaluate_window(
            columns[0], columns[1:], n_areas, config.th, config.quantile, config.bounds_mode
        )
    except _engine.EngineLimitError as exc:
        raise ValueError(
            f"source {source_id!r}, window {current.window.times_key()}, "
            f"period {present[exc.period].window.date}: {exc}"
        ) from None
    return WindowReport(
        source_id=source_id,
        window=current.window,
        t=evaluation.t,
        eligible_count=evaluation.eligible_count,
        degenerate=evaluation.degenerate,
        available=evaluation.available,
        outcomes=_report_rows(evaluation, labels, source_id, current.window),
        summary=evaluation.summary(),
    )


def _day_input_digest(store: HistoryStore, source_id: str, dates: list[dt.date]) -> str:
    digest = hashlib.sha256()
    for date in sorted(set(dates)):
        day = store.day_digest(source_id, date)
        digest.update(f"{date.isoformat()}:{day or 'absent'}\n".encode("utf-8"))
    return digest.hexdigest()


def detect_day(
    store: HistoryStore, source_id: str, date: dt.date, config: DetectorConfig
) -> DayReport:
    """Run every stored window of a date through the detector, in start order."""
    past_dates = history_dates(date, config.p, config.stride)
    windows = store.windows_for(source_id, date)
    profile = store.get_profile(source_id)
    missing: list[str] = []
    extra: list[str] = []
    if profile is not None:
        missing, extra = window_gaps(date, profile.expected_windows_per_day, windows)

    reports = []
    for window in windows:
        current = store.get_snapshot(source_id, window)
        if current is None:
            raise RuntimeError(f"window {window} disappeared from the store")
        history = store.fetch_history(source_id, window, config.p, config.stride)
        reports.append(run_window(current, history, config, source_id=source_id))

    return DayReport(
        source_id=source_id,
        date=date,
        config=config,
        window_reports=reports,
        missing_windows=missing,
        extra_windows=extra,
        input_digest=_day_input_digest(store, source_id, [date] + past_dates),
    )


# -- serialization ------------------------------------------------------


def _report_header(report: DayReport) -> dict:
    return {
        "record": "header",
        "source": report.source_id,
        "date": report.date.isoformat(),
        "config": asdict(report.config),
        "input_digest": report.input_digest,
        "windows": [
            {
                "start": w.window.start.isoformat(),
                "end": w.window.end.isoformat(),
                "available": w.available,
                "t": w.t,
                "eligible_count": w.eligible_count,
                "degenerate": w.degenerate,
                "keys": w.summary["keys"],
            }
            for w in report.window_reports
        ],
        "missing_windows": report.missing_windows,
        "extra_windows": report.extra_windows,
        "fully_missing": report.fully_missing,
    }


def _report_summary(report: DayReport) -> dict:
    return {"record": "summary", **report.summary()}


def _rows(report: DayReport) -> Iterator[tuple]:
    # A non-finite increment (a flow born from a zero average) has no JSON
    # number; it is written as null, or as an empty CSV field. Level and
    # direction still carry the classification.
    for window in report.window_reports:
        for row in window.outcomes:
            inc = row[_INC]
            if inc is not None and not math.isfinite(inc):
                row = (*row[:_INC], None, *row[_INC + 1 :])
            yield row


def write_day_report_jsonl(report: DayReport, handle: IO[str]) -> None:
    """Header line, one line per non-level0 outcome, one summary line."""
    dump = lambda obj: json.dumps(obj, separators=(",", ":"), allow_nan=False)
    handle.write(dump(_report_header(report)) + "\n")
    for row in _rows(report):
        handle.write(dump(dict(zip(REPORT_COLUMNS, row))) + "\n")
    handle.write(dump(_report_summary(report)) + "\n")


def write_day_report_csv(report: DayReport, path: str | Path) -> None:
    """Outcome table with the same columns; header and summary go to a
    ``.meta.json`` sidecar (CSV has no place for them). Each file is
    replaced atomically."""
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(_rows(report))
    meta = {"header": _report_header(report), "summary": _report_summary(report)}
    with atomic_open(path.with_name(path.name + ".meta.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, separators=(",", ":"), allow_nan=False) + "\n")
