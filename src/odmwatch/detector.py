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

# Labels indexed by the engine's STATUS_* and DIR_* codes, and their JSON
# text; a signal's level is 1-3, and 0 stands for no level.
_STATUS_NAMES = np.array(
    ["no_signal", "signal", "below_eligibility", "missing_data"], dtype=object
)
_DIRECTION_NAMES = np.array([None, "upper", "lower"], dtype=object)
_STATUS_JSON = np.array([json.dumps(name) for name in _STATUS_NAMES], dtype=object)
_DIRECTION_JSON = np.array([json.dumps(name) for name in _DIRECTION_NAMES], dtype=object)
_LEVEL_JSON = np.array(["null", "1", "2", "3"], dtype=object)

# Rows per string the JSONL writer builds, so that a report is never held
# whole in memory.
_CHUNK_ROWS = 4096


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


class ReportRows:
    """One window's report rows, held as columns.

    Per series kind (cells, then inbound, then outbound) it keeps the
    engine's ``SeriesBlock`` restricted to the series whose status is not
    ``no_signal``, with their origin and destination label ids (``None``
    for the side a marginal does not have). ``len()`` is the row count.
    Iterating yields one ``REPORT_COLUMNS`` tuple per row, in report order,
    of plain Python values: ``None`` for a field the row's status does not
    have, and the increment as the raw float (``inf`` included).
    """

    def __init__(
        self, evaluation: _engine.WindowEvaluation, labels: list[str], head: tuple[str, ...]
    ) -> None:
        self.labels = labels
        self.head = head  # source, date, start, end
        self.kinds: list[tuple[str, np.ndarray | None, np.ndarray | None, _engine.SeriesBlock]] = []
        for kind, codes, block in evaluation.blocks():
            hits = np.flatnonzero(block.status != _engine.STATUS_NO_SIGNAL)
            codes = codes[hits]
            if kind == "cell":
                origin, destination = np.divmod(codes, evaluation.n_areas)
            elif kind == "inbound":
                origin, destination = None, codes
            else:
                origin, destination = codes, None
            self.kinds.append((kind, origin, destination, block.take(hits)))

    def __len__(self) -> int:
        return sum(len(block) for *_, block in self.kinds)

    def __iter__(self) -> Iterator[tuple]:
        for columns in self.columns():
            yield from zip(*columns)

    def columns(self, finite_inc: bool = False) -> Iterator[list]:
        """Per series kind, its rows' ``REPORT_COLUMNS`` as sequences of
        Python values. With ``finite_inc``, a non-finite increment (a flow
        born from a zero average) is ``None``, as the CSV report writes it."""
        names = np.array(self.labels, dtype=object)
        for kind, origin, destination, block in self.kinds:
            n = len(block)
            none = [None] * n
            if block.ma is None:  # missing data: no period to compare to
                ma = sd = direction = level = inc = lower = upper = none
            else:
                signal = block.status == _engine.STATUS_SIGNAL
                ma, sd = block.ma.tolist(), block.sd.tolist()
                direction = _DIRECTION_NAMES[block.direction].tolist()
                level, lower, upper = (
                    np.where(signal, values, None).tolist()
                    for values in (block.level, block.lower, block.upper)
                )
                if finite_inc:
                    signal &= np.isfinite(block.inc)
                inc = np.where(signal, block.inc, None).tolist()
            yield [
                *(repeat(value, n) for value in (*self.head, kind)),
                none if origin is None else names[origin].tolist(),
                none if destination is None else names[destination].tolist(),
                _STATUS_NAMES[block.status].tolist(),
                direction,
                level,
                inc,
                block.observed.tolist(),
                ma,
                sd,
                lower,
                upper,
            ]


@dataclass
class WindowReport:
    """One window's result. ``t`` is the day's quantile threshold, or th
    itself when ``degenerate`` (no cell reached th); ``eligible_count`` is
    the number of cells that did. ``outcomes`` holds the rows of the series
    whose status is not ``no_signal``."""

    source_id: str
    window: TimeWindow
    t: float
    eligible_count: int
    degenerate: bool
    available: int
    outcomes: ReportRows
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
    window = current.window
    head = (source_id, window.date.isoformat(), window.start.isoformat(), window.end.isoformat())
    return WindowReport(
        source_id=source_id,
        window=window,
        t=evaluation.t,
        eligible_count=evaluation.eligible_count,
        degenerate=evaluation.degenerate,
        available=evaluation.available,
        outcomes=ReportRows(evaluation, labels, head),
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


def _json_numbers(values: np.ndarray, written: np.ndarray) -> list:
    """``values`` as Python numbers where ``written``, else the text null.
    ``%s`` formats a Python number as its ``repr``, as ``json.dumps`` does."""
    column = np.full(len(values), "null", dtype=object)
    column[written] = values[written]
    return column.tolist()


def _jsonl_rows(rows: ReportRows) -> Iterator[str]:
    """The JSON lines of one window's rows, at most ``_CHUNK_ROWS`` per string.

    Each label and the head of each kind's rows are encoded once, and each
    row fills one ``%`` template. A non-finite increment is written as null;
    any other non-finite number raises ``ValueError``, as
    ``json.dumps(..., allow_nan=False)`` does, before its chunk is returned.
    """
    names = np.array([json.dumps(label) for label in rows.labels], dtype=object)
    fields = REPORT_COLUMNS[5:]
    for kind, origin, destination, block in rows.kinds:
        head = json.dumps(dict(zip(REPORT_COLUMNS, (*rows.head, kind))), separators=(",", ":"))
        prefix = head[:-1].replace("%", "%%") + ","
        for start in range(0, len(block), _CHUNK_ROWS):
            span = slice(start, start + _CHUNK_ROWS)
            part = block.take(span)
            values = {
                "status": _STATUS_JSON[part.status].tolist(),
                "observed": part.observed.tolist(),
            }
            if origin is not None:
                values["origin"] = names[origin[span]].tolist()
            if destination is not None:
                values["destination"] = names[destination[span]].tolist()
            if part.ma is not None:
                signal = part.status == _engine.STATUS_SIGNAL
                written = (part.ma, part.sd, part.lower[signal], part.upper[signal])
                if not all(np.isfinite(v).all() for v in written):
                    raise ValueError(
                        f"window {rows.head[2]}-{rows.head[3]}: a {kind} row holds a "
                        "non-finite ma, sd or bound, which JSON cannot represent"
                    )
                values.update(
                    direction=_DIRECTION_JSON[part.direction].tolist(),
                    level=_LEVEL_JSON[np.where(signal, part.level, 0)].tolist(),
                    inc_percent=_json_numbers(part.inc, signal & np.isfinite(part.inc)),
                    ma=part.ma.tolist(),
                    sd=part.sd.tolist(),
                    lower=_json_numbers(part.lower, signal),
                    upper=_json_numbers(part.upper, signal),
                )
            template = ",".join(f'"{f}":%s' if f in values else f'"{f}":null' for f in fields)
            columns = [values[f] for f in fields if f in values]
            yield "".join(map(f"{prefix}{template}}}\n".__mod__, zip(*columns)))


def write_day_report_jsonl(report: DayReport, handle: IO[str]) -> None:
    """Header line, one line per non-level0 outcome, one summary line."""
    dump = lambda obj: json.dumps(obj, separators=(",", ":"), allow_nan=False)
    handle.write(dump(_report_header(report)) + "\n")
    for window in report.window_reports:
        for chunk in _jsonl_rows(window.outcomes):
            handle.write(chunk)
    handle.write(dump(_report_summary(report)) + "\n")


def write_day_report_csv(report: DayReport, path: str | Path) -> None:
    """Outcome table with the same columns; header and summary go to a
    ``.meta.json`` sidecar (CSV has no place for them). Each file is
    replaced atomically."""
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for window in report.window_reports:
            for columns in window.outcomes.columns(finite_inc=True):
                writer.writerows(zip(*columns))
    meta = {"header": _report_header(report), "summary": _report_summary(report)}
    with atomic_open(path.with_name(path.name + ".meta.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, separators=(",", ":"), allow_nan=False) + "\n")
