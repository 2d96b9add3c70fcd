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

import datetime as dt
import hashlib
import json
from itertools import repeat
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _engine
from .core import DetectorConfig, SparseOdm, TimeWindow
from .ingestion import csv_field, window_gaps
from .store import HistoryStore, atomic_open, history_dates

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

# Labels indexed by the engine's STATUS_* and DIR_* codes.
_STATUS_NAMES = ("no_signal", "signal", "below_eligibility", "missing_data")
_DIRECTION_NAMES = (None, "upper", "lower")

# Rows per string the writers build, so that a report is never held whole
# in memory and one chunk's columns, rows and string add little to a
# detect's peak memory.
_CHUNK_ROWS = 1024


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
        for kind, columns in self.chunks():
            yield from zip(*(repeat(value) for value in (*self.head, kind)), *columns)

    def chunks(
        self, text: Callable[[str], str] | None = None, null: str | None = None
    ) -> Iterator[tuple[str, list[list]]]:
        """Per series kind, in chunks of at most ``_CHUNK_ROWS`` rows, the kind
        and its rows' ``REPORT_COLUMNS`` from ``origin`` on, as lists.

        This is where a row's fields follow from its status: a missing-data
        row has no ``ma`` or ``sd``, and only a signal has a level, an
        increment and bounds. Without ``text`` the values are plain Python
        values, ``None`` for a field the row does not have and the increment
        as the raw float (``inf`` included). With ``text``, each label,
        status and direction is ``text(value)``, a field the row does not
        have or a non-finite increment is ``null``, and a non-finite ``ma``,
        ``sd`` or signal bound raises ``ValueError``: no report text holds one.
        """
        encode = (lambda value: value) if text is None else text
        used: set[int] = set()
        for _, origin, destination, _ in self.kinds:
            for side in (origin, destination):
                if side is not None:
                    used.update(side.tolist())
        names = np.empty(len(self.labels), dtype=object)  # a label no row uses stays None
        for i in used:
            names[i] = encode(self.labels[i])
        statuses = np.array([encode(name) for name in _STATUS_NAMES], dtype=object)
        directions = np.array(
            [null if name is None else encode(name) for name in _DIRECTION_NAMES], dtype=object
        )
        for kind, origin, destination, block in self.kinds:
            for start in range(0, len(block), _CHUNK_ROWS):
                span = slice(start, start + _CHUNK_ROWS)
                part = block.take(span)
                nulls = [null] * len(part)
                direction = level = inc = ma = sd = lower = upper = nulls
                if part.ma is not None:  # missing data: no period to compare to
                    signal = part.status == _engine.STATUS_SIGNAL
                    if text is not None:
                        numbers = (part.ma, part.sd, part.lower[signal], part.upper[signal])
                        if not all(np.isfinite(values).all() for values in numbers):
                            raise ValueError(
                                f"window {self.head[2]}-{self.head[3]}: a {kind} row holds a "
                                "non-finite ma, sd or bound, which a report cannot represent"
                            )
                        inc = _where(signal & np.isfinite(part.inc), part.inc, null)
                    else:
                        inc = _where(signal, part.inc, null)
                    ma, sd = part.ma.tolist(), part.sd.tolist()
                    direction = directions[part.direction].tolist()
                    level, lower, upper = (
                        _where(signal, values, null) for values in (part.level, part.lower, part.upper)
                    )
                yield kind, [
                    nulls if origin is None else names[origin[span]].tolist(),
                    nulls if destination is None else names[destination[span]].tolist(),
                    statuses[part.status].tolist(),
                    direction,
                    level,
                    inc,
                    part.observed.tolist(),
                    ma,
                    sd,
                    lower,
                    upper,
                ]


def _where(written: np.ndarray, values: np.ndarray, null: str | None) -> list:
    """``values`` as Python numbers where ``written``, else ``null``."""
    column = np.full(len(values), null, dtype=object)
    column[written] = values[written]
    return column.tolist()


class WindowReport(NamedTuple):
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


class DayReport(NamedTuple):
    source_id: str
    date: dt.date
    config: DetectorConfig
    window_reports: list[WindowReport]
    missing_windows: Sequence[str] = ()
    extra_windows: Sequence[str] = ()
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
    evaluation = _engine.evaluate_window(
        columns[0], columns[1:], n_areas, config.th, config.quantile, config.bounds_mode
    )
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


def _day_input_digest(digests: dict[dt.date, str | None]) -> str:
    """SHA-256 over each date's ``csv_sha256`` (``absent`` for an absent
    date), in date order."""
    digest = hashlib.sha256()
    for date in sorted(digests):
        digest.update(f"{date.isoformat()}:{digests[date] or 'absent'}\n".encode("utf-8"))
    return digest.hexdigest()


def detect_day(
    store: HistoryStore, source_id: str, date: dt.date, config: DetectorConfig
) -> DayReport:
    """Run every stored window of a date through the detector, in start order.

    Each of the p+1 date files is read once, with ``HistoryStore.read_day``:
    first the date itself, decoding every window, then its ``history_dates``,
    newest first, decoding only the windows whose times the date holds. A
    window's history and the report's ``input_digest`` come from those reads,
    so detect sees each date as of its one read, even when an ``ingest``
    rewrites or prunes it meanwhile.
    """
    past_dates = history_dates(date, config.p, config.stride)
    digest, windows, currents = store.read_day(source_id, date, lambda window: True)
    profile = store.get_profile(source_id)
    missing: list[str] = []
    extra: list[str] = []
    if profile is not None:
        missing, extra = window_gaps(date, profile.expected_windows_per_day, windows)

    digests = {date: digest}
    times = {(window.start, window.end) for window in windows}
    past = []
    for past_date in past_dates:
        digests[past_date], _, found = store.read_day(
            source_id, past_date, lambda window: (window.start, window.end) in times
        )
        past.append({(m.window.start, m.window.end): m for m in found})

    reports = []
    for current in currents:
        key = (current.window.start, current.window.end)
        history = [day.get(key) for day in past]
        reports.append(run_window(current, history, config, source_id=source_id))

    return DayReport(
        source_id=source_id,
        date=date,
        config=config,
        window_reports=reports,
        missing_windows=missing,
        extra_windows=extra,
        input_digest=_day_input_digest(digests),
    )


# -- serialization ------------------------------------------------------


def _report_header(report: DayReport) -> dict:
    return {
        "record": "header",
        "source": report.source_id,
        "date": report.date.isoformat(),
        "config": report.config._asdict(),
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


def _write_rows(
    report: DayReport, handle: IO[str], text: Callable[[str], str], null: str, template: str
) -> None:
    """Write every row of ``report``, one string per chunk of
    ``ReportRows.chunks(text, null)``: each row fills ``template``, whose 16
    ``%s`` take the ``REPORT_COLUMNS`` in order, after the head (source,
    date, start, end, kind) is put in as ``text`` with ``%`` escaped."""
    fields = ("%s",) * (len(REPORT_COLUMNS) - 5)
    for window in report.window_reports:
        rows = window.outcomes
        for kind, columns in rows.chunks(text, null):
            head = (text(value).replace("%", "%%") for value in (*rows.head, kind))
            line = template % (*head, *fields)
            handle.write("".join(map(line.__mod__, zip(*columns))))


def write_day_report_jsonl(report: DayReport, handle: IO[str]) -> None:
    """Header line, one line per non-level0 outcome, one summary line."""
    dump = lambda obj: json.dumps(obj, separators=(",", ":"), allow_nan=False)
    handle.write(dump(_report_header(report)) + "\n")
    row = "{" + ",".join(f'"{name}":%s' for name in REPORT_COLUMNS) + "}\n"
    _write_rows(report, handle, json.dumps, "null", row)
    handle.write(dump(_report_summary(report)) + "\n")


def write_day_report_csv(report: DayReport, path: str | Path) -> None:
    """Outcome table with the same columns; header and summary go to a
    ``.meta.json`` sidecar (CSV has no place for them). Each file is
    replaced atomically."""
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(REPORT_COLUMNS) + "\n")
        _write_rows(report, handle, csv_field, "", ",".join(["%s"] * len(REPORT_COLUMNS)) + "\n")
    meta = {"header": _report_header(report), "summary": _report_summary(report)}
    with atomic_open(path.with_name(path.name + ".meta.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, separators=(",", ":"), allow_nan=False) + "\n")
