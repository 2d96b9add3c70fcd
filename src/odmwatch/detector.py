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

# Rows per string the writers build, so that the report's text is never held
# whole: what spans a window is its written rows' values (``ReportRows``),
# one table per column of the distinct texts of those values, which can hold
# nearly every number's text of the window when few values repeat, and the
# rows' indices into the tables, each in the narrowest dtype that holds it.
_CHUNK_ROWS = 1024


class ReportRows:
    """One window's report rows, held as columns: ``block`` is the engine's
    ``series`` at the rows whose status is not ``no_signal``, in report
    order, ``kinds`` each kind with its first row and the row after its
    last, and ``sides`` the rows' origin area ids, then their destination
    area ids (-1 for a side a marginal lacks), as indices into ``labels``.
    ``len()`` is the row count; iterating yields one ``REPORT_COLUMNS``
    tuple per row of ``fields()``' plain values.

    ``columns`` lists the arrays of the engine's ``series``, then its
    ``origin`` and ``destination``, and ``stops`` its ``stops``. The list is
    taken over: each column in it is replaced by its written rows in turn,
    so that, when the caller holds the evaluation no more, no more than one
    full column is held beside the copied rows."""

    def __init__(
        self, columns: list, stops: Sequence[int], labels: list[str], head: tuple[str, ...]
    ) -> None:
        self.labels = labels
        self.head = head  # source, date, start, end
        hits = np.flatnonzero(columns[1] != _engine.STATUS_NO_SIGNAL)  # the status column
        for k in range(len(columns)):
            if columns[k] is not None:
                columns[k] = columns[k][hits]
        *block, origin, destination = columns
        columns.clear()
        self.block = _engine.SeriesBlock(*block)
        # Signed, so as to hold -1, and as narrow as the label count allows.
        ids = np.min_scalar_type(-max(1, len(labels)))
        self.sides = np.concatenate([origin, destination], dtype=ids, casting="same_kind")
        stops = np.searchsorted(hits, stops).tolist()
        self.kinds = list(zip(_engine.SERIES_KINDS, [0, *stops], stops))

    def __len__(self) -> int:
        return len(self.block)

    def __iter__(self) -> Iterator[tuple]:
        fields = self.fields()
        for kind, span in self.spans():
            yield from zip(*map(repeat, (*self.head, kind)), *(t[i[span]].tolist() for t, i in fields))

    def spans(self) -> Iterator[tuple[str, slice]]:
        """Per kind, in chunks of at most ``_CHUNK_ROWS`` rows, the kind and
        the chunk's slice of the window's rows."""
        for kind, start, stop in self.kinds:
            for first in range(start, stop, _CHUNK_ROWS):
                yield kind, slice(first, min(first + _CHUNK_ROWS, stop))

    def fields(self, text: Callable[[str], str] | None = None, null: str | None = None) -> list:
        """Per ``REPORT_COLUMNS`` column from ``origin`` on, an object array
        of its distinct values over the window's rows, then ``null``, and each
        row's index in it.

        This is where a row's fields follow from its status: a missing-data
        row has no ``ma`` or ``sd``, and only a signal has a level, an
        increment and bounds; a field the row does not have is ``null``.
        Without ``text`` the values are plain Python values, the increment
        the raw float (``inf`` included). With ``text``, each label, status
        and direction is ``text(value)`` and each number ``str(value)``, once
        per distinct value, a non-finite increment is ``null``, and a
        non-finite ``ma``, ``sd`` or signal bound raises ``ValueError``."""
        plain = text is None
        text = (lambda value: value) if plain else text
        name = lambda names: lambda code: text(names[code])
        rows, n = self.block, len(self.block)
        labels, sides = _distinct_texts(self.sides, self.sides >= 0, name(self.labels), null)
        signal = rows.status == _engine.STATUS_SIGNAL
        compared = rows.status != _engine.STATUS_MISSING_DATA
        if rows.ma is None:  # missing data: no period to compare to
            rows = _engine.SeriesBlock(rows.observed, rows.status, *[np.zeros(n, np.int8)] * 7)
        elif not plain:
            finite = np.isfinite(rows.ma) & np.isfinite(rows.sd)
            finite &= ~signal | np.isfinite(rows.lower) & np.isfinite(rows.upper)
            for kind, start, stop in self.kinds:
                if not finite[start:stop].all():
                    raise ValueError(
                        f"window {self.head[2]}-{self.head[3]}: a {kind} row holds a "
                        "non-finite ma, sd or bound, which a report cannot represent"
                    )
        inc = signal if plain else signal & np.isfinite(rows.inc)
        numbers = (rows.level, rows.inc, rows.observed, rows.ma, rows.sd, rows.lower, rows.upper)
        written = (signal, inc, None, compared, compared, signal, signal)
        directed = rows.direction != _engine.DIR_NONE
        return [
            (labels, sides[:n]),
            (labels, sides[n:]),
            _distinct_texts(rows.status, None, name(_STATUS_NAMES), null),
            _distinct_texts(rows.direction, directed, name(_DIRECTION_NAMES), null),
            *(_distinct_texts(v, w, text if plain else str, null) for v, w in zip(numbers, written)),
        ]


def _distinct_texts(
    values: np.ndarray, written: np.ndarray | None, form: Callable, null: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """An object array of ``form(value)`` for each distinct value of the
    ``written`` rows (every row for ``None``), then ``null``, and each row's
    index in it (``null``'s for a row not written), in the narrowest unsigned
    dtype that holds it. Floats are keyed by their exact bits, so ``-0.0`` and
    ``0.0`` get their own texts."""
    picked = values if written is None else values[written]
    floats = picked.dtype == np.float64
    unique, index = _engine.distinct(picked.view(np.int64) if floats else picked)
    del picked
    if written is not None:
        index, inverse = np.full(len(values), len(unique), dtype=index.dtype), index
        index[written] = inverse
    unique = unique.view(np.float64) if floats else unique
    return np.array([*map(form, unique.tolist()), null], dtype=object), index


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

    No reference to a snapshot is kept once the window is encoded, nor to
    the evaluation once ``ReportRows`` has it: when the caller keeps none
    either, as ``detect_day`` does, the date-file buffers the snapshots view
    are freed as the engine returns, and each full series column as soon as
    its written rows are copied.
    """
    window = current.window
    snapshots = [m for m in reversed(history) if m is not None] + [current]
    del current, history
    labels = sorted(set().union(*(m.labels for m in snapshots)))
    label_ids = {label: i for i, label in enumerate(labels)}
    n_areas = max(1, len(labels))

    def encode(m: SparseOdm) -> _engine.Columnar:
        ranks = np.array([label_ids[x] for x in m.labels], dtype=np.int64)
        return _engine.columnar_from_entries(m, ranks, n_areas)

    # The snapshots are popped as they are encoded, current first, and the
    # history goes to the engine in a list that no name here holds.
    evaluation = _engine.evaluate_window(
        encode(snapshots.pop()),
        [encode(snapshots.pop()) for _ in range(len(snapshots))],
        n_areas,
        config.th,
        config.quantile,
        config.bounds_mode,
    )
    head = (source_id, window.date.isoformat(), window.start.isoformat(), window.end.isoformat())
    names = ("t", "eligible_count", "degenerate", "available")
    stats = {name: getattr(evaluation, name) for name in names}
    summary = evaluation.summary()
    columns = [*evaluation.series, evaluation.origin, evaluation.destination]
    stops = evaluation.stops
    del evaluation  # ReportRows takes its columns over
    return WindowReport(
        source_id=source_id,
        window=window,
        outcomes=ReportRows(columns, stops, labels, head),
        summary=summary,
        **stats,
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
    del found

    # Each window's snapshots are popped and handed to run_window, not kept
    # here, so that a date file's buffer is freed once its last window is
    # evaluated.
    reports = []
    currents.reverse()
    while currents:
        key = (currents[-1].window.start, currents[-1].window.end)
        reports.append(
            run_window(
                currents.pop(), [day.pop(key, None) for day in past], config, source_id=source_id
            )
        )

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


def _write_rows(report: DayReport, handle: IO[str], text: Callable, null: str, seps: list) -> None:
    """Write every row of ``report``, one string per chunk of ``spans()``: a
    row is each ``REPORT_COLUMNS`` field after its separator in ``seps``, then
    the last one. Separators go before the texts of ``fields(text, null)``
    once a window; the head and a chunk's constant columns are joined once a
    chunk, so each row joins only its other columns' texts."""
    for window in report.window_reports:
        rows = window.outcomes
        fields = [(sep + t, i) for sep, (t, i) in zip(seps[5:], rows.fields(text, null))]
        for kind, span in rows.spans():
            count = span.stop - span.start
            fixed = "".join(sep + text(value) for sep, value in zip(seps, (*rows.head, kind)))
            pieces = []
            for table, index in fields:
                index = index[span]
                if (index == index[0]).all():
                    fixed += table[index[0]]
                else:
                    pieces += [repeat(fixed, count), table[index].tolist()]
                    fixed = ""
            pieces.append(repeat(fixed + seps[-1], count))
            handle.write("".join(map("".join, zip(*pieces))))


def write_day_report_jsonl(report: DayReport, handle: IO[str]) -> None:
    """Header line, one line per non-level0 outcome, one summary line."""
    dump = lambda obj: json.dumps(obj, separators=(",", ":"), allow_nan=False)
    handle.write(dump(_report_header(report)) + "\n")
    separators = ['{"source":', *(f',"{name}":' for name in REPORT_COLUMNS[1:]), "}\n"]
    _write_rows(report, handle, json.dumps, "null", separators)
    handle.write(dump(_report_summary(report)) + "\n")


def write_day_report_csv(report: DayReport, path: str | Path) -> None:
    """Outcome table with the same columns; header and summary go to a
    ``.meta.json`` sidecar (CSV has no place for them). Each file is
    replaced atomically."""
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(REPORT_COLUMNS) + "\n")
        _write_rows(report, handle, csv_field, "", ["", *[","] * (len(REPORT_COLUMNS) - 1), "\n"])
    meta = {"header": _report_header(report), "summary": _report_summary(report)}
    with atomic_open(path.with_name(path.name + ".meta.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, separators=(",", ":"), allow_nan=False) + "\n")
