"""Parsing and validation of ODM input files.

Input format: UTF-8 CSV with a header row and the columns
``date,start,end,origin,destination,count`` (a ``.gz`` variant is accepted).
Each distinct (date, start, end) in a file becomes one :class:`SparseOdm`.
"""

from __future__ import annotations

import csv
import datetime as dt
import gzip
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .core import MAX_COUNT, SparseOdm, TimeWindow

CSV_COLUMNS = ("date", "start", "end", "origin", "destination", "count")


class OdmParseError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, source: str, line_no: int, message: str) -> None:
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


class OdmIntegrityError(ValueError):
    """Structurally valid input that violates dataset integrity."""

    def __init__(self, source: str, line_no: int, message: str) -> None:
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


@dataclass(frozen=True)
class SourceProfile:
    """Static expectations about one data source.

    ``expected_windows_per_day`` drives the missing/extra window checks.
    """

    source_id: str
    expected_windows_per_day: int = 1

    def __post_init__(self) -> None:
        per_day = self.expected_windows_per_day
        if not isinstance(per_day, int) or per_day < 1:
            raise ValueError(f"expected_windows_per_day must be an integer >= 1, got {per_day!r}")


@dataclass
class DayValidationReport:
    """Report-only comparison of one day's windows against expectations."""

    source_id: str
    date: dt.date
    missing_windows: list[str] = field(default_factory=list)
    extra_windows: list[str] = field(default_factory=list)
    total_volume: int = 0

    @property
    def clean(self) -> bool:
        return not self.missing_windows and not self.extra_windows

    def to_json(self) -> str:
        fields = {**asdict(self), "date": self.date.isoformat()}
        return json.dumps(fields, separators=(",", ":"))


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD") from None


def _parse_time(text: str) -> dt.time:
    try:
        return dt.datetime.strptime(text, "%H:%M:%S").time()
    except ValueError:
        raise ValueError(f"bad time {text!r}, expected HH:MM:SS") from None


def _parse_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise ValueError(f"bad count {text!r}, expected a nonnegative integer") from None
    if count < 0:
        raise ValueError(f"negative count {count}")
    if count > MAX_COUNT:
        raise ValueError(f"count {count} exceeds the int64 limit {MAX_COUNT}")
    return count


def parse_rows(rows: Iterable[tuple[int, Sequence[str]]], source: str) -> list[SparseOdm]:
    """Validate (line_no, row) pairs and group them into one snapshot per window.

    Each distinct (date, start, end) string triple is parsed once; rows are
    grouped by the parsed window, so ``1:00:00`` and ``01:00:00`` land in the
    same one. Every non-empty row is still checked, in this order: field
    count, date, start, end, count, empty label, start < end, duplicate cell.
    Malformed rows raise :class:`OdmParseError`; a duplicate (origin,
    destination) within one window raises :class:`OdmIntegrityError`.
    Empty rows are skipped and zero-count rows dropped (absent and zero are
    equivalent).
    """
    # Each triple maps to its window's slot (window, first line per cell,
    # first-seen label ids, origin ids, destination ids, counts), shared by
    # triples of one window; None marks a start that does not precede its end.
    slots: dict[tuple[str, str, str], tuple | None] = {}
    by_window: dict[TimeWindow, tuple] = {}
    n_fields = len(CSV_COLUMNS)
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != n_fields:
            raise OdmParseError(
                source, line_no, f"expected {n_fields} fields, got {len(row)}"
            )
        date_s, start_s, end_s, origin, destination, count_s = map(str.strip, row)
        try:
            triple = (date_s, start_s, end_s)
            if triple in slots:
                slot = slots[triple]
            else:
                date = _parse_date(date_s)
                start = _parse_time(start_s)
                end = _parse_time(end_s)
                slot = None
                if start < end:
                    window = TimeWindow(date, start, end)
                    slot = by_window.setdefault(window, (window, {}, {}, [], [], []))
                slots[triple] = slot
            count = _parse_count(count_s)
            if not origin or not destination:
                raise ValueError("empty area label")
            if slot is None:
                raise ValueError(f"window start {start_s} must precede end {end_s}")
        except ValueError as exc:
            raise OdmParseError(source, line_no, str(exc)) from None
        window, lines, ids, origins, dests, counts = slot
        pair = (origin, destination)
        if pair in lines:
            raise OdmIntegrityError(
                source,
                line_no,
                f"duplicate cell {pair} in window {window.date} "
                f"{window.times_key()} (first seen at line {lines[pair]})",
            )
        lines[pair] = line_no
        if count > 0:
            origins.append(ids.setdefault(origin, len(ids)))
            dests.append(ids.setdefault(destination, len(ids)))
            counts.append(count)
    return [
        SparseOdm.from_ids(window, list(ids), origins, dests, counts)
        for window, _, ids, origins, dests, counts in sorted(
            by_window.values(), key=lambda slot: slot[0]
        )
    ]


def _open_text(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def iter_csv_rows(handle: IO[str], source: str) -> Iterator[tuple[int, list[str]]]:
    """(line_no, row) for each row of an open CSV stream, after validating
    the header."""
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        return iter(())
    if tuple(h.strip().lower() for h in header) != CSV_COLUMNS:
        raise OdmParseError(
            source, 1, f"bad header {header!r}, expected {','.join(CSV_COLUMNS)}"
        )
    return enumerate(reader, start=2)


def parse_file(path: str | Path) -> list[SparseOdm]:
    """Parse one CSV (or .csv.gz) file into snapshots, one per window.

    An empty file yields an empty list. Malformed rows raise
    :class:`OdmParseError` naming the line; duplicate cells raise
    :class:`OdmIntegrityError`.
    """
    path = Path(path)
    with _open_text(path) as handle:
        return parse_rows(iter_csv_rows(handle, path.name), path.name)


def records_for(snapshot: SparseOdm) -> Iterator[tuple[str, str, str, str, str, str]]:
    """Serialize a snapshot back to CSV field tuples, deterministically ordered."""
    w = snapshot.window
    date_s = w.date.isoformat()
    start_s = w.start.isoformat()
    end_s = w.end.isoformat()
    for (origin, destination), count in snapshot.cells():
        yield (date_s, start_s, end_s, origin, destination, str(count))


def write_snapshots_csv(snapshots: Sequence[SparseOdm], handle: IO[str]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for snapshot in sorted(snapshots, key=lambda m: m.window):
        writer.writerows(records_for(snapshot))


def canonical_windows(date: dt.date, per_day: int) -> list[TimeWindow]:
    """Equal division of a date into ``per_day`` windows, ends inclusive.

    ``per_day=1`` gives the whole-day window 00:00:00-23:59:59; ``per_day=24``
    gives hourly windows 00:00:00-00:59:59, ..., 23:00:00-23:59:59.
    """
    if per_day < 1:
        raise ValueError("windows per day must be >= 1")
    bounds = [i * 86400 // per_day for i in range(per_day)] + [86400]
    windows = []
    for i in range(per_day):
        start = dt.time(bounds[i] // 3600, bounds[i] % 3600 // 60, bounds[i] % 60)
        end_s = bounds[i + 1] - 1
        end = dt.time(end_s // 3600, end_s % 3600 // 60, end_s % 60)
        windows.append(TimeWindow(date, start, end))
    return windows


def window_gaps(
    date: dt.date, per_day: int, windows: Iterable[TimeWindow]
) -> tuple[list[str], list[str]]:
    """Sorted ``times_key`` lists of the expected windows absent from
    ``windows`` and of the present windows outside the schedule."""
    expected = {w.times_key() for w in canonical_windows(date, per_day)}
    present = {w.times_key() for w in windows}
    return sorted(expected - present), sorted(present - expected)


def validate_day(
    snapshots: Sequence[SparseOdm], profile: SourceProfile, date: dt.date
) -> DayValidationReport:
    """Compare one day's windows against the profile's expected schedule.

    Never mutates inputs; the result is report-only (missing and unexpected
    windows plus the day's total volume).
    """
    for snapshot in snapshots:
        if snapshot.window.date != date:
            raise ValueError(
                f"snapshot for {snapshot.window.date} passed to validate_day({date})"
            )
    missing, extra = window_gaps(
        date, profile.expected_windows_per_day, (m.window for m in snapshots)
    )
    return DayValidationReport(
        source_id=profile.source_id,
        date=date,
        missing_windows=missing,
        extra_windows=extra,
        # Python ints: an int64 sum of the counts could wrap.
        total_volume=sum(sum(m.counts.tolist()) for m in snapshots),
    )
