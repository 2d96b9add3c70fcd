"""Parsing and validation of ODM input files.

Input format: UTF-8 CSV with a header row and the columns
``date,start,end,origin,destination,count`` (a ``.gz`` variant is accepted).
Each distinct (date, start, end) in a file becomes one :class:`SparseOdm`.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import re
import zlib  # for a corrupt .gz; the store's tempfile imports it anyway
from array import array
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .core import MAX_COUNT, DuplicateCell, SparseOdm, TimeWindow, check_unique

CSV_COLUMNS = ("date", "start", "end", "origin", "destination", "count")
# Rows per string that ``window_csv`` renders: the store hashes a date's CSV
# a string at a time, so none holds more than this many rows' text.
CSV_CHUNK_ROWS = 4096


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


class _SourceProfile(NamedTuple):
    source_id: str
    expected_windows_per_day: int = 1


class SourceProfile(_SourceProfile):
    """Static expectations about one data source.

    ``expected_windows_per_day`` drives the missing/extra window checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SourceProfile:
        self = super().__new__(cls, *args, **kwargs)
        per_day = self.expected_windows_per_day
        if not isinstance(per_day, int) or per_day < 1:
            raise ValueError(f"expected_windows_per_day must be an integer >= 1, got {per_day!r}")
        return self


class DayValidationReport(NamedTuple):
    """Report-only comparison of one day's windows against expectations."""

    source_id: str
    date: dt.date
    missing_windows: Sequence[str] = ()
    extra_windows: Sequence[str] = ()
    total_volume: int = 0

    @property
    def clean(self) -> bool:
        return not self.missing_windows and not self.extra_windows

    def to_json(self) -> str:
        fields = {**self._asdict(), "date": self.date.isoformat()}
        return json.dumps(fields, separators=(",", ":"))


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD") from None


# What ``strptime`` accepts for "%H:%M:%S" (``\d`` is any Unicode decimal
# digit), without importing ``_strptime``, ``calendar`` and ``locale``; its
# seconds 60 and 61 are refused by ``datetime``, so they are not matched here.
_TIME = re.compile(r"(2[0-3]|[0-1]\d|\d):([0-5]\d|\d):([0-5]\d|\d)")


def _parse_time(text: str) -> dt.time:
    match = _TIME.fullmatch(text)
    if match is None:
        raise ValueError(f"bad time {text!r}, expected HH:MM:SS")
    return dt.time(*map(int, match.groups()))


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
    destination) within one window raises :class:`OdmIntegrityError`, and the
    first one in file order wins over any later error.
    Empty rows are skipped and zero-count rows dropped (absent and zero are
    equivalent). ``SparseOdm.from_ids`` codes each window's rows once, into
    the one array its duplicate check, its sort and its snapshot share.
    """
    # Each raw triple maps to its window's slot (window, label ids, origin ids,
    # destination ids, counts, lines), shared by the triples of one window; a
    # slot of window None, never filled, marks a start that does not precede its end.
    slots: dict[tuple[str, str, str], tuple] = {}
    by_window: dict[TimeWindow, tuple] = {}
    n_fields = len(CSV_COLUMNS)
    last_date = last_start = last_end = None
    try:
        for line_no, row in rows:
            try:
                if len(row) != n_fields:
                    if not row:
                        continue
                    raise ValueError(f"expected {n_fields} fields, got {len(row)}")
                date_s, start_s, end_s, origin, destination, count_s = row
                if start_s != last_start or date_s != last_date or end_s != last_end:
                    last_date, last_start, last_end = triple = date_s, start_s, end_s
                    if triple not in slots:  # only a new triple is stripped and parsed
                        date = _parse_date(date_s.strip())
                        start, end = _parse_time(start_s.strip()), _parse_time(end_s.strip())
                        window = TimeWindow(date, start, end) if start < end else None
                        slot = (window, {}, [], [], array("q"), array("q"))
                        slots[triple] = by_window.setdefault(window, slot) if window else slot
                    window, ids, *columns = slots[triple]
                    add_origin, add_dest, add_count, add_line = (c.append for c in columns)
                try:
                    count = int(count_s)
                    if not 0 <= count <= MAX_COUNT:
                        raise ValueError
                except ValueError:  # the message, or a count int() reads only once stripped
                    count = _parse_count(count_s.strip())
                origin, destination = origin.strip(), destination.strip()
                if not origin or not destination:
                    raise ValueError("empty area label")
                if window is None:
                    raise ValueError(
                        f"window start {start_s.strip()} must precede end {end_s.strip()}"
                    )
            except ValueError as exc:
                raise OdmParseError(source, line_no, str(exc)) from None
            add_origin(ids.setdefault(origin, len(ids)))
            add_dest(ids.setdefault(destination, len(ids)))
            add_count(count)
            add_line(line_no)
    except (OdmParseError, csv.Error, EOFError, zlib.error):  # parse_file's reader errors too
        _check_duplicates(source, by_window.values(), build=False)  # a duplicate read before wins
        raise
    return _check_duplicates(source, [by_window[window] for window in sorted(by_window)])


def _check_duplicates(source: str, slots: Iterable[tuple], build: bool = True) -> list[SparseOdm]:
    """Each slot's snapshot from ``SparseOdm.from_ids`` (with ``build`` false,
    only its rows' ``check_unique``, which sorts nothing); or raise
    :class:`OdmIntegrityError` for the earliest repeated cell in file order."""
    snapshots, found = [], []
    for window, ids, origins, dests, counts, lines in slots:
        try:
            if build:
                snapshots.append(SparseOdm.from_ids(window, list(ids), origins, dests, counts))
            else:
                check_unique(list(ids), origins, dests)
        except DuplicateCell as dup:
            found.append((lines[dup.row], lines[dup.earlier], dup.pair, window))
    if found:
        line_no, first_line, pair, window = min(found)  # line numbers differ across windows
        raise OdmIntegrityError(
            source,
            line_no,
            f"duplicate cell {pair} in window {window.date} "
            f"{window.times_key()} (first seen at line {first_line})",
        ) from None
    return snapshots


def _open_text(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        import gzip  # only here, so that a plain CSV ingest does not load it

        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def iter_csv_rows(reader: Iterator[list[str]], source: str) -> Iterator[tuple[int, list[str]]]:
    """(line_no, row) for each row of a ``csv.reader``, after validating the
    header."""
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
    :class:`OdmParseError` naming the line, as do a field longer than the
    ``csv`` module's limit and a truncated or corrupt ``.gz`` stream;
    duplicate cells raise :class:`OdmIntegrityError`.
    """
    path = Path(path)
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        try:
            return parse_rows(iter_csv_rows(reader, path.name), path.name)
        except csv.Error as exc:
            raise OdmParseError(path.name, reader.line_num, str(exc)) from None
        except (EOFError, zlib.error) as exc:  # a damaged .gz: the line it cut off
            raise OdmParseError(path.name, reader.line_num + 1, str(exc)) from None


# csv.writer returns what its file's ``write`` returns: here, the line itself.
# It quotes the characters of its line terminator, so "\r\n" has it quote both.
_CSV_LINE = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n")


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field: quoted when it holds
    a comma, a double quote, ``\\r`` or ``\\n``, so that every written row reads
    back as one row. An empty field stays empty; ``csv.writer`` quotes it
    only as a row's one field."""
    return _CSV_LINE.writerow((text,))[:-2] if text else ""


def window_csv(snapshot: SparseOdm) -> Iterator[str]:
    """A snapshot's rows in the input format, one line per cell in code
    (origin, destination) order, as ``csv.writer`` writes them: one string
    per ``CSV_CHUNK_ROWS`` rows, the last one shorter."""
    w = snapshot.window
    head = f"{w.date.isoformat()},{w.start.isoformat()},{w.end.isoformat()}"
    names = [csv_field(label) for label in snapshot.labels]
    n = max(1, len(names))
    for start in range(0, len(snapshot), CSV_CHUNK_ROWS):
        chunk = slice(start, start + CSV_CHUNK_ROWS)
        pairs = map(divmod, snapshot.codes[chunk], repeat(n))
        counts = snapshot.counts[chunk]
        yield "".join([f"{head},{names[o]},{names[d]},{c}\n" for (o, d), c in zip(pairs, counts)])


def snapshots_csv(snapshots: Sequence[SparseOdm]) -> Iterator[str]:
    """Snapshots as one input-format CSV, in window order: the header line,
    then each window's strings from ``window_csv``."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for snapshot in sorted(snapshots, key=lambda m: m.window):
        yield from window_csv(snapshot)


def write_snapshots_csv(snapshots: Sequence[SparseOdm], handle: IO[str]) -> None:
    """Write ``snapshots_csv(snapshots)``. Only ``handle.write`` is called,
    once per string."""
    for text in snapshots_csv(snapshots):
        handle.write(text)


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
        total_volume=sum(sum(m.counts) for m in snapshots),
    )
