"""File-backed store of ODM snapshots across runs.

Layout: one CSV per stored window, ``<source>/<YYYY-MM-DD>_<HHMMSS>-<HHMMSS>.csv``,
in the ingestion format (header, then the window's nonzero cells in code
order); an all-zero window is a header-only file. The directory listing is
the index: a name of any other form is an error, so history written in
another layout never reads as absent. Each write is atomic (temp file +
rename), so a reader concurrent with a writer, or after a crash, sees
either the old or the new window file, never a torn one.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import logging
import os
import re
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from .core import SparseOdm, TimeWindow
from .ingestion import CSV_COLUMNS, SourceProfile, iter_csv_rows, parse_rows, write_snapshots_csv

logger = logging.getLogger(__name__)

STRIDE_DAYS = {"daily": 1, "weekly": 7}
_WINDOW_FILE = re.compile(r"^(\d{4}-\d{2}-\d{2})_(\d{6})-(\d{6})\.csv$")
_HEADER = (",".join(CSV_COLUMNS) + "\n").encode("utf-8")


@dataclass(frozen=True)
class HistoryQuery:
    """Request for the p periods preceding a window, at a given stride."""

    source_id: str
    window: TimeWindow
    p: int
    stride: str = "weekly"

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.stride not in STRIDE_DAYS:
            raise ValueError(f"stride must be one of {sorted(STRIDE_DAYS)}")


@dataclass(frozen=True)
class HistorySlice:
    """Exactly p history slots, newest first; ``None`` marks a missing period.

    ``slots[k]`` corresponds to ``dates[k]`` = query date - (k+1) * stride
    days, with the same start/end times as the queried window.
    """

    dates: tuple[dt.date, ...]
    slots: tuple[SparseOdm | None, ...]

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.slots):
            raise ValueError("dates and slots must have equal length")

    @property
    def p(self) -> int:
        return len(self.slots)

    @property
    def available(self) -> int:
        return sum(1 for s in self.slots if s is not None)


class StoreError(OSError):
    """Storage-level failure (unreadable or unwritable files)."""


class HistoryStore:
    """Window-granular snapshot store rooted at a directory.

    Single-writer per stored window is assumed; readers are unlimited.
    ``retention_days`` bounds how far behind the newest stored date the
    window files of old dates are kept (pruned on write); ``None`` disables
    pruning.
    """

    def __init__(self, root: str | Path, retention_days: int | None = 35) -> None:
        self.root = Path(root)
        self.retention_days = retention_days
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def _source_dir(self, source_id: str) -> Path:
        if not source_id or "/" in source_id or source_id.startswith("."):
            raise ValueError(f"bad source id {source_id!r}")
        return self.root / source_id

    def _window_path(self, source_id: str, window: TimeWindow) -> Path:
        """The window's file; ``ValueError`` for times a file name cannot
        hold (fractional seconds or a time zone)."""
        for t in (window.start, window.end):
            if t.microsecond or t.tzinfo is not None:
                raise ValueError(
                    f"cannot store {source_id}/{window.date}: window {window.times_key()} "
                    "needs whole-second times without a time zone"
                )
        name = f"{window.date.isoformat()}_{window.start:%H%M%S}-{window.end:%H%M%S}.csv"
        return self._source_dir(source_id) / name

    def _stored_windows(self, source_id: str) -> list[TimeWindow]:
        """Every stored window of a source, sorted, read from the file names.

        Hidden temp files and ``profile.json`` are skipped; any other name
        raises ``StoreError`` naming the file.
        """
        directory = self._source_dir(source_id)
        if not directory.is_dir():
            return []
        windows = []
        for path in directory.iterdir():
            if path.name.startswith(".") or path.name == "profile.json":
                continue
            match = _WINDOW_FILE.match(path.name)
            try:
                if match is None:
                    raise ValueError("not a window file name")
                date, start, end = match.groups()
                windows.append(
                    TimeWindow(dt.date.fromisoformat(date), _hhmmss(start), _hhmmss(end))
                )
            except ValueError as exc:
                raise StoreError(
                    f"unexpected file {path} in the store ({exc}); it may hold history "
                    "in an older layout: re-ingest the source into a new store root"
                ) from None
        return sorted(windows)

    # -- profiles ------------------------------------------------------

    def put_profile(self, profile: SourceProfile) -> None:
        directory = self._source_dir(profile.source_id)
        directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "source_id": profile.source_id,
                "expected_windows_per_day": profile.expected_windows_per_day,
            },
            separators=(",", ":"),
        )
        with atomic_open(directory / "profile.json", "w", encoding="utf-8") as handle:
            handle.write(payload)

    def get_profile(self, source_id: str) -> SourceProfile | None:
        """The stored profile, or ``None`` when none was stored.

        Raises ``StoreError`` naming the file for one that cannot be read
        as a profile. Keys other than the profile's fields are ignored.
        """
        path = self._source_dir(source_id) / "profile.json"
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return SourceProfile(
                source_id=data["source_id"],
                expected_windows_per_day=data["expected_windows_per_day"],
            )
        except KeyError as exc:
            raise StoreError(f"bad profile {path}: missing key {exc}") from exc
        except (OSError, ValueError, TypeError) as exc:
            raise StoreError(f"bad profile {path}: {exc}") from exc

    # -- snapshots -----------------------------------------------------

    def put_snapshot(self, source_id: str, snapshot: SparseOdm) -> None:
        """Persist one snapshot; an existing same-window snapshot is replaced.

        Raises ``ValueError``, writing nothing, for a snapshot its file could
        not give back verbatim: a label with surrounding whitespace (the
        reader strips it) or a lone carriage return (the writer leaves it
        unquoted), or window times with fractional seconds or a time zone.
        """
        window = snapshot.window
        for label in snapshot.labels:
            if label != label.strip() or "\r" in label:
                raise ValueError(
                    f"cannot store {source_id}/{window.date}: area label {label!r} has "
                    "surrounding whitespace or a carriage return"
                )
        path = self._window_path(source_id, window)
        stored = self._stored_windows(source_id)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_open(path, "w", encoding="utf-8", newline="") as handle:
                write_snapshots_csv([snapshot], handle)
        except OSError as exc:
            raise StoreError(f"cannot store {source_id}/{window.date}: {exc}") from exc
        self._prune(source_id, {*stored, window})

    def get_snapshot(self, source_id: str, window: TimeWindow) -> SparseOdm | None:
        """Retrieve one snapshot, or ``None`` when it was never stored.

        Raises ``StoreError`` naming the file when it does not hold exactly
        this window; a header-only file is the all-zero window.
        """
        path = self._window_path(source_id, window)
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                matrices = parse_rows(iter_csv_rows(handle, path.name), path.name)
            if not matrices and path.stat().st_size == 0:
                raise ValueError("empty file, no header")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, csv.Error) as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        if not matrices:
            return SparseOdm(window, {})
        if len(matrices) != 1 or matrices[0].window != window:
            held = ", ".join(f"{m.window.date} {m.window.times_key()}" for m in matrices)
            raise StoreError(f"{path} holds window {held}, not {window.times_key()}")
        return matrices[0]

    def windows_for(self, source_id: str, date: dt.date) -> list[TimeWindow]:
        """Windows stored for one date, all-zero ones included, ordered by
        start time; read from the file names alone."""
        return [w for w in self._stored_windows(source_id) if w.date == date]

    def fetch_history(self, query: HistoryQuery) -> HistorySlice:
        """The p past periods of a window, newest first.

        Daily stride looks at d-1 ... d-p; weekly stride at d-7 ... d-7p,
        preserving the weekday. Absent snapshots become ``None`` markers,
        never an error.
        """
        step = STRIDE_DAYS[query.stride]
        dates = []
        slots = []
        for k in range(1, query.p + 1):
            past = query.window.shifted(-k * step)
            dates.append(past.date)
            slots.append(self.get_snapshot(query.source_id, past))
        return HistorySlice(tuple(dates), tuple(slots))

    def dates_for(self, source_id: str) -> list[dt.date]:
        return sorted({w.date for w in self._stored_windows(source_id)})

    def day_digest(self, source_id: str, date: dt.date) -> str | None:
        """SHA-256 of the date's stored windows, for report audit headers, or
        ``None`` when none is stored.

        Hashes the header, then each window file after its header, in
        (start, end) order: the bytes of one CSV holding the whole day.
        """
        windows = self.windows_for(source_id, date)
        if not windows:
            return None
        digest = hashlib.sha256(_HEADER)
        for window in windows:
            path = self._window_path(source_id, window)
            try:
                payload = path.read_bytes()
            except OSError as exc:
                raise StoreError(f"cannot read {path}: {exc}") from exc
            if not payload.startswith(_HEADER):
                raise StoreError(f"{path} does not start with the CSV header")
            digest.update(payload[len(_HEADER) :])
        return digest.hexdigest()

    # -- internals -----------------------------------------------------

    def _prune(self, source_id: str, windows: set[TimeWindow]) -> None:
        """Unlink the files of ``windows`` dated more than ``retention_days``
        before the newest of them."""
        if self.retention_days is None:
            return
        cutoff = max(w.date for w in windows) - dt.timedelta(days=self.retention_days)
        for window in sorted(windows):
            if window.date < cutoff:
                logger.info(
                    "pruning %s/%s %s (older than %d days)",
                    source_id,
                    window.date,
                    window.times_key(),
                    self.retention_days,
                )
                self._window_path(source_id, window).unlink(missing_ok=True)


@contextmanager
def atomic_open(path: Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a new, uniquely named temp file beside ``path`` for writing.

    On a clean exit the file is fsynced, renamed over ``path`` and the
    directory fsynced; on an error it is removed and ``path`` keeps its old
    bytes. ``mode`` and ``kwargs`` go to ``open``.
    """
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _hhmmss(text: str) -> dt.time:
    return dt.time(int(text[:2]), int(text[2:4]), int(text[4:]))


def retention_for(p: int, stride: str) -> int:
    """Default retention: long enough for the rolling window, at least 35 days."""
    return max(p * STRIDE_DAYS[stride], 35)
