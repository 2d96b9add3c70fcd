"""File-backed store of ODM snapshots across runs.

Layout: one CSV per (source_id, date) holding every window of that date,
in the ingestion format, plus a JSON sidecar index with byte offsets so a
single window can be fetched without parsing the whole file. Writes are
atomic (temp file + rename): a reader concurrent with a writer sees either
the old or the new day file, never a torn one.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
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
from .ingestion import CSV_COLUMNS, SourceProfile, iter_csv_rows, parse_rows, records_for

logger = logging.getLogger(__name__)

STRIDE_DAYS = {"daily": 1, "weekly": 7}
_DATE_FILE = re.compile(r"^\d{4}-\d{2}-\d{2}\.csv$")


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
    """Date-granular snapshot store rooted at a directory.

    Single-writer per (source_id, date) is assumed; readers are unlimited.
    ``retention_days`` bounds how far behind the newest stored date old day
    files are kept (pruned on write); ``None`` disables pruning.
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

    def _day_csv(self, source_id: str, date: dt.date) -> Path:
        return self._source_dir(source_id) / f"{date.isoformat()}.csv"

    def _day_index(self, source_id: str, date: dt.date) -> Path:
        return self._source_dir(source_id) / f"{date.isoformat()}.index.json"

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
        _atomic_write_bytes(directory / "profile.json", payload.encode("utf-8"))

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

        Raises ``ValueError``, writing nothing, for a label the day file
        could not give back verbatim: the reader strips surrounding
        whitespace, and the writer leaves a lone carriage return unquoted.
        """
        date = snapshot.window.date
        for label in snapshot.labels:
            if label != label.strip() or "\r" in label:
                raise ValueError(
                    f"cannot store {source_id}/{date}: area label {label!r} has "
                    "surrounding whitespace or a carriage return"
                )
        try:
            day = {m.window: m for m in self._read_day(source_id, date)}
            if snapshot.window in day:
                logger.info(
                    "overwriting %s %s window %s",
                    source_id,
                    date,
                    snapshot.window.times_key(),
                )
            day[snapshot.window] = snapshot
            self._write_day(source_id, date, list(day.values()))
        except OSError as exc:
            raise StoreError(f"cannot store {source_id}/{date}: {exc}") from exc
        self._prune(source_id)

    def get_snapshot(self, source_id: str, window: TimeWindow) -> SparseOdm | None:
        """Retrieve one snapshot, or ``None`` when it was never stored.

        Reads only the window's block when the day's offset index is current.
        """
        csv_path = self._day_csv(source_id, window.date)
        if not csv_path.exists():
            return None
        index = self._load_index(source_id, window.date)
        if index is not None:
            if window not in index:
                return None
            offset, length = index[window]
            if length == 0:
                # A stored window whose cells are all zero: present but empty.
                return SparseOdm(window, {})
            try:
                with open(csv_path, "rb") as handle:
                    handle.seek(offset)
                    block = handle.read(length).decode("utf-8")
                rows = csv.reader(io.StringIO(block, newline=""))
                matrices = parse_rows(enumerate(rows, start=1), csv_path.name)
            except (ValueError, OSError):
                matrices = []
            if len(matrices) == 1 and matrices[0].window == window:
                return matrices[0]
        self._warn_full_parse(csv_path)
        for m in self._read_day(source_id, window.date):
            if m.window == window:
                return m
        return None

    def windows_for(self, source_id: str, date: dt.date) -> list[TimeWindow]:
        """Windows stored for one date, ordered by start time.

        Read from the day's offset index when it is current.
        """
        index = self._load_index(source_id, date)
        if index is not None:
            return sorted(index, key=lambda w: (w.start, w.end))
        csv_path = self._day_csv(source_id, date)
        if csv_path.exists():
            self._warn_full_parse(csv_path)
        return [m.window for m in self._read_day(source_id, date)]

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
        directory = self._source_dir(source_id)
        if not directory.is_dir():
            return []
        return sorted(
            dt.date.fromisoformat(p.name[:-4])
            for p in directory.iterdir()
            if _DATE_FILE.match(p.name)
        )

    def day_digest(self, source_id: str, date: dt.date) -> str | None:
        """SHA-256 of the stored day file, for report audit headers."""
        path = self._day_csv(source_id, date)
        if not path.exists():
            return None
        return hashlib.sha256(path.read_bytes()).hexdigest()

    # -- internals -----------------------------------------------------

    def _read_day(self, source_id: str, date: dt.date) -> list[SparseOdm]:
        path = self._day_csv(source_id, date)
        if not path.exists():
            return []
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                matrices = parse_rows(iter_csv_rows(handle, path.name), path.name)
        except OSError as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        # All-zero windows leave no CSV rows; only the index remembers them.
        present = {m.window for m in matrices}
        for window in self._load_index(source_id, date) or ():
            if window not in present:
                matrices.append(SparseOdm(window, {}))
        matrices.sort(key=lambda m: (m.window.start, m.window.end))
        return matrices

    def _write_day(self, source_id: str, date: dt.date, matrices: list[SparseOdm]) -> None:
        directory = self._source_dir(source_id)
        directory.mkdir(parents=True, exist_ok=True)
        matrices.sort(key=lambda m: (m.window.start, m.window.end))

        header = ",".join(CSV_COLUMNS) + "\n"
        blocks: list[bytes] = [header.encode("utf-8")]
        index_windows = []
        offset = len(blocks[0])
        for m in matrices:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerows(records_for(m))
            block = buf.getvalue().encode("utf-8")
            blocks.append(block)
            index_windows.append(
                {
                    "start": m.window.start.isoformat(),
                    "end": m.window.end.isoformat(),
                    "offset": offset,
                    "length": len(block),
                    "rows": len(m),
                }
            )
            offset += len(block)

        payload = b"".join(blocks)
        index = {"file_size": len(payload), "windows": index_windows}
        _atomic_write_bytes(self._day_csv(source_id, date), payload)
        _atomic_write_bytes(
            self._day_index(source_id, date),
            json.dumps(index, separators=(",", ":")).encode("utf-8"),
        )

    def _load_index(
        self, source_id: str, date: dt.date
    ) -> dict[TimeWindow, tuple[int, int]] | None:
        """Each indexed window's (offset, length) in the day file, or ``None``
        when the index is absent, unreadable or out of step with the file.

        Anything but ``{"file_size": int, "windows": [{"start", "end",
        "offset", "length", ...}, ...]}`` counts as unreadable.
        """
        index_path = self._day_index(source_id, date)
        csv_path = self._day_csv(source_id, date)
        if not index_path.exists():
            return None
        try:
            index = json.loads(index_path.read_text(encoding="utf-8"))
            if index.get("file_size") != csv_path.stat().st_size:
                return None
            return {
                TimeWindow(
                    date,
                    dt.time.fromisoformat(entry["start"]),
                    dt.time.fromisoformat(entry["end"]),
                ): (int(entry["offset"]), int(entry["length"]))
                for entry in index["windows"]
            }
        except (ValueError, KeyError, TypeError, AttributeError, OSError):
            return None

    @staticmethod
    def _warn_full_parse(csv_path: Path) -> None:
        logger.warning(
            "offset index of %s is missing, stale or unreadable; parsing the whole day file",
            csv_path,
        )

    def _prune(self, source_id: str) -> None:
        if self.retention_days is None:
            return
        dates = self.dates_for(source_id)
        if not dates:
            return
        cutoff = dates[-1] - dt.timedelta(days=self.retention_days)
        for date in dates:
            if date < cutoff:
                logger.info("pruning %s/%s (older than %d days)", source_id, date, self.retention_days)
                self._day_csv(source_id, date).unlink(missing_ok=True)
                self._day_index(source_id, date).unlink(missing_ok=True)


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


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    with atomic_open(path, "wb") as handle:
        handle.write(payload)


def retention_for(p: int, stride: str) -> int:
    """Default retention: long enough for the rolling window, at least 35 days."""
    return max(p * STRIDE_DAYS[stride], 35)
