"""File-backed store of ODM snapshots across runs.

Layout: one file per stored date, ``<source>/<YYYY-MM-DD>.odm``. Line 1 is a
UTF-8 JSON header (ASCII, padded with spaces so the arrays start 8-byte
aligned) holding the ``format``, the ``date``, the ``windows`` in (start,
end) order, each with its ``start`` and ``end`` (``HH:MM:SS``), sorted
``labels`` and number of ``cells``, then ``sha256``, the hash of the array
section, and ``csv_sha256``, the date's audit digest (SHA-256 of the date's
windows written as one ingestion-format CSV). After the newline comes the
array section: per window, its cells' little-endian int64 codes, then their
counts. An all-zero window has no labels and no cells.

Storing windows merges them over the date's stored windows and commits the
whole date with one atomic rename (temp file, fsync, rename), so a reader
concurrent with a writer, or after a crash, sees each date either old or new,
never torn or mixed; a source's writers take turns on a lock. Every read
checks the header's shape, the array lengths against the file size and the
payload hash; a read that returns a window's snapshot also checks its labels
(sorted, unique, non-empty, each used), codes (strictly increasing, below
``len(labels)**2``) and counts (> 0). A failed check raises ``StoreError``
naming the file and the reason; the date must then be re-ingested. A source
directory holds only ``profile.json``, hidden temp files and date files: any
other name, such as a per-window CSV of an older layout, is an error asking
for a re-ingest, so history written in another layout never reads as absent.
"""

from __future__ import annotations

import datetime as dt
import fcntl
import hashlib
import json
import operator
import os
import re
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

from .core import STRIDE_DAYS, SparseOdm, TimeWindow
from .ingestion import SourceProfile, snapshots_csv

FORMAT = 1
_DATE_FILE = re.compile(r"^(\d{4}-\d{2}-\d{2})\.odm$")
_INT64_SIZE = 8


def history_dates(date: dt.date, p: int, stride: str) -> list[dt.date]:
    """The p past dates of ``date``, newest first.

    Daily stride gives d-1 ... d-p; weekly stride d-7 ... d-7p, preserving
    the weekday.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if stride not in STRIDE_DAYS:
        raise ValueError(f"stride must be one of {sorted(STRIDE_DAYS)}")
    return [date - dt.timedelta(days=k * STRIDE_DAYS[stride]) for k in range(1, p + 1)]


class StoreError(OSError):
    """Storage-level failure (unreadable or unwritable files)."""


class HistoryStore:
    """Date-granular snapshot store rooted at a directory.

    Readers take no lock. A put or a prune holds an exclusive ``flock`` on
    its source's directory, at one ``open``, ``flock`` and ``close`` a call,
    so writers of one source take turns and none loses another's windows.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create store root {root}: {exc.strerror or exc}") from exc

    # -- paths ---------------------------------------------------------

    def _source_dir(self, source_id: str) -> Path:
        if not source_id or "/" in source_id or source_id.startswith("."):
            raise ValueError(f"bad source id {source_id!r}")
        return self.root / source_id

    def _date_path(self, source_id: str, date: dt.date) -> Path:
        return self._source_dir(source_id) / f"{date.isoformat()}.odm"

    def dates_for(self, source_id: str) -> list[dt.date]:
        """Every stored date of a source, sorted, read from the file names.

        Hidden temp files and ``profile.json`` are skipped; any other name
        raises ``StoreError`` naming the file.
        """
        directory = self._source_dir(source_id)
        if not directory.is_dir():
            return []
        dates = []
        for path in directory.iterdir():
            if path.name.startswith(".") or path.name == "profile.json":
                continue
            match = _DATE_FILE.match(path.name)
            try:
                if match is None:
                    raise ValueError("not a date file name")
                dates.append(dt.date.fromisoformat(match.group(1)))
            except ValueError as exc:
                raise StoreError(
                    f"unexpected file {path} in the store ({exc}); it may hold history "
                    "in an older layout: re-ingest the source into a new store root"
                ) from None
        return sorted(dates)

    # -- profiles ------------------------------------------------------

    def put_profile(self, profile: SourceProfile) -> None:
        directory = self._source_dir(profile.source_id)
        payload = json.dumps(
            {
                "source_id": profile.source_id,
                "expected_windows_per_day": profile.expected_windows_per_day,
            },
            separators=(",", ":"),
        )
        path = directory / "profile.json"
        try:
            if path.read_bytes() == payload.encode("utf-8"):
                return  # already stored: no temp file, fsync or rename
        except OSError:
            pass
        try:
            directory.mkdir(parents=True, exist_ok=True)
            with atomic_open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise StoreError(f"cannot store profile {path}: {exc.strerror or exc}") from exc

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

    def put_snapshot(self, source_id: str, snapshot: SparseOdm, *more: SparseOdm) -> list[SparseOdm]:
        """Persist the given windows of one date, merged over that date's
        stored windows: a given window replaces the stored one with the same
        times, and among the given ones the later wins. The date's file is
        rewritten and committed by one rename. Returns the date's windows as
        stored, in (start, end) order, decoding only the stored ones kept.

        Raises ``ValueError``, writing nothing, for windows of different
        dates or window times with fractional seconds or a time zone; and
        ``StoreError`` naming the file when the stored date cannot be read.
        """
        date = snapshot.window.date
        for m in (snapshot, *more):
            window = m.window
            if window.date != date:
                raise ValueError(
                    f"cannot store {source_id}/{window.date} together with {date}: "
                    "one put holds the windows of one date"
                )
            if any(t.microsecond or t.tzinfo is not None for t in (window.start, window.end)):
                raise ValueError(
                    f"cannot store {source_id}/{date}: window {window.times_key()} "
                    "needs whole-second times without a time zone"
                )
        given = {m.window: m for m in (snapshot, *more)}
        path = self._date_path(source_id, date)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with _locked(path.parent):
                self.dates_for(source_id)  # a stray file refuses the put, nothing written
                kept = self.read_day(source_id, date, lambda window: window not in given)[2]
                day = sorted((*kept, *given.values()), key=operator.attrgetter("window"))
                with atomic_open(path, "wb") as handle:
                    handle.writelines(_encode_day(date, day))
        except StoreError:
            raise
        except OSError as exc:
            raise StoreError(f"cannot store {source_id}/{date}: {exc}") from exc
        return day

    def prune(self, source_id: str, retention_days: int) -> list[dt.date]:
        """Unlink the files of the source's dates more than ``retention_days``
        before its newest stored date; returns those dates, oldest first."""
        directory = self._source_dir(source_id)
        if not directory.is_dir():
            return []
        with _locked(directory):
            dates = self.dates_for(source_id)
            pruned = [date for date in dates if (dates[-1] - date).days > retention_days]
            for date in pruned:
                self._date_path(source_id, date).unlink(missing_ok=True)
        return pruned

    def get_snapshot(self, source_id: str, window: TimeWindow) -> SparseOdm | None:
        """Retrieve one snapshot, or ``None`` when it was never stored.

        Raises ``StoreError`` naming the date file when a read check fails.
        """
        found = self.read_day(source_id, window.date, window.__eq__)[2]
        return found[0] if found else None

    def windows_for(self, source_id: str, date: dt.date) -> list[TimeWindow]:
        """Windows stored for one date, all-zero ones included, ordered by
        start time."""
        return self.read_day(source_id, date)[1]

    def fetch_history(
        self, source_id: str, window: TimeWindow, p: int, stride: str
    ) -> list[SparseOdm | None]:
        """The window's snapshots on its p ``history_dates``, newest first,
        with the same start and end times. An absent snapshot is ``None``,
        never an error."""
        return [
            self.get_snapshot(source_id, TimeWindow(date, window.start, window.end))
            for date in history_dates(window.date, p, stride)
        ]

    def day_digest(self, source_id: str, date: dt.date) -> str | None:
        """SHA-256 of the date's stored windows, for report audit headers, or
        ``None`` when none is stored.

        This is ``csv_sha256`` from the date file, read after the file's
        checks pass: the hash of the date's windows written by
        ``write_snapshots_csv`` as one CSV, taken when the date was stored.
        """
        return self.read_day(source_id, date)[0]

    def read_day(
        self,
        source_id: str,
        date: dt.date,
        decode: Callable[[TimeWindow], bool] = lambda window: False,
    ) -> tuple[str | None, list[TimeWindow], list[SparseOdm]]:
        """``(csv_sha256, windows, snapshots)`` of a stored date, or
        ``(None, [], [])``: every stored window, and the snapshots of those
        ``decode`` accepts, from one read of the date file.

        Every read checks the header, the array lengths and the payload hash;
        a decoded window's labels and columns are checked too. Raises
        ``StoreError`` naming the file and the reason when a check fails. A
        date is absent only when its source directory lists cleanly.
        """
        path = self._date_path(source_id, date)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.dates_for(source_id)
            return None, [], []
        except OSError as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        try:
            return _decode_day(data, date, decode)
        except ValueError as exc:
            raise StoreError(
                f"cannot read {path}: {exc}; remove it and re-ingest the date"
            ) from None


def _encode_day(date: dt.date, day: Sequence[SparseOdm]) -> list:
    """The pieces of a date file holding ``day``, in (start, end) order: the
    header line, then each window's codes and counts as little-endian int64
    buffers. The payload's SHA-256 is taken a buffer at a time, and no piece
    is a copy of another, so the array section is never held twice."""
    csv_sha256 = hashlib.sha256()
    for text in snapshots_csv(day):
        csv_sha256.update(text.encode())
    arrays = [_little_endian(a) for m in day for a in (m.codes, m.counts)]
    payload_sha256 = hashlib.sha256()
    for a in arrays:
        payload_sha256.update(a)
    header = json.dumps(
        {
            "format": FORMAT,
            "date": date.isoformat(),
            "windows": [
                {
                    "start": m.window.start.isoformat(),
                    "end": m.window.end.isoformat(),
                    "labels": list(m.labels),
                    "cells": len(m),
                }
                for m in day
            ],
            "sha256": payload_sha256.hexdigest(),
            "csv_sha256": csv_sha256.hexdigest(),
        },
        separators=(",", ":"),
    )
    header += " " * (-(len(header) + 1) % _INT64_SIZE)
    return [header.encode("ascii") + b"\n", *arrays]


def _decode_day(
    data: bytes, date: dt.date, decode: Callable[[TimeWindow], bool]
) -> tuple[str, list[TimeWindow], list[SparseOdm]]:
    """``(csv_sha256, windows, snapshots)`` of a date file's bytes: every
    stored window, and the checked snapshots of those ``decode`` accepts.

    Raises ``ValueError`` with the reason when a read check fails.
    """
    newline = data.find(b"\n")
    try:
        header = json.loads(data[: max(newline, 0)].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"bad header: {exc}") from None
    try:
        if header["format"] != FORMAT or header["date"] != date.isoformat():
            raise ValueError(f"format {header['format']!r}, date {header['date']!r}")
        digests = header["sha256"], header["csv_sha256"]
        if not all(isinstance(d, str) for d in digests):
            raise ValueError("the digests are not strings")
        entries = []
        for entry in header["windows"]:
            window = TimeWindow(date, _time(entry["start"]), _time(entry["end"]))
            labels, cells = entry["labels"], entry["cells"]
            if type(cells) is not int or cells < 0 or not isinstance(labels, list):
                raise ValueError(f"window {window.times_key()}: bad cells or labels")
            if entries and entries[-1][0] >= window:
                raise ValueError("windows not in strictly increasing (start, end) order")
            entries.append((window, labels, cells))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad header shape: {type(exc).__name__} {exc}") from None
    size = 2 * _INT64_SIZE * sum(cells for _, _, cells in entries)
    payload = memoryview(data)[newline + 1 :]
    if len(payload) != size:
        raise ValueError(f"array section has {len(payload)} bytes, the header's cells need {size}")
    if hashlib.sha256(payload).hexdigest() != digests[0]:
        raise ValueError("array section does not match its sha256")
    arrays = memoryview(_little_endian(payload)).cast("q")
    snapshots = []
    start = 0
    for window, labels, cells in entries:
        if decode(window):
            codes = arrays[start : start + cells]
            counts = arrays[start + cells : start + 2 * cells]
            snapshots.append(_checked_snapshot(window, labels, codes, counts))
        start += 2 * cells
    return digests[1], [window for window, _, _ in entries], snapshots


def _checked_snapshot(window: TimeWindow, labels: list, codes, counts) -> SparseOdm:
    """One window's snapshot, after checking its labels and columns; its
    labels are interned, to share one str across the p+1 dates detect holds."""
    import numpy as np

    n = len(labels)
    try:
        "".join(labels)  # a TypeError unless every label is a string
        ordered = all(map(operator.lt, labels, labels[1:])) and (n == 0 or labels[0] != "")
    except TypeError:
        ordered = False
    if not ordered:
        raise ValueError(
            f"window {window.times_key()}: labels not sorted, unique and non-empty strings"
        )
    used = np.zeros(n, dtype=bool)
    if len(codes):
        cells, values = np.frombuffer(codes, np.int64), np.frombuffer(counts, np.int64)
        if cells[0] < 0 or int(cells[-1]) >= n * n or (np.diff(cells) <= 0).any():
            raise ValueError(
                f"window {window.times_key()}: codes not strictly increasing in [0, {n}**2)"
            )
        if values.min() <= 0:
            raise ValueError(f"window {window.times_key()}: a count <= 0")
        used[cells // n] = used[cells % n] = True
    if not used.all():
        raise ValueError(f"window {window.times_key()}: a label no cell uses")
    return SparseOdm.from_columns(window, map(sys.intern, labels), codes, counts)


@contextmanager
def _locked(directory: Path) -> Iterator[None]:
    """An exclusive ``flock`` on ``directory`` itself until the block ends."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


@contextmanager
def atomic_open(path: Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a new, uniquely named temp file beside ``path`` for writing.

    On a clean exit the file is fsynced, renamed over ``path`` and the
    directory fsynced; on an error it is removed and ``path`` keeps its old
    bytes. ``mode`` and ``kwargs`` go to ``open``.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
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


def _little_endian(int64s):
    """Native int64 bytes as the file's little-endian ones, or back: ``int64s``
    itself on a little-endian machine, else a byte-swapped copy."""
    if sys.byteorder == "little":
        return int64s
    swapped = array("q")
    swapped.frombytes(int64s)
    swapped.byteswap()
    return swapped.tobytes()


def _time(text: str) -> dt.time:
    """A header time: exactly ``HH:MM:SS``."""
    time = dt.time.fromisoformat(text)
    if time.isoformat() != text:
        raise ValueError(f"bad time {text!r}, expected HH:MM:SS")
    return time


def retention_for(p: int, stride: str) -> int:
    """Default retention: long enough for the rolling window, at least 35 days."""
    return max(p * STRIDE_DAYS[stride], 35)
