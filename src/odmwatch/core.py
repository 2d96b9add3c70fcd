"""Core domain types for origin-destination matrix (ODM) monitoring.

An ODM snapshot holds movement counts between labelled geographical areas
for one time window of one calendar date. Snapshots are sparse: absent
(origin, destination) pairs mean a count of zero. Diagonal entries count
people who stay inside an area, so the marginal flows used for monitoring
always exclude them.
"""

from __future__ import annotations

import datetime as dt
import operator
from array import array
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

# Area labels are opaque strings; the label set is discovered from data.
AreaId = str

FULL_DAY_START = dt.time(0, 0, 0)
FULL_DAY_END = dt.time(23, 59, 59)

# Counts are stored and evaluated as int64.
MAX_COUNT = 2**63 - 1

# History strides: days between consecutive past periods.
STRIDE_DAYS = {"daily": 1, "weekly": 7}

BOUNDS_MODES = ("clamped", "paper_literal")

# A record that checks its fields is a NamedTuple of the fields plus a
# subclass whose ``__new__`` checks them, as a NamedTuple may not define one.


class _DetectorConfig(NamedTuple):
    th: int = 20
    p: int = 4
    quantile: float = 0.75
    stride: str = "weekly"
    bounds_mode: str = "clamped"


class DetectorConfig(_DetectorConfig):
    """The five detection parameters, in the report header's order: the
    eligibility threshold th, the window length p, the daily quantile, the
    history stride and the lower-bound mode. Built by keyword only."""

    __slots__ = ()

    def __new__(cls, **fields) -> DetectorConfig:
        self = super().__new__(cls, **fields)
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
        return self

    def __getnewargs_ex__(self) -> tuple[tuple, dict]:
        return (), self._asdict()  # copy and pickle build it by keyword too


class _TimeWindow(NamedTuple):
    date: dt.date
    start: dt.time
    end: dt.time


class TimeWindow(_TimeWindow):
    """One sampling window: a calendar date plus start/end times of day,
    ordered by (date, start, end)."""

    __slots__ = ()

    def __new__(cls, date: dt.date, start: dt.time, end: dt.time) -> TimeWindow:
        if start >= end:
            raise ValueError(f"window start {start} must precede end {end}")
        return super().__new__(cls, date, start, end)

    @classmethod
    def full_day(cls, date: dt.date) -> "TimeWindow":
        return cls(date, FULL_DAY_START, FULL_DAY_END)

    def times_key(self) -> str:
        return f"{self.start.isoformat()}-{self.end.isoformat()}"


class SparseOdm:
    """Immutable sparse ODM snapshot for one time window, in columnar form.

    ``labels`` is the sorted tuple of the areas of the nonzero cells.
    ``codes`` holds one strictly increasing int64 code per nonzero cell,
    ``origin_rank * len(labels) + destination_rank``, and ``counts`` the
    matching int64 counts, all > 0. Both are read-only ``memoryview``s of
    format ``q``; ``np.frombuffer(m.codes, np.int64)`` views one as a
    read-only array without a copy. Zero counts are dropped on
    construction, so "absent" and "zero" stay interchangeable.
    """

    __slots__ = ("window", "labels", "codes", "counts")

    def __init__(
        self,
        window: TimeWindow,
        cells: Mapping[tuple[AreaId, AreaId], int] | Iterable[tuple[tuple[AreaId, AreaId], int]],
    ) -> None:
        items = cells.items() if isinstance(cells, Mapping) else cells
        ids: dict[AreaId, int] = {}
        seen: set[tuple[AreaId, AreaId]] = set()
        origins: list[int] = []
        dests: list[int] = []
        counts: list[int] = []
        for (origin, destination), count in items:
            for label in (origin, destination):
                if not isinstance(label, str) or not label:
                    raise ValueError(f"area label must be a non-empty string, got {label!r}")
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"count for ({origin}, {destination}) must be an integer")
            if count < 0:
                raise ValueError(f"negative count {count} for ({origin}, {destination})")
            if count > MAX_COUNT:
                raise ValueError(
                    f"count {count} for ({origin}, {destination}) exceeds the int64 "
                    f"limit {MAX_COUNT}"
                )
            if (origin, destination) in seen:
                raise ValueError(f"duplicate cell ({origin}, {destination})")
            seen.add((origin, destination))
            if count > 0:
                origins.append(ids.setdefault(origin, len(ids)))
                dests.append(ids.setdefault(destination, len(ids)))
                counts.append(count)
        self._build(window, list(ids), origins, dests, counts)

    @classmethod
    def from_ids(cls, window: TimeWindow, names: Sequence[AreaId], origins, dests, counts):
        """Build from checked cells: ``names[i]`` labels id i; each cell has origin
        and destination ids, a count > 0 and a unique pair. Unused ids are dropped."""
        matrix = object.__new__(cls)
        matrix._build(window, names, origins, dests, counts)
        return matrix

    @classmethod
    def from_columns(cls, window: TimeWindow, labels: Sequence[AreaId], codes, counts):
        """Wrap columns already in this form, unchecked: sorted labels, each used
        by a cell; strictly increasing codes below ``len(labels)**2``; counts > 0.
        ``codes`` and ``counts`` are C-contiguous buffers of native int64 (an
        ``array('q')``, a numpy int64 array, a ``memoryview``), kept without a
        copy as read-only views."""
        matrix = object.__new__(cls)
        matrix._assign(window, tuple(labels), codes, counts)
        return matrix

    def _build(self, window, names, origins, dests, counts) -> None:
        used = sorted({*origins, *dests}, key=names.__getitem__)
        rank = [0] * len(names)
        for r, i in enumerate(used):
            rank[i] = r
        n = len(used)
        codes = [rank[o] * n + rank[d] for o, d in zip(origins, dests)]
        if not all(map(operator.lt, codes, islice(codes, 1, None))):  # rows not in label order
            order = sorted(range(len(codes)), key=codes.__getitem__)
            codes, counts = [codes[i] for i in order], [counts[i] for i in order]
        self._assign(window, tuple(names[i] for i in used), array("q", codes), array("q", counts))

    def _assign(self, window, labels, codes, counts) -> None:
        self.window, self.labels = window, labels
        self.codes, self.counts = (_int64_view(a) for a in (codes, counts))

    def cells(self) -> Iterator[tuple[tuple[AreaId, AreaId], int]]:
        """``((origin, destination), count)`` per nonzero cell, pairs in sorted order."""
        labels, n = self.labels, max(1, len(self.labels))
        for code, count in zip(self.codes, self.counts):
            origin, destination = divmod(code, n)
            yield (labels[origin], labels[destination]), count

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseOdm):
            return NotImplemented
        return (
            self.window == other.window
            and self.labels == other.labels
            and self.codes == other.codes
            and self.counts == other.counts
        )

    def __repr__(self) -> str:
        return f"SparseOdm({self.window.date} {self.window.times_key()}, {len(self)} cells)"


def _int64_view(buffer) -> memoryview:
    """A read-only ``q`` view of a buffer of native int64 values."""
    view = memoryview(buffer)
    if view.format not in ("q", "l") or view.itemsize != 8:
        raise TypeError(f"expected int64 values, got a buffer of format {view.format!r}")
    return view.toreadonly().cast("B").cast("q")
