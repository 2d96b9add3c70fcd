"""Core domain types for origin-destination matrix (ODM) monitoring.

An ODM snapshot holds movement counts between labelled geographical areas
for one time window of one calendar date. Snapshots are sparse: absent
(origin, destination) pairs mean a count of zero. Diagonal entries count
people who stay inside an area, so the marginal flows used for monitoring
always exclude them.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Area labels are opaque strings; the label set is discovered from data.
AreaId = str

FULL_DAY_START = dt.time(0, 0, 0)
FULL_DAY_END = dt.time(23, 59, 59)

# Counts are stored and evaluated as int64.
MAX_COUNT = 2**63 - 1

# History strides: days between consecutive past periods.
STRIDE_DAYS = {"daily": 1, "weekly": 7}

BOUNDS_MODES = ("clamped", "paper_literal")


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


@dataclass(frozen=True, order=True)
class TimeWindow:
    """One sampling window: a calendar date plus start/end times of day."""

    date: dt.date
    start: dt.time
    end: dt.time

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(
                f"window start {self.start} must precede end {self.end}"
            )

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
    matching int64 counts, all > 0. Both arrays are read-only. Zero counts
    are dropped on construction, so "absent" and "zero" stay interchangeable.
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
        by a cell; strictly increasing int64 codes below ``len(labels)**2``;
        int64 counts > 0."""
        matrix = object.__new__(cls)
        matrix._assign(window, tuple(labels), codes, counts)
        return matrix

    def _build(self, window, names, origins, dests, counts) -> None:
        origins = np.asarray(origins, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        present = np.zeros(len(names), dtype=bool)
        present[origins] = present[dests] = True
        used = sorted(np.flatnonzero(present).tolist(), key=names.__getitem__)
        rank = np.zeros(len(names), dtype=np.int64)
        rank[used] = np.arange(len(used))
        codes = rank[origins] * len(used) + rank[dests]
        order = np.argsort(codes)
        counts = np.asarray(counts, dtype=np.int64)[order]
        self._assign(window, tuple(names[i] for i in used), codes[order], counts)

    def _assign(self, window, labels, codes, counts) -> None:
        self.window, self.labels, self.codes, self.counts = window, labels, codes, counts
        codes.flags.writeable = counts.flags.writeable = False

    def cells(self) -> Iterator[tuple[tuple[AreaId, AreaId], int]]:
        """``((origin, destination), count)`` per nonzero cell, pairs in sorted order."""
        labels = self.labels
        origins, dests = np.divmod(self.codes, max(1, len(labels)))
        for o, d, count in zip(origins.tolist(), dests.tolist(), self.counts.tolist()):
            yield (labels[o], labels[d]), count

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseOdm):
            return NotImplemented
        return (
            self.window == other.window
            and self.labels == other.labels
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:
        return f"SparseOdm({self.window.date} {self.window.times_key()}, {len(self)} cells)"
