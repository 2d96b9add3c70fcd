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
from types import MappingProxyType
from typing import Iterable, Mapping

# Area labels are opaque strings; the label set is discovered from data.
AreaId = str

FULL_DAY_START = dt.time(0, 0, 0)
FULL_DAY_END = dt.time(23, 59, 59)

# Counts are stored and evaluated as int64.
MAX_COUNT = 2**63 - 1


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

    def shifted(self, days: int) -> "TimeWindow":
        """Same time-of-day window on another date."""
        return TimeWindow(self.date + dt.timedelta(days=days), self.start, self.end)

    def times_key(self) -> str:
        return f"{self.start.isoformat()}-{self.end.isoformat()}"


@dataclass(frozen=True)
class FlowKey:
    """One monitored series: a single cell or a diagonal-excluded marginal.

    ``kind`` is one of ``"cell"``, ``"inbound"`` or ``"outbound"``. Marginal
    keys always denote the diagonal-excluded sums.
    """

    kind: str
    origin: AreaId | None = None
    destination: AreaId | None = None

    def __post_init__(self) -> None:
        if self.kind == "cell":
            if not self.origin or not self.destination:
                raise ValueError("cell key needs origin and destination")
        elif self.kind == "inbound":
            if not self.destination or self.origin is not None:
                raise ValueError("inbound key needs only a destination")
        elif self.kind == "outbound":
            if not self.origin or self.destination is not None:
                raise ValueError("outbound key needs only an origin")
        else:
            raise ValueError(f"unknown flow-key kind {self.kind!r}")

    @classmethod
    def cell(cls, origin: AreaId, destination: AreaId) -> "FlowKey":
        return cls("cell", origin, destination)

    @classmethod
    def inbound(cls, destination: AreaId) -> "FlowKey":
        return cls("inbound", destination=destination)

    @classmethod
    def outbound(cls, origin: AreaId) -> "FlowKey":
        return cls("outbound", origin=origin)


def _validate_label(label: AreaId) -> None:
    if not isinstance(label, str) or not label:
        raise ValueError(f"area label must be a non-empty string, got {label!r}")


class SparseOdm:
    """Immutable sparse ODM snapshot for one time window.

    Counts are nonnegative integers; zero counts are dropped on
    construction so that "absent" and "zero" stay interchangeable.
    """

    __slots__ = ("window", "_entries")

    def __init__(
        self,
        window: TimeWindow,
        entries: Mapping[tuple[AreaId, AreaId], int] | Iterable[tuple[tuple[AreaId, AreaId], int]],
    ) -> None:
        self.window = window
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[tuple[AreaId, AreaId], int] = {}
        for (origin, destination), count in items:
            _validate_label(origin)
            _validate_label(destination)
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"count for ({origin}, {destination}) must be an integer")
            if count < 0:
                raise ValueError(f"negative count {count} for ({origin}, {destination})")
            if count > MAX_COUNT:
                raise ValueError(
                    f"count {count} for ({origin}, {destination}) exceeds the int64 "
                    f"limit {MAX_COUNT}"
                )
            if (origin, destination) in store:
                raise ValueError(f"duplicate cell ({origin}, {destination})")
            if count > 0:
                store[(origin, destination)] = count
        self._entries = store

    @property
    def entries(self) -> Mapping[tuple[AreaId, AreaId], int]:
        return MappingProxyType(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseOdm):
            return NotImplemented
        return self.window == other.window and self._entries == other._entries

    def __repr__(self) -> str:
        return f"SparseOdm({self.window.date} {self.window.times_key()}, {len(self)} cells)"

    def cell_value(self, origin: AreaId, destination: AreaId) -> int:
        """Stored count for (origin, destination), 0 when absent."""
        return self._entries.get((origin, destination), 0)

    def mass(self) -> int:
        """Sum of all stored counts, diagonal included."""
        return sum(self._entries.values())

    def areas(self) -> set[AreaId]:
        out: set[AreaId] = set()
        for o, d in self._entries:
            out.add(o)
            out.add(d)
        return out
