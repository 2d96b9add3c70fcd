"""Seeded input generator for the end-to-end benchmark.

The generator uses numpy only and writes the ingest CSV
(``date,start,end,origin,destination,count``) itself, so no change to
``odmwatch`` (its synthetic generator included) can shift the inputs.

Every workload covers five Mondays: the target date and its four weekly
predecessors, so each window has ``available = 4`` periods of history at
the default ``p = 4``, weekly stride. Random cells use only the first
``areas - RESERVED`` areas. The last ``RESERVED`` areas carry the labelled
anomalies, so an anomaly never collides with a random cell and its
history is controlled: stable counts, then on the target date a spike
(x5) or a drop (to absent) outside the clamped bounds whenever the daily
threshold t is below 380. Random cells far outnumber anomaly cells, so t
stays near the random counts (about 60 to 140 here).
"""

from __future__ import annotations

import datetime as dt
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TARGET = dt.date(2021, 7, 5)  # a Monday
P = 4
DATES = tuple(TARGET - dt.timedelta(days=7 * k) for k in range(P, -1, -1))  # oldest first
SOURCE = "bench"
RESERVED = 8
ROW_CELLS = 10  # cells in each controlled marginal row or column


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    areas: int
    windows: int  # per day
    pool: int  # random cells per window that may appear on a day
    presence: float  # chance that a pool cell appears on a given day
    counts: tuple  # ("uniform", lo, hi) or ("lognormal", median, sigma)
    report_format: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform-daily",
            why=(
                "1 window/day, 1000 areas, 10k stable cells, counts uniform in [45, 165], "
                "all eligible: stresses parse, store read, encode, engine; bypasses the "
                "report path, day rewrite and pool"
            ),
            areas=1000,
            windows=1,
            pool=10_000,
            presence=1.0,
            counts=("uniform", 45, 165),
            report_format="jsonl",
        ),
        Workload(
            name="heavytail-daily",
            why=(
                "1 window/day, 2000 areas, 16k-cell pool, each cell present with p=0.625, "
                "lognormal counts (median 4.5, sigma 1.5): churned union, ~80% below "
                "eligibility, materialize+serialize matter"
            ),
            areas=2000,
            windows=1,
            pool=16_000,
            presence=0.625,
            counts=("lognormal", 4.5, 1.5),
            report_format="jsonl",
        ),
        Workload(
            name="intraday-8w",
            why=(
                "8 windows/day, 500 areas, 500 cells/window, lognormal counts (median 20): "
                "each put_snapshot rewrites the day, reads use the offset index, the "
                "default pool runs, CSV report + .meta.json"
            ),
            areas=500,
            windows=8,
            pool=500,
            presence=1.0,
            counts=("lognormal", 20.0, 1.0),
            report_format="csv",
        ),
    )
}


@dataclass(frozen=True)
class Anomaly:
    """One labelled anomaly the report must show as a ``signal`` row."""

    start: str  # window start, HH:MM:SS
    kind: str  # cell, inbound or outbound
    origin: str | None
    destination: str | None
    direction: str  # upper or lower


@dataclass(frozen=True)
class Inputs:
    files: tuple[Path, ...]  # one CSV per date, oldest first
    input_bytes: int
    anomalies: tuple[Anomaly, ...]
    keys: int  # monitored series of the target date: cells, inbound, outbound
    day_volume: dict[str, int]  # ISO date -> sum of its counts


def label(area: int) -> str:
    return f"A{area:04d}"


def window_times(windows: int) -> list[tuple[str, str]]:
    """Equal division of a day into inclusive ``HH:MM:SS`` windows."""
    bounds = [i * 86400 // windows for i in range(windows)] + [86400]
    hms = lambda s: f"{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}"
    return [(hms(bounds[i]), hms(bounds[i + 1] - 1)) for i in range(windows)]


def _draw(rng: np.random.Generator, counts: tuple, n: int) -> np.ndarray:
    kind, a, b = counts
    if kind == "uniform":
        return rng.integers(a, b + 1, size=n, dtype=np.int64)
    values = np.rint(a * np.exp(b * rng.standard_normal(n)))
    return np.clip(values, 1, 10**7).astype(np.int64)


def _controlled(rng: np.random.Generator, w: Workload) -> list[tuple[np.ndarray, int, int, str, Anomaly]]:
    """The six anomaly groups of one window: (codes, lo, hi, effect, anomaly).

    History counts are uniform in [lo, hi]; on the target date ``effect``
    multiplies them by 5 ("spike") or removes the cells ("drop").
    """
    ordinary = w.areas - RESERVED
    r = [ordinary + i for i in range(RESERVED)]
    row_peers = rng.choice(ordinary, size=(4, ROW_CELLS), replace=False)
    a = w.areas
    return [
        (np.array([r[0] * a + r[1]]), 100, 120, "spike", ("cell", r[0], r[1], "upper")),
        (np.array([r[2] * a + r[3]]), 1000, 1020, "drop", ("cell", r[2], r[3], "lower")),
        (np.sort(r[4] * a + row_peers[0]), 200, 220, "spike", ("outbound", r[4], None, "upper")),
        (np.sort(r[5] * a + row_peers[1]), 200, 220, "drop", ("outbound", r[5], None, "lower")),
        (np.sort(row_peers[2] * a + r[6]), 200, 220, "spike", ("inbound", None, r[6], "upper")),
        (np.sort(row_peers[3] * a + r[7]), 200, 220, "drop", ("inbound", None, r[7], "lower")),
    ]


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write one CSV per date into ``out_dir``; same seed, same bytes."""
    w = workload
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode("utf-8"))])
    ordinary = w.areas - RESERVED
    labels = np.array([label(i) for i in range(w.areas)])
    times = window_times(w.windows)

    # per date, per window: (codes, counts), codes sorted = label order
    days: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in DATES]
    anomalies: list[Anomaly] = []
    keys = 0
    for start, _end in times:
        flat = rng.choice(ordinary * ordinary, size=w.pool, replace=False)
        pool = np.sort(flat // ordinary * w.areas + flat % ordinary)
        groups = _controlled(rng, w)
        for _, _, _, _, (kind, o, d, direction) in groups:
            anomalies.append(
                Anomaly(
                    start,
                    kind,
                    None if o is None else label(o),
                    None if d is None else label(d),
                    direction,
                )
            )
        universe = []
        for day_index, date in enumerate(DATES):
            if w.presence < 1.0:
                codes = pool[rng.random(w.pool) < w.presence]
            else:
                codes = pool
            parts = [(codes, _draw(rng, w.counts, len(codes)))]
            for group_codes, lo, hi, effect, _ in groups:
                values = rng.integers(lo, hi + 1, size=len(group_codes), dtype=np.int64)
                if date == TARGET and effect == "drop":
                    continue
                if date == TARGET:
                    values = values * 5
                parts.append((group_codes, values))
            all_codes = np.concatenate([c for c, _ in parts])
            all_counts = np.concatenate([v for _, v in parts])
            order = np.argsort(all_codes, kind="stable")
            days[day_index].append((all_codes[order], all_counts[order]))
            universe.append(all_codes)
        union = np.unique(np.concatenate(universe))
        keys += len(union) + len(np.unique(union % w.areas)) + len(np.unique(union // w.areas))

    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    input_bytes = 0
    day_volume = {}
    for date, windows in zip(DATES, days):
        chunks = ["date,start,end,origin,destination,count\n"]
        for (start, end), (codes, counts) in zip(times, windows):
            prefix = f"{date.isoformat()},{start},{end},"
            origins = labels[codes // w.areas]
            dests = labels[codes % w.areas]
            chunks.extend(
                f"{prefix}{o},{d},{c}\n"
                for o, d, c in zip(origins.tolist(), dests.tolist(), counts.tolist())
            )
        payload = "".join(chunks).encode("utf-8")
        path = out_dir / f"{date.isoformat()}.csv"
        path.write_bytes(payload)
        files.append(path)
        input_bytes += len(payload)
        day_volume[date.isoformat()] = int(sum(int(c.sum()) for _, c in windows))
    return Inputs(tuple(files), input_bytes, tuple(anomalies), keys, day_volume)
