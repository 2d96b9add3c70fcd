"""Synthetic ODM histories with labelled injected anomalies.

Cell baselines are drawn once per cell, uniformly in [0.5, 1.5] times the
requested mean volume, and stay fixed across dates; each date's value is
round(base * weekday_factor * (1 + jitter)) with jitter uniform in
[-noise, +noise]. Anomalies multiply the rounded clean count of the target
cell (or of every off-diagonal cell of a marginal's row/column) in one
window, so ground truth stays computable in closed form.

Not a realistic mobility simulator; the output exists to give detector
tests and benchmarks a known answer.
"""

from __future__ import annotations

import datetime as dt
import json
from array import array
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import STRIDE_DAYS, DetectorConfig, SparseOdm, TimeWindow
from .ingestion import canonical_windows, write_snapshots_csv


class SynthSpecError(ValueError):
    """Invalid synthetic-data specification."""


class _AnomalySpec(NamedTuple):
    kind: str
    origin: str | None
    destination: str | None
    window: TimeWindow
    anomaly: str
    magnitude: float


class AnomalySpec(_AnomalySpec):
    """One injected anomaly: a series, a window, and a multiplicative factor.

    The series is a cell (``kind="cell"``, origin and destination) or a
    diagonal-excluded marginal (``"inbound"`` with only a destination,
    ``"outbound"`` with only an origin), as in the report rows. ``anomaly``
    is ``"spike"`` or ``"drop"``, as in the ground-truth labels.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AnomalySpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == "cell":
            if not self.origin or not self.destination:
                raise SynthSpecError("cell key needs origin and destination")
        elif self.kind == "inbound":
            if not self.destination or self.origin is not None:
                raise SynthSpecError("inbound key needs only a destination")
        elif self.kind == "outbound":
            if not self.origin or self.destination is not None:
                raise SynthSpecError("outbound key needs only an origin")
        else:
            raise SynthSpecError(f"unknown flow-key kind {self.kind!r}")
        if self.anomaly == "spike":
            if self.magnitude <= 1.0:
                raise SynthSpecError("spike magnitude must be > 1")
        elif self.anomaly == "drop":
            if not 0.0 <= self.magnitude < 1.0:
                raise SynthSpecError("drop magnitude must be in [0, 1)")
        else:
            raise SynthSpecError(f"anomaly kind must be spike or drop, got {self.anomaly!r}")
        return self


class _SynthSpec(NamedTuple):
    n_areas: int
    density: float
    base_volume: float
    noise: float = 0.0
    seed: int = 0
    windows_per_day: int = 1
    weekday_factors: tuple[float, ...] | None = None
    anomalies: tuple[AnomalySpec, ...] = ()


class SynthSpec(_SynthSpec):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SynthSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.n_areas < 1:
            raise SynthSpecError("n_areas must be >= 1")
        if not 0.0 < self.density <= 1.0:
            raise SynthSpecError("density must be in (0, 1]")
        if self.base_volume <= 0:
            raise SynthSpecError("base_volume must be positive")
        if not 0.0 <= self.noise < 1.0:
            raise SynthSpecError("noise must be in [0, 1)")
        if self.windows_per_day < 1:
            raise SynthSpecError("windows_per_day must be >= 1")
        if self.weekday_factors is not None:
            if len(self.weekday_factors) != 7 or any(f <= 0 for f in self.weekday_factors):
                raise SynthSpecError("weekday_factors must be 7 positive numbers")
        return self

    def area_labels(self) -> list[str]:
        width = len(str(self.n_areas - 1)) if self.n_areas > 1 else 1
        return [f"A{i:0{width}d}" for i in range(self.n_areas)]

    def weekday_factor(self, date: dt.date) -> float:
        return 1.0 if self.weekday_factors is None else self.weekday_factors[date.weekday()]


def sample_distinct_codes(rng: np.random.Generator, space: int, k: int) -> np.ndarray:
    """k distinct int64 codes from [0, space), sorted ascending.

    Small spaces use a plain no-replacement draw; sparse large spaces
    oversample, deduplicate and subsample to avoid materializing the
    whole population.
    """
    if k > space:
        raise ValueError(f"cannot draw {k} distinct codes from a space of {space}")
    if space <= 4_000_000:
        return np.sort(rng.choice(space, size=k, replace=False).astype(np.int64))
    draw = int(k * 1.05) + 16
    codes = _distinct(rng.integers(0, space, size=draw, dtype=np.int64))
    while len(codes) < k:
        extra = rng.integers(0, space, size=draw, dtype=np.int64)
        codes = _distinct(np.concatenate([codes, extra]))
    pick = rng.choice(len(codes), size=k, replace=False)
    return np.sort(codes[pick])


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, ascending: a sort, then the first
    of each run of equal values (``np.unique`` is far slower on int64)."""
    codes = np.sort(codes)
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


def _choose_cells(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fixed cell set and per-cell baselines, both functions of the seed."""
    rng = np.random.default_rng([spec.seed, 1])
    space = spec.n_areas * spec.n_areas
    n_cells = max(1, round(spec.density * space))
    codes = sample_distinct_codes(rng, space, n_cells)
    bases = spec.base_volume * rng.uniform(0.5, 1.5, size=n_cells)
    return codes, bases


def _anomaly_mask(
    anomaly: AnomalySpec, origins: np.ndarray, dests: np.ndarray, label_ids: dict[str, int]
) -> np.ndarray:
    if anomaly.kind == "cell":
        return (origins == label_ids[anomaly.origin]) & (dests == label_ids[anomaly.destination])
    if anomaly.kind == "inbound":
        j = label_ids[anomaly.destination]
        return (dests == j) & (origins != j)
    i = label_ids[anomaly.origin]
    return (origins == i) & (dests != i)


def generate(
    spec: SynthSpec,
    start: dt.date,
    days: int,
    warmup_days: int,
) -> tuple[list[SparseOdm], list[dict]]:
    """All snapshots for [start, start+days) plus the injected-anomaly labels.

    Anomalies must not fall inside the first ``warmup_days`` days; the
    warm-up exists so that every later date has a full rolling history.
    """
    if days < 1:
        raise SynthSpecError("days must be >= 1")
    labels = spec.area_labels()
    label_ids = {label: i for i, label in enumerate(labels)}
    codes, bases = _choose_cells(spec)
    origins = codes // spec.n_areas
    dests = codes - origins * spec.n_areas

    window_times = [
        (w.start, w.end) for w in canonical_windows(start, spec.windows_per_day)
    ]
    first_target = start + dt.timedelta(days=warmup_days)
    end = start + dt.timedelta(days=days)
    valid_windows = {
        (d, times[0], times[1])
        for d in (start + dt.timedelta(days=k) for k in range(days))
        for times in window_times
    }
    for anomaly in spec.anomalies:
        w = anomaly.window
        if (w.date, w.start, w.end) not in valid_windows:
            raise SynthSpecError(
                f"anomaly window {w.date} {w.times_key()} is not generated "
                f"(range {start}..{end - dt.timedelta(days=1)}, "
                f"{spec.windows_per_day} windows/day)"
            )
        if w.date < first_target:
            raise SynthSpecError(
                f"anomaly on {w.date} falls inside the {warmup_days}-day warm-up"
            )
        mask = _anomaly_mask(anomaly, origins, dests, label_ids)
        if not mask.any():
            raise SynthSpecError(
                f"anomaly target {anomaly.kind} {anomaly.origin}->{anomaly.destination} "
                "has no generated cells"
            )

    snapshots: list[SparseOdm] = []
    ground_truth: list[dict] = []
    for day_offset in range(days):
        date = start + dt.timedelta(days=day_offset)
        factor = spec.weekday_factor(date)
        for window_idx, (w_start, w_end) in enumerate(window_times):
            window = TimeWindow(date, w_start, w_end)
            if spec.noise > 0.0:
                rng = np.random.default_rng(
                    [spec.seed, 2, date.toordinal(), window_idx]
                )
                jitter = rng.uniform(-spec.noise, spec.noise, size=len(codes))
            else:
                jitter = 0.0
            counts = np.rint(bases * factor * (1.0 + jitter)).astype(np.int64)
            np.maximum(counts, 0, out=counts)
            for anomaly in spec.anomalies:
                if anomaly.window != window:
                    continue
                mask = _anomaly_mask(anomaly, origins, dests, label_ids)
                counts[mask] = np.rint(
                    counts[mask].astype(np.float64) * anomaly.magnitude
                ).astype(np.int64)
            keep = counts > 0
            snapshots.append(
                SparseOdm.from_ids(
                    window,
                    labels,
                    origins[keep].tolist(),
                    dests[keep].tolist(),
                    array("q", counts[keep].tolist()),
                )
            )

    for anomaly in spec.anomalies:
        ground_truth.append(
            {
                "kind": anomaly.kind,
                "origin": anomaly.origin,
                "destination": anomaly.destination,
                "date": anomaly.window.date.isoformat(),
                "start": anomaly.window.start.isoformat(),
                "end": anomaly.window.end.isoformat(),
                "anomaly": anomaly.anomaly,
                "magnitude": anomaly.magnitude,
            }
        )
    return snapshots, ground_truth


def write_generated(
    out_dir: str | Path, snapshots: list[SparseOdm], ground_truth: list[dict]
) -> None:
    """One ingestion-format CSV per date plus a labels.json ground-truth file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_date: dict[dt.date, list[SparseOdm]] = {}
    for snapshot in snapshots:
        by_date.setdefault(snapshot.window.date, []).append(snapshot)
    for date, day in sorted(by_date.items()):
        with open(out_dir / f"{date.isoformat()}.csv", "w", encoding="utf-8", newline="") as handle:
            write_snapshots_csv(day, handle)
    (out_dir / "labels.json").write_text(
        json.dumps(ground_truth, indent=2) + "\n", encoding="utf-8"
    )


_ANOMALY_KEYS = {"kind", "origin", "destination", "date", "start", "end", "anomaly", "magnitude"}


def _known_keys(entry: dict, keys: set[str], what: str) -> None:
    """Raise ``ValueError`` naming the first key of ``entry`` not in ``keys``,
    or when ``entry`` is not a JSON object."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} is not a JSON object")
    unknown = sorted(set(entry) - keys)
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


def _parse_anomaly(entry: dict, windows_per_day: int) -> AnomalySpec:
    _known_keys(entry, _ANOMALY_KEYS, "anomaly")
    kind = entry.get("kind", "cell")
    if kind not in ("cell", "inbound", "outbound"):
        raise SynthSpecError(f"anomaly key kind {kind!r} unknown")
    origin = None if kind == "inbound" else entry["origin"]
    destination = None if kind == "outbound" else entry["destination"]
    date = dt.date.fromisoformat(entry["date"])
    if "start" in entry or "end" in entry:
        start = dt.time.fromisoformat(entry["start"])
        end = dt.time.fromisoformat(entry["end"])
        window = TimeWindow(date, start, end)
    elif windows_per_day == 1:
        window = TimeWindow.full_day(date)
    else:
        raise SynthSpecError(
            "anomaly needs explicit start/end when windows_per_day > 1"
        )
    return AnomalySpec(
        kind=kind,
        origin=origin,
        destination=destination,
        window=window,
        anomaly=entry["anomaly"],
        magnitude=float(entry["magnitude"]),
    )


def load_spec_file(path: str | Path) -> tuple[SynthSpec, dt.date, int, int]:
    """Parse a generation spec JSON file.

    Returns (spec, start_date, days, warmup_days). ``warmup`` may be given
    as explicit days or as {"p": ..., "stride": ...}, a ``STRIDE_DAYS`` name;
    either key left out takes the ``DetectorConfig`` default.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SynthSpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        _known_keys(data, {*SynthSpec._fields, "start_date", "days", "warmup"}, "spec")
        windows_per_day = int(data.get("windows_per_day", 1))
        factors = data.get("weekday_factors")
        spec = SynthSpec(
            n_areas=int(data["n_areas"]),
            density=float(data["density"]),
            base_volume=float(data["base_volume"]),
            noise=float(data.get("noise", 0.0)),
            seed=int(data.get("seed", 0)),
            windows_per_day=windows_per_day,
            weekday_factors=tuple(float(f) for f in factors) if factors else None,
            anomalies=tuple(
                _parse_anomaly(entry, windows_per_day)
                for entry in data.get("anomalies", [])
            ),
        )
        start = dt.date.fromisoformat(data["start_date"])
        days = int(data["days"])
        warmup = data.get("warmup", {})
        if isinstance(warmup, dict):
            _known_keys(warmup, {"p", "stride"}, "warmup")
            defaults = DetectorConfig()
            stride = warmup.get("stride", defaults.stride)
            if stride not in STRIDE_DAYS:
                allowed = sorted(STRIDE_DAYS)
                raise ValueError(f"warmup stride must be one of {allowed}, got {stride!r}")
            warmup_days = int(warmup.get("p", defaults.p)) * STRIDE_DAYS[stride]
        else:
            warmup_days = int(warmup)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SynthSpecError):
            raise
        raise SynthSpecError(f"bad spec file {path}: {exc}") from exc
    return spec, start, days, warmup_days
