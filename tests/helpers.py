"""Shared test utilities: single-series and single-window probes of the
detector, dense <-> sparse conversion, randomized store-backed comparison
trials against the dense oracle, and the row-by-row reference report
writers."""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from types import SimpleNamespace
from typing import IO, Iterator

import numpy as np

import dense_oracle
from odmwatch import DetectorConfig, SparseOdm, TimeWindow, _engine, run_window
from odmwatch.detector import (
    _DIRECTION_NAMES,
    _STATUS_NAMES,
    REPORT_COLUMNS,
    _report_header,
    _report_summary,
)
from odmwatch.ingestion import CSV_COLUMNS
from odmwatch.store import HistoryStore

BASE_DATE = dt.date(2021, 6, 7)  # a Monday


def evaluate_cell(history, observed=0, t=None, th=20, mode="clamped"):
    """Engine result for cell (0, 1) of one window.

    ``history`` lists the cell's past values (``None`` = a missing period,
    0 = the cell absent from an available period). When ``t`` is given,
    seven diagonal filler cells of value t make t the day's 0.75 quantile
    whatever ``observed`` is; diagonal cells leave the cell's marginals
    alone. Returns the cell's status, observed, ma, sd, bounds, direction,
    level and inc (``None`` where the engine computes none), plus the day's t.
    """
    fillers = 0 if t is None else 7
    assert t is None or t >= th, "fillers below th could not set t"
    n_areas = 2 + fillers

    def matrix(value, with_fillers=False):
        codes = [1] if value else []
        values = [value] if value else []
        if with_fillers:
            codes += [k * n_areas + k for k in range(2, n_areas)]
            values += [t] * fillers
        return _engine.Columnar(np.array(codes, dtype=np.int64), np.array(values, dtype=np.int64))

    evaluation = _engine.evaluate_window(
        matrix(observed, with_fillers=True),
        [None if v is None else matrix(v) for v in history],
        n_areas,
        th,
        0.75,
        mode,
    )
    assert evaluation.cell_codes[:1].tolist() == [1], "the cell is zero in every period"
    block = evaluation.series  # the cells come first

    def field(name, cast=float):
        values = getattr(block, name)
        return None if values is None else cast(values[0])

    return SimpleNamespace(
        status=_STATUS_NAMES[int(block.status[0])],
        observed=int(block.observed[0]),
        ma=field("ma"),
        sd=field("sd"),
        lower=field("lower"),
        upper=field("upper"),
        direction=field("direction", lambda code: _DIRECTION_NAMES[code]),
        level=field("level", int),
        inc=field("inc"),
        available=evaluation.available,
        t=evaluation.t,
    )


def cell_stats(history):
    """(ma, sd, available) of one cell's history, from the engine.

    The cell's current value is 1 so that it is in the window's universe
    even when every past value is 0.
    """
    result = evaluate_cell(history, observed=1)
    return result.ma, result.sd, result.available


def report_threshold(current: SparseOdm, th: int = 20, q: float = 0.75):
    """The ``run_window`` report of ``current`` against one missing period,
    for its ``t``, ``eligible_count`` and ``degenerate``."""
    config = DetectorConfig(th=th, quantile=q)
    return run_window(current, [None], config)


def row_fields(row: tuple) -> dict:
    """A report row as {column: value}."""
    return dict(zip(REPORT_COLUMNS, row))


def rows_by_series(report) -> dict:
    """A window report's rows as {(kind, origin, destination): {column: value}}."""
    rows = map(row_fields, report.outcomes)
    return {(r["kind"], r["origin"], r["destination"]): r for r in rows}


def series_values(current: SparseOdm, history: list | None = None) -> dict:
    """Every monitored series of a window as
    {(kind, origin, destination): (observed, ma)}.

    Runs ``run_window`` with an eligibility threshold no series reaches, so
    that each series is reported; ma is ``None`` when every period is missing.
    """
    report = run_window(current, history or [None], DetectorConfig(th=2**62))
    return {key: (r["observed"], r["ma"]) for key, r in rows_by_series(report).items()}


def dense_to_sparse(dense: np.ndarray, labels: list[str], window: TimeWindow) -> SparseOdm:
    entries = {}
    n = len(labels)
    for i in range(n):
        for j in range(n):
            v = int(dense[i, j])
            if v > 0:
                entries[(labels[i], labels[j])] = v
    return SparseOdm(window, entries)


def random_labels(rng: np.random.Generator, n: int) -> list[str]:
    # Unsorted on purpose: the production path must sort labels itself.
    prefixes = rng.permutation([f"{c}{i:03d}" for c in "QZKMB" for i in range(n)])
    return [str(p) for p in prefixes[:n]]


def random_dense(
    rng: np.random.Generator, n: int, density: float, vmax: int
) -> np.ndarray:
    mask = rng.random((n, n)) < density
    values = rng.integers(0, vmax + 1, size=(n, n))
    return (mask * values).astype(np.int64)


def compare_report_to_oracle(report, oracle) -> list[str]:
    """Return a list of discrepancies (empty = exact agreement)."""
    problems = []
    if report.t != oracle["t"]:
        problems.append(f"t: {report.t} != {oracle['t']}")
    if report.eligible_count != oracle["eligible_count"]:
        problems.append("eligible_count mismatch")
    if report.degenerate != oracle["degenerate"]:
        problems.append("degenerate flag mismatch")

    expected = oracle["outcomes"]
    expected_flagged = {
        k: v for k, v in expected.items() if v["status"] != "no_signal"
    }
    got = rows_by_series(report)
    if len(got) != len(report.outcomes):
        problems.append(f"{len(report.outcomes) - len(got)} duplicate rows")
    if report.summary["keys"] != len(expected):
        problems.append(
            f"universe size {report.summary['keys']} != {len(expected)}"
        )
    no_signal = sum(1 for v in expected.values() if v["status"] == "no_signal")
    if report.summary["no_signal"] != no_signal:
        problems.append("no_signal count mismatch")

    for key in set(expected_flagged) | set(got):
        want = expected_flagged.get(key)
        have = got.get(key)
        if want is None or have is None:
            problems.append(f"{key}: flagged on one side only ({want=}, {have=})")
            continue
        if have["status"] != want["status"]:
            problems.append(f"{key}: status {have['status']} != {want['status']}")
            continue
        if have["observed"] != want["observed"]:
            problems.append(f"{key}: observed {have['observed']} != {want['observed']}")
        if want["status"] == "missing_data":
            continue
        if have["ma"] != want["ma"] or have["sd"] != want["sd"]:
            problems.append(f"{key}: ma/sd mismatch")
        if want["status"] != "signal":
            continue
        if (
            have["direction"] != want["direction"]
            or have["level"] != want["level"]
            or have["inc_percent"] != want["inc"]
            or have["lower"] != want["lower"]
            or have["upper"] != want["upper"]
        ):
            problems.append(f"{key}: signal fields mismatch {have} != {want}")
    return problems


def run_store_backed_trial(
    rng: np.random.Generator, store_root, trial: int
) -> list[str]:
    """One randomized end-to-end comparison: random matrices through a real
    store and run_window versus the dense oracle."""
    n = int(rng.integers(2, 51))
    p = int(rng.integers(1, 5))
    stride = "weekly" if trial % 2 == 0 else "daily"
    mode = "clamped" if (trial // 2) % 2 == 0 else "paper_literal"
    th = int(rng.choice([0, 5, 20]))
    q = float(rng.choice([0.5, 0.75, 0.9]))
    vmax = int(rng.choice([30, 300, 3000]))
    density = float(rng.choice([0.05, 0.3, 0.8]))
    labels = random_labels(rng, n)

    window = TimeWindow.full_day(BASE_DATE)
    step = 7 if stride == "weekly" else 1
    current_dense = random_dense(rng, n, density, vmax)
    history_dense: list[np.ndarray | None] = []
    for _ in range(p):
        if rng.random() < 0.3:
            history_dense.append(None)
        else:
            history_dense.append(random_dense(rng, n, density, vmax))

    source = f"trial{trial}"
    store = HistoryStore(store_root)
    for k, h in enumerate(history_dense, start=1):
        if h is None:
            continue
        past = TimeWindow.full_day(BASE_DATE - dt.timedelta(days=k * step))
        store.put_snapshot(source, dense_to_sparse(h, labels, past))

    current = dense_to_sparse(current_dense, labels, window)
    history = store.fetch_history(source, window, p, stride)
    report = run_window(current, history, DetectorConfig(th=th, quantile=q, bounds_mode=mode))

    oracle = dense_oracle.evaluate_dense(
        current_dense, history_dense, labels, th, q, mode
    )
    return compare_report_to_oracle(report, oracle)


# -- reference report writers --------------------------------------------

_INC = REPORT_COLUMNS.index("inc_percent")


def reference_rows(report) -> Iterator[tuple]:
    """Every row of a day report, from iterating each window's ``outcomes``;
    a non-finite increment (a flow born from a zero average) becomes
    ``None``, which JSONL writes as null and CSV as an empty field."""
    for window in report.window_reports:
        for row in window.outcomes:
            inc = row[_INC]
            if inc is not None and not math.isfinite(inc):
                row = (*row[:_INC], None, *row[_INC + 1 :])
            yield row


def write_reference_jsonl(report, handle: IO[str]) -> None:
    """The report as ``write_day_report_jsonl`` must write it: one
    ``json.dumps`` of a dict per row."""
    dump = lambda obj: json.dumps(obj, separators=(",", ":"), allow_nan=False)
    handle.write(dump(_report_header(report)) + "\n")
    for row in reference_rows(report):
        handle.write(dump(dict(zip(REPORT_COLUMNS, row))) + "\n")
    handle.write(dump(_report_summary(report)) + "\n")


class _LineFeedRows:
    """A file for ``csv.writer(lineterminator="\\r\\n")`` that ends each row
    in ``\\n``: the writer quotes the characters of its line terminator, so a
    field holding ``\\r`` or ``\\n`` is quoted and every row reads back whole."""

    def __init__(self, handle: IO[str]) -> None:
        self.handle = handle

    def write(self, line: str) -> None:
        self.handle.write(line[:-2] + "\n")


def write_reference_csv(report, handle: IO[str]) -> None:
    """The outcome table as ``write_day_report_csv`` must write it: a
    ``csv.writer`` over the iterated rows."""
    writer = csv.writer(_LineFeedRows(handle), lineterminator="\r\n")
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(reference_rows(report))


def write_reference_snapshots_csv(snapshots, handle: IO[str]) -> None:
    """Snapshots as ``write_snapshots_csv`` must write them: a ``csv.writer``
    over the ``(date, start, end, origin, destination, str(count))`` rows of
    each window, in window order and then in cell order."""
    writer = csv.writer(_LineFeedRows(handle), lineterminator="\r\n")
    writer.writerow(CSV_COLUMNS)
    for snapshot in sorted(snapshots, key=lambda m: m.window):
        w = snapshot.window
        times = (w.date.isoformat(), w.start.isoformat(), w.end.isoformat())
        writer.writerows((*times, *pair, str(count)) for pair, count in snapshot.cells())
