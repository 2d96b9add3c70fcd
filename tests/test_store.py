import datetime as dt
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odmwatch
from odmwatch import DetectorConfig, HistoryStore, SparseOdm, TimeWindow, detect_day
from odmwatch import ingestion
from odmwatch import store as store_module
from odmwatch.cli import main
from odmwatch.ingestion import SourceProfile, canonical_windows, parse_rows, write_snapshots_csv
from odmwatch.store import StoreError, history_dates, retention_for

MONDAY = dt.date(2021, 6, 7)
TUESDAY = MONDAY + dt.timedelta(days=1)
HEADER = b"date,start,end,origin,destination,count\n"


@pytest.fixture
def store(tmp_path):
    return HistoryStore(tmp_path / "store")


def snap(date, entries, start=None, end=None):
    if start is None:
        window = TimeWindow.full_day(date)
    else:
        window = TimeWindow(date, start, end)
    return SparseOdm(window, entries)


def test_put_get_round_trip(store):
    m = snap(MONDAY, {("A", "B"): 10, ("B", "B"): 900_000_000_000})
    store.put_snapshot("src", m)
    assert store.get_snapshot("src", m.window) == m


def test_the_three_forms_of_one_window_agree(store, tmp_path):
    """A window parsed (array-backed), read back (bytes-backed) and wrapped
    from numpy columns is one value in one read-only ``q`` form."""
    path = tmp_path / "day.csv"
    path.write_bytes(
        HEADER + b"2021-06-07,00:00:00,23:59:59,C,A,7\n"
        b"2021-06-07,00:00:00,23:59:59,A,C,900000000000\n"
        b"2021-06-07,00:00:00,23:59:59,B,B,3\n"
        b"2021-06-07,00:00:00,23:59:59,A,B,0\n"
    )
    [parsed] = ingestion.parse_file(path)
    store.put_snapshot("src", parsed)
    stored = store.get_snapshot("src", parsed.window)
    wrapped = SparseOdm.from_columns(
        parsed.window,
        parsed.labels,
        np.array(parsed.codes.tolist(), dtype=np.int64),
        np.array(parsed.counts.tolist(), dtype=np.int64),
    )
    assert parsed == stored == wrapped
    cells = {("A", "C"): 900_000_000_000, ("B", "B"): 3, ("C", "A"): 7}
    for m in (parsed, stored, wrapped):
        assert dict(m.cells()) == cells and list(m.cells()) == sorted(cells.items())
        assert len(m) == 3
        assert m.codes.format == m.counts.format == "q"
        for column in (m.codes, m.counts):
            array = np.frombuffer(column, np.int64)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
    assert np.frombuffer(stored.codes, np.int64).tolist() == [2, 4, 6]
    with pytest.raises(TypeError, match="int64"):
        SparseOdm.from_columns(parsed.window, parsed.labels, np.int32([2, 4, 6]), parsed.counts)


def test_overwrite_keeps_second_value(store):
    w = TimeWindow.full_day(MONDAY)
    store.put_snapshot("src", SparseOdm(w, {("A", "B"): 1}))
    store.put_snapshot("src", SparseOdm(w, {("A", "B"): 2}))
    assert dict(store.get_snapshot("src", w).cells()) == {("A", "B"): 2}


def test_unknown_key_is_missing(store):
    assert store.get_snapshot("src", TimeWindow.full_day(MONDAY)) is None


def test_empty_snapshot_round_trips(store):
    w = TimeWindow.full_day(MONDAY)
    store.put_snapshot("src", SparseOdm(w, {}))
    got = store.get_snapshot("src", w)
    assert got is not None and len(got) == 0
    assert store.windows_for("src", MONDAY) == [w]


def test_multiple_windows_same_day(store):
    first = snap(MONDAY, {("A", "B"): 1}, dt.time(0, 0, 0), dt.time(11, 59, 59))
    second = snap(MONDAY, {("A", "B"): 2}, dt.time(12, 0, 0), dt.time(23, 59, 59))
    store.put_snapshot("src", second)
    store.put_snapshot("src", first)
    assert store.windows_for("src", MONDAY) == [first.window, second.window]
    assert store.get_snapshot("src", first.window) == first
    assert store.get_snapshot("src", second.window) == second


def test_fetch_history_weekly_complete(store):
    m = snap(MONDAY, {("A", "B"): 5})
    for k in range(1, 5):
        store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=7 * k), {("A", "B"): k}))
    history = store.fetch_history("src", m.window, p=4, stride="weekly")
    assert len(history) == 4
    assert sum(s is not None for s in history) == 4
    assert [dict(s.cells())[("A", "B")] for s in history] == [1, 2, 3, 4]
    assert all(s.window.date.weekday() == MONDAY.weekday() for s in history)


def test_fetch_history_partial(store):
    m = snap(MONDAY, {("A", "B"): 5})
    store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=7), {("A", "B"): 1}))
    store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=21), {("A", "B"): 3}))
    history = store.fetch_history("src", m.window, p=4, stride="weekly")
    assert sum(s is not None for s in history) == 2
    assert history[1] is None and history[3] is None


def test_fetch_history_all_missing(store):
    history = store.fetch_history("src", TimeWindow.full_day(MONDAY), p=4, stride="weekly")
    assert history == [None] * 4


def test_fetch_history_daily_stride(store):
    m = snap(MONDAY, {("A", "B"): 5})
    for k in range(1, 4):
        store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=k), {("A", "B"): k}))
    history = store.fetch_history("src", m.window, p=3, stride="daily")
    assert [dict(s.cells())[("A", "B")] for s in history] == [1, 2, 3]
    assert [s.window.date for s in history] == [MONDAY - dt.timedelta(days=k) for k in (1, 2, 3)]


def test_fetch_history_matches_window_times(store):
    morning = snap(MONDAY, {("A", "B"): 1}, dt.time(0, 0, 0), dt.time(11, 59, 59))
    past_evening = snap(
        MONDAY - dt.timedelta(days=7),
        {("A", "B"): 9},
        dt.time(12, 0, 0),
        dt.time(23, 59, 59),
    )
    store.put_snapshot("src", past_evening)
    history = store.fetch_history("src", morning.window, p=1, stride="weekly")
    assert history == [None]  # same date but different window times


def test_history_dates():
    assert history_dates(MONDAY, 2, "weekly") == [dt.date(2021, 5, 31), dt.date(2021, 5, 24)]
    assert history_dates(MONDAY, 2, "daily") == [dt.date(2021, 6, 6), dt.date(2021, 6, 5)]


@pytest.mark.parametrize(
    "p,stride,message",
    [
        (0, "weekly", "p must be >= 1"),
        (1, "monthly", "stride must be one of ['daily', 'weekly']"),
    ],
)
def test_history_dates_rejects_bad_arguments(store, p, stride, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        history_dates(MONDAY, p, stride)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        store.fetch_history("src", TimeWindow.full_day(MONDAY), p, stride)


def test_profile_round_trip(store):
    profile = SourceProfile("src", expected_windows_per_day=24)
    store.put_profile(profile)
    assert store.get_profile("src") == profile
    assert store.get_profile("other") is None
    stored = json.loads((store.root / "src" / "profile.json").read_text(encoding="utf-8"))
    assert stored == {"source_id": "src", "expected_windows_per_day": 24}


def test_reingest_with_the_same_profile_leaves_profile_json_alone(tmp_path):
    day = tmp_path / "day.csv"
    day.write_bytes(HEADER + f"{MONDAY},00:00:00,23:59:59,A,B,5\n".encode())
    root = tmp_path / "store"
    path = root / "src" / "profile.json"

    def ingest(expected_windows):
        argv = ["ingest", str(day), "--source", "src", "--store-root", str(root)]
        return main([*argv, "--expected-windows", str(expected_windows)])

    assert ingest(1) == 0
    first = path.stat()
    assert ingest(1) == 0
    again = path.stat()
    assert (again.st_ino, again.st_mtime_ns) == (first.st_ino, first.st_mtime_ns)
    assert ingest(2) == 2  # stored, but one of two windows is missing
    changed = path.stat()
    assert changed.st_ino != first.st_ino
    assert HistoryStore(root).get_profile("src") == SourceProfile("src", expected_windows_per_day=2)
    assert [p.name for p in path.parent.iterdir() if p.name.startswith(".")] == []


def test_profile_with_retired_key_still_loads(store):
    # Profiles once also stored has_diagonal_as_stayers; nothing reads it.
    path = store.root / "src" / "profile.json"
    path.parent.mkdir(parents=True)
    path.write_text(
        '{"source_id":"src","expected_windows_per_day":24,"has_diagonal_as_stayers":false}',
        encoding="utf-8",
    )
    assert store.get_profile("src") == SourceProfile("src", expected_windows_per_day=24)


@pytest.mark.parametrize(
    "content,reason",
    [
        ("{", "Expecting property name"),
        ('{"source_id": "src"}', "missing key 'expected_windows_per_day'"),
        ("[]", "list indices"),
        ('{"source_id": "src", "expected_windows_per_day": 0}', "must be an integer >= 1"),
        ('{"source_id": "src", "expected_windows_per_day": "24"}', "must be an integer >= 1"),
    ],
    ids=["truncated", "missing-key", "not-an-object", "zero-windows", "string-windows"],
)
def test_corrupt_profile_raises_store_error(store, content, reason):
    path = store.root / "src" / "profile.json"
    path.parent.mkdir(parents=True)
    path.write_text(content, encoding="utf-8")
    with pytest.raises(StoreError) as excinfo:
        store.get_profile("src")
    assert str(path) in str(excinfo.value)
    assert reason in str(excinfo.value)


def test_retention_prunes_old_days(store):
    store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=30), {("A", "B"): 1}))
    assert store.prune("src", 10) == []
    store.put_snapshot("src", snap(MONDAY, {("A", "B"): 2}))
    assert store.prune("src", 10) == [MONDAY - dt.timedelta(days=30)]
    assert store.dates_for("src") == [MONDAY]


def test_retention_keeps_window(store):
    old = MONDAY - dt.timedelta(days=28)
    store.put_snapshot("src", snap(old, {("A", "B"): 1}))
    store.put_snapshot("src", snap(MONDAY, {("A", "B"): 2}))
    assert store.prune("src", 35) == []
    assert store.dates_for("src") == [old, MONDAY]


def test_prune_of_a_source_without_dates(store):
    assert store.prune("src", 35) == []  # no source directory
    store.put_profile(SourceProfile("src", expected_windows_per_day=1))
    assert store.prune("src", 35) == []
    assert [p.name for p in (store.root / "src").iterdir()] == ["profile.json"]


def test_retention_default_policy():
    assert retention_for(4, "weekly") == 35
    assert retention_for(4, "daily") == 35
    assert retention_for(6, "weekly") == 42


def test_windows_for_parses_no_file(store, monkeypatch):
    # The store reads its own binary date files; CSV is the ingest format only.
    morning = snap(MONDAY, {("A", "B"): 1}, dt.time(0, 0, 0), dt.time(7, 59, 59))
    noon = snap(MONDAY, {}, dt.time(8, 0, 0), dt.time(15, 59, 59))
    evening = snap(MONDAY, {("B", "A"): 2}, dt.time(16, 0, 0), dt.time(23, 59, 59))
    for m in (evening, noon, morning):
        store.put_snapshot("src", m)
    digest = store.day_digest("src", MONDAY)

    def no_parse(*args):
        raise AssertionError("the store parsed or wrote CSV while reading")

    assert not hasattr(store_module, "parse_rows")
    with monkeypatch.context() as patch:
        for name in ("parse_rows", "iter_csv_rows", "window_csv"):
            patch.setattr(ingestion, name, no_parse)
        assert store.windows_for("src", MONDAY) == [morning.window, noon.window, evening.window]
        assert store.dates_for("src") == [MONDAY]
        assert store.day_digest("src", MONDAY) == digest
        for m in (morning, noon, evening):
            assert store.get_snapshot("src", m.window) == m
        tuesday_noon = TimeWindow(TUESDAY, noon.window.start, noon.window.end)
        assert store.fetch_history("src", tuesday_noon, 1, "daily") == [noon]


def read_date_file(path):
    """(header, codes and counts of each window) of a date file, decoded by hand."""
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline].decode("utf-8"))
    arrays = np.frombuffer(data, dtype="<i8", offset=newline + 1)
    columns, start = [], 0
    for window in header["windows"]:
        n = window["cells"]
        codes, counts = arrays[start : start + n], arrays[start + n : start + 2 * n]
        columns.append((codes.tolist(), counts.tolist()))
        start += 2 * n
    return header, columns, newline + 1


def test_window_file_layout(store):
    m = snap(
        MONDAY, {("B", "A"): 2, ("A", "B"): 1, ("C", "A"): 3}, dt.time(8, 0, 0), dt.time(15, 59, 59)
    )
    zero = snap(MONDAY, {}, dt.time(16, 0, 0), dt.time(23, 59, 59))
    store.put_snapshot("src", zero, m)
    directory = store.root / "src"
    assert sorted(p.name for p in directory.iterdir()) == [f"{MONDAY}.odm"]
    header, columns, offset = read_date_file(directory / f"{MONDAY}.odm")
    data = (directory / f"{MONDAY}.odm").read_bytes()
    assert header == {
        "format": 1,
        "date": MONDAY.isoformat(),
        "windows": [
            {"start": "08:00:00", "end": "15:59:59", "labels": ["A", "B", "C"], "cells": 3},
            {"start": "16:00:00", "end": "23:59:59", "labels": [], "cells": 0},
        ],
        "sha256": hashlib.sha256(data[offset:]).hexdigest(),
        "csv_sha256": day_digest_by_definition([m, zero]),
    }
    # A-B, B-A, C-A with A, B, C ranked 0, 1, 2 out of 3.
    assert columns == [([1, 3, 6], [1, 2, 3]), ([], [])]
    assert offset % 8 == 0 and data[:offset].isascii()


def test_day_digest_hashes_the_day_as_one_csv(store):
    day = [
        snap(MONDAY, {("A", "B"): 1, ("B", "A"): 7}, dt.time(0, 0, 0), dt.time(7, 59, 59)),
        snap(MONDAY, {}, dt.time(8, 0, 0), dt.time(15, 59, 59)),
        snap(MONDAY, {("é", "東"): 2}, dt.time(16, 0, 0), dt.time(23, 59, 59)),
    ]
    for m in reversed(day):
        store.put_snapshot("src", m)
    one_csv = io.StringIO()
    write_snapshots_csv(day, one_csv)
    expected = hashlib.sha256(one_csv.getvalue().encode("utf-8")).hexdigest()
    assert store.day_digest("src", MONDAY) == expected


def day_digest_by_definition(snapshots):
    """The audit digest's definition: SHA-256 of the date's windows written
    as one ingestion-format CSV, in (start, end) order."""
    one_csv = io.StringIO()
    write_snapshots_csv(snapshots, one_csv)
    return hashlib.sha256(one_csv.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", range(6))
def test_day_digest_matches_its_definition_after_reingests(tmp_path, seed):
    rng = np.random.default_rng(seed)
    store = HistoryStore(tmp_path / "store")
    slots = [(dt.time(3 * k, 0, 0), dt.time(3 * k + 2, 59, 59)) for k in range(8)]
    dates = [MONDAY - dt.timedelta(days=k) for k in range(3)]
    expected: dict[dt.date, dict[TimeWindow, SparseOdm]] = {d: {} for d in dates}
    for _ in range(6):
        date = dates[int(rng.integers(len(dates)))]
        chosen = rng.choice(len(slots), size=int(rng.integers(1, 9)), replace=True)
        puts = []
        for k in chosen.tolist():
            n_cells = int(rng.choice([0, 1, 5, 40]))
            cells = {
                (f"a{int(o)}", f"b{int(d)}" if rng.random() < 0.5 else f"a{int(d)}"): int(c)
                for o, d, c in rng.integers(0, 12, size=(n_cells, 3))
            }
            puts.append(SparseOdm(TimeWindow(date, *slots[k]), cells))
        store.put_snapshot("src", *puts)
        expected[date].update((m.window, m) for m in puts)  # the later one wins
        for d in dates:
            want = [expected[d][w] for w in sorted(expected[d])]
            got = [store.get_snapshot("src", w) for w in store.windows_for("src", d)]
            assert got == want
            digest = store.day_digest("src", d)
            assert digest == (day_digest_by_definition(got) if got else None)


def rewritten(edit_header=lambda header: None, codes=None, counts=None):
    """A corruption that edits the decoded header or arrays of a one-window
    date file and re-signs the arrays, so a check after the hash must fire."""

    def corrupt(data):
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        arrays = np.frombuffer(data, dtype="<i8", offset=newline + 1).copy()
        n = header["windows"][0]["cells"]
        if codes is not None:
            arrays[:n] = codes
        if counts is not None:
            arrays[n:] = counts
        edit_header(header)
        payload = arrays.astype("<i8").tobytes()
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        return json.dumps(header).encode("utf-8") + b"\n" + payload

    return corrupt


def edit_window(**fields):
    return rewritten(lambda header: header["windows"][0].update(fields))


@pytest.mark.parametrize(
    "corrupt,reason,every_read",
    [
        (lambda data: b"", "bad header", True),
        (lambda data: b"{" + data[data.index(b"\n") :], "bad header", True),
        (lambda data: b"\xff" + data, "utf-8", True),
        (rewritten(lambda header: header.pop("windows")), "bad header shape", True),
        (rewritten(lambda header: header.update(format=2)), "bad header shape", True),
        (rewritten(lambda header: header.update(date="2021-06-08")), "'2021-06-08'", True),
        (edit_window(start="00:00"), "bad time '00:00'", True),
        (
            rewritten(lambda header: header["windows"].append(header["windows"][0])),
            "(start, end) order",
            True,
        ),
        (lambda data: data.replace(b'"sha256":', b'"sha256":7,"was":', 1), "not strings", True),
        (edit_window(cells=-2), "bad cells or labels", True),
        (edit_window(labels=["B", "A"]), "labels not sorted, unique and non-empty", False),
        (edit_window(labels=["A", "A"]), "labels not sorted, unique and non-empty", False),
        (edit_window(labels=["", "B"]), "labels not sorted, unique and non-empty", False),
        (edit_window(labels=["A", 7]), "labels not sorted, unique and non-empty", False),
        (lambda data: data[:-8], "array section has", True),
        (lambda data: data + bytes(16), "array section has", True),
        (lambda data: data[:-1] + bytes([data[-1] ^ 1]), "does not match its sha256", True),
        (rewritten(codes=[2, 1]), "codes not strictly increasing", False),
        (rewritten(codes=[1, 1]), "codes not strictly increasing", False),
        (rewritten(codes=[-1, 2]), "codes not strictly increasing", False),
        (rewritten(codes=[1, 4]), "codes not strictly increasing in [0, 2**2)", False),
        (rewritten(counts=[0, 7]), "a count <= 0", False),
        (rewritten(counts=[1, -7]), "a count <= 0", False),
        (
            rewritten(lambda header: header["windows"][0].update(labels=["A", "B", "Z"]), [1, 3]),
            "a label no cell uses",
            False,
        ),
    ],
    ids=[
        "empty",
        "bad-header",
        "not-utf8",
        "no-windows",
        "other-format",
        "other-date",
        "other-times",
        "duplicate-window",
        "digest-not-a-string",
        "negative-cells",
        "unsorted-labels",
        "duplicate-labels",
        "empty-label",
        "non-string-label",
        "truncated",
        "extended",
        "flipped-byte",
        "codes-decreasing",
        "codes-repeated",
        "code-negative",
        "code-too-large",
        "bad-count",
        "negative-count",
        "unused-label",
    ],
)
def test_corrupt_window_file_raises_store_error(store, corrupt, reason, every_read):
    # Every read checks the header, the sizes and the hash; reads that return
    # a window's snapshot also check its labels and columns.
    m = snap(MONDAY, {("A", "B"): 1, ("B", "A"): 7})
    store.put_snapshot("src", m)
    store.put_snapshot("src", snap(TUESDAY, {("A", "B"): 2}))
    path = store.root / "src" / f"{MONDAY}.odm"
    path.write_bytes(corrupt(path.read_bytes()))
    daily = DetectorConfig(p=1, stride="daily")
    reads = [
        lambda: store.get_snapshot("src", m.window),
        lambda: store.fetch_history("src", TimeWindow.full_day(TUESDAY), 1, "daily"),
        lambda: store.put_snapshot("src", snap(MONDAY, {}, dt.time(1, 0, 0), dt.time(2, 0, 0))),
        lambda: detect_day(store, "src", MONDAY, daily),  # the target date
        lambda: detect_day(store, "src", TUESDAY, daily),  # a history date, window times held
    ]
    if every_read:
        reads += [
            lambda: store.windows_for("src", MONDAY),
            lambda: store.day_digest("src", MONDAY),
        ]
    else:
        assert store.windows_for("src", MONDAY) == [m.window]
    for read in reads:
        with pytest.raises(StoreError) as excinfo:
            read()
        assert str(path) in str(excinfo.value)
        assert reason in str(excinfo.value)
        assert "re-ingest" in str(excinfo.value)


@pytest.mark.parametrize(
    "name", [f"{MONDAY}.csv", f"{MONDAY}.index.json", "notes.txt", f"{MONDAY}_000000-235959.csv"]
)
def test_old_layout_file_raises_store_error(store, name):
    store.put_snapshot("src", snap(TUESDAY, {("A", "B"): 1}))
    stored = store.root / "src" / f"{TUESDAY}.odm"
    before = stored.read_bytes()
    stray = store.root / "src" / name
    stray.write_text("date,start,end,origin,destination,count\n", encoding="utf-8")
    for read in (
        lambda: store.windows_for("src", MONDAY),
        lambda: store.get_snapshot("src", TimeWindow.full_day(MONDAY)),
        lambda: store.dates_for("src"),
        lambda: store.day_digest("src", MONDAY),
        lambda: store.put_snapshot("src", snap(MONDAY, {("A", "B"): 1})),
        lambda: store.put_snapshot("src", snap(TUESDAY, {("A", "B"): 2})),  # a stored date
    ):
        with pytest.raises(StoreError) as excinfo:
            read()
        assert str(stray) in str(excinfo.value)
        assert "re-ingest" in str(excinfo.value)
    # Nothing written.
    assert sorted(p.name for p in stray.parent.iterdir()) == sorted([name, stored.name])
    assert stored.read_bytes() == before


@pytest.mark.parametrize(
    "start,end",
    [
        (dt.time(1, 0, 0, 500000), dt.time(2, 0, 0)),
        (dt.time(1, 0, 0), dt.time(2, 0, 0, 1)),
        (dt.time(1, 0, 0, tzinfo=dt.timezone.utc), dt.time(2, 0, 0, tzinfo=dt.timezone.utc)),
    ],
    ids=["start-microseconds", "end-microseconds", "time-zone"],
)
def test_unnameable_window_times_rejected_before_writing(store, start, end):
    bad = snap(MONDAY, {("A", "B"): 1}, start, end)
    with pytest.raises(ValueError) as excinfo:
        store.put_snapshot("src", bad)
    message = str(excinfo.value)
    assert "src" in message and MONDAY.isoformat() in message
    assert bad.window.times_key() in message
    assert not (store.root / "src").exists()
    # The date stays writable and readable.
    good = snap(MONDAY, {("A", "B"): 2}, dt.time(1, 0, 0), dt.time(2, 0, 0))
    store.put_snapshot("src", good)
    assert store.get_snapshot("src", good.window) == good
    assert store.windows_for("src", MONDAY) == [good.window]


def test_windows_of_two_dates_rejected_before_writing(store):
    store.put_snapshot("src", snap(MONDAY, {("A", "B"): 1}))
    before = (store.root / "src" / f"{MONDAY}.odm").read_bytes()
    with pytest.raises(ValueError, match=f"cannot store src/{TUESDAY} together with {MONDAY}"):
        store.put_snapshot("src", snap(MONDAY, {("A", "B"): 2}), snap(TUESDAY, {("A", "B"): 3}))
    assert sorted(p.name for p in (store.root / "src").iterdir()) == [f"{MONDAY}.odm"]
    assert (store.root / "src" / f"{MONDAY}.odm").read_bytes() == before


def test_date_path_that_is_a_directory_raises_store_error(store):
    path = store.root / "src" / f"{MONDAY}.odm"
    path.mkdir(parents=True)
    with pytest.raises(StoreError, match=f"cannot read {re.escape(str(path))}: "):
        store.get_snapshot("src", TimeWindow.full_day(MONDAY))


TWO_WRITERS = """
import datetime as dt, fcntl, sys
from odmwatch import HistoryStore, SparseOdm, TimeWindow
from odmwatch import store as store_module

root, start, end, role = sys.argv[1:]
if role == "hold":  # pause inside the put, after its read, until told on stdin
    encode = store_module._encode_day

    def encode_when_told(date, day):
        print("holding", flush=True)
        sys.stdin.readline()
        return encode(date, day)

    store_module._encode_day = encode_when_told
else:  # say when the put asks for the lock
    flock = fcntl.flock

    def announced_flock(fd, operation):
        print("locking", flush=True)
        flock(fd, operation)

    fcntl.flock = announced_flock
window = TimeWindow(dt.date(2021, 6, 7), dt.time.fromisoformat(start), dt.time.fromisoformat(end))
HistoryStore(root).put_snapshot("src", SparseOdm(window, {("A", "B"): 1}))
"""


def test_a_put_waits_while_another_process_holds_the_source_lock(store):
    src_root = Path(odmwatch.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_root)}

    def put(start, end, role):
        argv = [sys.executable, "-c", TWO_WRITERS, str(store.root), start, end, role]
        pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return subprocess.Popen(argv, env=env, text=True, **pipes)

    holder = put("00:00:00", "11:59:59", "hold")
    waiter = None
    try:
        assert holder.stdout.readline() == "holding\n"
        waiter = put("12:00:00", "23:59:59", "wait")
        assert waiter.stdout.readline() == "locking\n"
        with pytest.raises(subprocess.TimeoutExpired):
            waiter.wait(timeout=1)  # the holder has read the date and not yet written it
        holder.stdin.write("\n")
        holder.stdin.flush()
        assert holder.wait(timeout=120) == 0, holder.stderr.read()
        assert waiter.wait(timeout=120) == 0, waiter.stderr.read()
    finally:
        for child in (holder, waiter):
            if child is not None:
                if child.poll() is None:
                    child.kill()
                child.communicate()  # closes the pipes
    assert [(w.start.isoformat(), w.end.isoformat()) for w in store.windows_for("src", MONDAY)] == [
        ("00:00:00", "11:59:59"),
        ("12:00:00", "23:59:59"),
    ]


CRASH_BEFORE_RENAME = """
import datetime as dt, os, sys
from odmwatch import HistoryStore, SparseOdm, TimeWindow

def crash(src, dst):
    # The temp file is complete; die before it replaces the window file.
    os._exit(17 if os.path.getsize(src) > 0 else 18)

os.replace = crash
store = HistoryStore(sys.argv[1])
window = TimeWindow(dt.date.fromisoformat(sys.argv[2]), dt.time(0, 0, 0), dt.time(23, 59, 59))
store.put_snapshot("src", SparseOdm(window, {("A", "B"): 99, ("C", "D"): 1}))
"""


def test_crash_before_rename_keeps_the_old_window(store):
    old = snap(MONDAY, {("A", "B"): 10})
    store.put_snapshot("src", old)
    before = (store.windows_for("src", MONDAY), store.day_digest("src", MONDAY))
    src_root = Path(odmwatch.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_root)}
    child = subprocess.run(
        [sys.executable, "-c", CRASH_BEFORE_RENAME, str(store.root), MONDAY.isoformat()],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert child.returncode == 17, child.stderr.decode()
    leftovers = [p.name for p in (store.root / "src").iterdir() if p.name.startswith(".")]
    assert len(leftovers) == 1 and leftovers[0].endswith(".tmp")
    assert store.get_snapshot("src", old.window) == old
    assert (store.windows_for("src", MONDAY), store.day_digest("src", MONDAY)) == before
    assert store.dates_for("src") == [MONDAY]


CRASH_MID_REINGEST = """
import os, sys
from odmwatch import cli, ingestion

render = ingestion.window_csv
rendered = []

def window_csv(snapshot):
    # Die as the fifth window is rendered, after four were.
    rendered.append(snapshot.window)
    if len(rendered) == 5:
        os._exit(17)
    return render(snapshot)

ingestion.window_csv = window_csv
sys.exit(cli.main(sys.argv[1:]))
"""


def eight_window_day(path, count):
    lines = [HEADER.decode("utf-8")]
    for w in canonical_windows(MONDAY, 8):
        lines.append(f"{MONDAY},{w.start},{w.end},A,B,{count}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def test_crash_mid_reingest_leaves_the_date_old_or_new(tmp_path):
    root = tmp_path / "store"
    flags = ["--source", "src", "--expected-windows", "8", "--store-root", str(root)]
    assert main(["ingest", eight_window_day(tmp_path / "old.csv", 99), *flags]) == 0
    new = tmp_path / "new.csv"
    src_root = Path(odmwatch.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_root)}
    child = subprocess.run(
        [sys.executable, "-c", CRASH_MID_REINGEST, "ingest", eight_window_day(new, 10), *flags],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert child.returncode == 17, child.stderr.decode()
    store = HistoryStore(root)
    windows = store.windows_for("src", MONDAY)
    assert windows == canonical_windows(MONDAY, 8)
    counts = [dict(store.get_snapshot("src", w).cells())[("A", "B")] for w in windows]
    assert counts in ([99] * 8, [10] * 8)


LABEL_CHARS = st.one_of(
    st.sampled_from([",", '"', "\n", "\r", " ", "\t", "\u00a0", "\u2028", "é", "東", "A"]),
    st.characters(exclude_categories=("Cs",)),
)


def assert_columnar(m, cells):
    """``m`` holds exactly the nonzero ``cells``, in the columnar form."""
    nonzero = {pair: count for pair, count in cells.items() if count > 0}
    assert m.labels == tuple(sorted({label for pair in nonzero for label in pair}))
    assert m.codes.format == "q" and m.counts.format == "q"
    assert m.codes.readonly and m.counts.readonly
    assert all(a < b for a, b in zip(m.codes, m.codes[1:]))
    assert all(count > 0 for count in m.counts)
    assert dict(m.cells()) == nonzero


@settings(max_examples=150, deadline=None)
@given(
    cells=st.dictionaries(
        st.tuples(
            st.text(LABEL_CHARS, min_size=1, max_size=6),
            st.text(LABEL_CHARS, min_size=1, max_size=6),
        ),
        st.integers(min_value=0, max_value=10**12),
        max_size=8,
    )
)
@example(cells={(" A", "B"): 1, ("A", "B"): 2})
@example(cells={("A ", "B"): 1})
@example(cells={("A\rB", "C"): 1})
@example(cells={('x,"y"', "line\nbreak"): 3, ("東京", "é"): 4})
@example(cells={(" A", "B"): 0, ("C", "B"): 2, ("D", "E"): 0})
def test_stored_labels_round_trip_or_are_rejected(tmp_path_factory, cells):
    window = TimeWindow(MONDAY, dt.time(12, 0, 0), dt.time(23, 59, 59))
    # Rows ingest would keep verbatim (it strips labels) parse to the same form.
    kept = {pair: c for pair, c in cells.items() if all(x == x.strip() for x in pair)}
    rows = [(str(MONDAY), "12:00:00", "23:59:59", o, d, str(c)) for (o, d), c in kept.items()]
    parsed = parse_rows(enumerate(rows, start=2), "cells.csv")
    assert parsed == ([SparseOdm(window, kept)] if kept else [])
    for m in parsed:
        assert_columnar(m, kept)

    store = HistoryStore(tmp_path_factory.mktemp("store"))
    other = snap(MONDAY, {("P", "Q"): 5}, dt.time(0, 0, 0), dt.time(11, 59, 59))
    store.put_snapshot("src", other)
    m = SparseOdm(window, cells)
    assert_columnar(m, cells)
    # Every label round-trips: the date file's JSON header gives back any string.
    store.put_snapshot("src", m)
    got = store.get_snapshot("src", m.window)
    assert got == m
    assert_columnar(got, cells)
    assert [store.get_snapshot("src", w) for w in store.windows_for("src", MONDAY)] == [other, m]
    assert store.day_digest("src", MONDAY) == day_digest_by_definition([other, m])


@pytest.mark.parametrize("label", [" A", "A ", "\tA", "A\u00a0", "A\rB"])
def test_whitespace_or_carriage_return_label_round_trips(store, label):
    m = snap(MONDAY, {("A", "B"): 1, (label, "B"): 2})
    store.put_snapshot("src", m)
    got = store.get_snapshot("src", m.window)
    assert got == m and dict(got.cells())[(label, "B")] == 2
    assert store.day_digest("src", MONDAY) == day_digest_by_definition([m])


def test_day_digest_changes_with_content(store):
    m = snap(MONDAY, {("A", "B"): 10})
    store.put_snapshot("src", m)
    first = store.day_digest("src", MONDAY)
    store.put_snapshot("src", snap(MONDAY, {("A", "B"): 11}))
    assert store.day_digest("src", MONDAY) != first
    assert store.day_digest("src", MONDAY - dt.timedelta(days=1)) is None


def test_bad_source_id_rejected(store):
    with pytest.raises(ValueError):
        store.put_snapshot("../escape", snap(MONDAY, {("A", "B"): 1}))
