import datetime as dt
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odmwatch
from odmwatch import HistoryQuery, HistoryStore, SparseOdm, TimeWindow
from odmwatch import store as store_module
from odmwatch.ingestion import SourceProfile, parse_rows, write_snapshots_csv
from odmwatch.store import StoreError, retention_for

MONDAY = dt.date(2021, 6, 7)
HEADER = b"date,start,end,origin,destination,count\n"


@pytest.fixture
def store(tmp_path):
    return HistoryStore(tmp_path / "store", retention_days=None)


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
    slice_ = store.fetch_history(HistoryQuery("src", m.window, p=4, stride="weekly"))
    assert slice_.p == 4
    assert slice_.available == 4
    assert [dict(s.cells())[("A", "B")] for s in slice_.slots] == [1, 2, 3, 4]
    assert all(d.weekday() == MONDAY.weekday() for d in slice_.dates)


def test_fetch_history_partial(store):
    m = snap(MONDAY, {("A", "B"): 5})
    store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=7), {("A", "B"): 1}))
    store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=21), {("A", "B"): 3}))
    slice_ = store.fetch_history(HistoryQuery("src", m.window, p=4, stride="weekly"))
    assert slice_.available == 2
    assert slice_.slots[1] is None and slice_.slots[3] is None


def test_fetch_history_all_missing(store):
    slice_ = store.fetch_history(
        HistoryQuery("src", TimeWindow.full_day(MONDAY), p=4, stride="weekly")
    )
    assert slice_.available == 0
    assert list(slice_.slots) == [None] * 4


def test_fetch_history_daily_stride(store):
    m = snap(MONDAY, {("A", "B"): 5})
    for k in range(1, 4):
        store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=k), {("A", "B"): k}))
    slice_ = store.fetch_history(HistoryQuery("src", m.window, p=3, stride="daily"))
    assert [dict(s.cells())[("A", "B")] for s in slice_.slots] == [1, 2, 3]
    assert slice_.dates == tuple(MONDAY - dt.timedelta(days=k) for k in (1, 2, 3))


def test_fetch_history_matches_window_times(store):
    morning = snap(MONDAY, {("A", "B"): 1}, dt.time(0, 0, 0), dt.time(11, 59, 59))
    past_evening = snap(
        MONDAY - dt.timedelta(days=7),
        {("A", "B"): 9},
        dt.time(12, 0, 0),
        dt.time(23, 59, 59),
    )
    store.put_snapshot("src", past_evening)
    slice_ = store.fetch_history(HistoryQuery("src", morning.window, p=1, stride="weekly"))
    assert slice_.available == 0  # same date but different window times


def test_profile_round_trip(store):
    profile = SourceProfile("src", expected_windows_per_day=24)
    store.put_profile(profile)
    assert store.get_profile("src") == profile
    assert store.get_profile("other") is None
    stored = json.loads((store.root / "src" / "profile.json").read_text(encoding="utf-8"))
    assert stored == {"source_id": "src", "expected_windows_per_day": 24}


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


def test_retention_prunes_old_days(tmp_path):
    store = HistoryStore(tmp_path / "store", retention_days=10)
    store.put_snapshot("src", snap(MONDAY - dt.timedelta(days=30), {("A", "B"): 1}))
    store.put_snapshot("src", snap(MONDAY, {("A", "B"): 2}))
    assert store.dates_for("src") == [MONDAY]


def test_retention_keeps_window(tmp_path):
    store = HistoryStore(tmp_path / "store", retention_days=35)
    old = MONDAY - dt.timedelta(days=28)
    store.put_snapshot("src", snap(old, {("A", "B"): 1}))
    store.put_snapshot("src", snap(MONDAY, {("A", "B"): 2}))
    assert store.dates_for("src") == [old, MONDAY]


def test_retention_default_policy():
    assert retention_for(4, "weekly") == 35
    assert retention_for(4, "daily") == 35
    assert retention_for(6, "weekly") == 42


def test_windows_for_parses_no_file(store, monkeypatch):
    morning = snap(MONDAY, {("A", "B"): 1}, dt.time(0, 0, 0), dt.time(7, 59, 59))
    noon = snap(MONDAY, {}, dt.time(8, 0, 0), dt.time(15, 59, 59))
    evening = snap(MONDAY, {("B", "A"): 2}, dt.time(16, 0, 0), dt.time(23, 59, 59))
    for m in (evening, noon, morning):
        store.put_snapshot("src", m)

    def no_parse(*args):
        raise AssertionError("windows_for parsed a window file")

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "parse_rows", no_parse)
        patch.setattr(store_module, "iter_csv_rows", no_parse)
        assert store.windows_for("src", MONDAY) == [morning.window, noon.window, evening.window]
        assert store.dates_for("src") == [MONDAY]
    for m in (morning, noon, evening):
        assert store.get_snapshot("src", m.window) == m


def test_window_file_layout(store):
    m = snap(MONDAY, {("B", "A"): 2, ("A", "B"): 1}, dt.time(8, 0, 0), dt.time(15, 59, 59))
    store.put_snapshot("src", m)
    store.put_snapshot("src", snap(MONDAY, {}, dt.time(16, 0, 0), dt.time(23, 59, 59)))
    directory = store.root / "src"
    assert sorted(p.name for p in directory.iterdir()) == [
        f"{MONDAY}_080000-155959.csv",
        f"{MONDAY}_160000-235959.csv",
    ]
    expected = io.StringIO()
    write_snapshots_csv([m], expected)
    assert (directory / f"{MONDAY}_080000-155959.csv").read_bytes() == expected.getvalue().encode()
    assert (directory / f"{MONDAY}_160000-235959.csv").read_bytes() == HEADER


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


@pytest.mark.parametrize(
    "content,reason",
    [
        (b"", "empty file"),
        (b"date,start,end,origin\n", "bad header"),
        (HEADER + b"2021-06-07,00:00:00,23:59:59,A,B,oops\n", ":2: bad count"),
        (HEADER + b"2021-06-07,00:00:00,23:59:59,A,\xff,1\n", "utf-8"),
        (HEADER + b"2021-06-07,00:00:00,11:59:59,A,B,1\n", "not 00:00:00-23:59:59"),
        (HEADER + b"2021-06-08,00:00:00,23:59:59,A,B,1\n", "not 00:00:00-23:59:59"),
    ],
    ids=["empty", "bad-header", "bad-count", "not-utf8", "other-times", "other-date"],
)
def test_corrupt_window_file_raises_store_error(store, content, reason):
    m = snap(MONDAY, {("A", "B"): 1})
    store.put_snapshot("src", m)
    path = store.root / "src" / f"{MONDAY}_000000-235959.csv"
    path.write_bytes(content)
    with pytest.raises(StoreError) as excinfo:
        store.get_snapshot("src", m.window)
    assert path.name in str(excinfo.value)
    assert reason in str(excinfo.value)


@pytest.mark.parametrize("name", [f"{MONDAY}.csv", f"{MONDAY}.index.json", "notes.txt"])
def test_old_layout_file_raises_store_error(store, name):
    stray = store.root / "src" / name
    stray.parent.mkdir(parents=True)
    stray.write_text("date,start,end,origin,destination,count\n", encoding="utf-8")
    for read in (
        lambda: store.windows_for("src", MONDAY),
        lambda: store.dates_for("src"),
        lambda: store.day_digest("src", MONDAY),
        lambda: store.put_snapshot("src", snap(MONDAY, {("A", "B"): 1})),
    ):
        with pytest.raises(StoreError) as excinfo:
            read()
        assert str(stray) in str(excinfo.value)
        assert "re-ingest" in str(excinfo.value)
    assert [p.name for p in stray.parent.iterdir()] == [name]  # nothing written


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


CRASH_BEFORE_RENAME = """
import datetime as dt, os, sys
from odmwatch import HistoryStore, SparseOdm, TimeWindow

def crash(src, dst):
    # The temp file is complete; die before it replaces the window file.
    os._exit(17 if os.path.getsize(src) > 0 else 18)

os.replace = crash
store = HistoryStore(sys.argv[1], retention_days=None)
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


LABEL_CHARS = st.one_of(
    st.sampled_from([",", '"', "\n", "\r", " ", "\t", "\u00a0", "\u2028", "é", "東", "A"]),
    st.characters(exclude_categories=("Cs",)),
)


def assert_columnar(m, cells):
    """``m`` holds exactly the nonzero ``cells``, in the columnar form."""
    nonzero = {pair: count for pair, count in cells.items() if count > 0}
    assert m.labels == tuple(sorted({label for pair in nonzero for label in pair}))
    assert m.codes.dtype == np.int64 and m.counts.dtype == np.int64
    assert not m.codes.flags.writeable and not m.counts.flags.writeable
    assert (np.diff(m.codes) > 0).all()
    assert (m.counts > 0).all()
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

    store = HistoryStore(tmp_path_factory.mktemp("store"), retention_days=None)
    other = snap(MONDAY, {("P", "Q"): 5}, dt.time(0, 0, 0), dt.time(11, 59, 59))
    store.put_snapshot("src", other)
    m = SparseOdm(window, cells)
    assert_columnar(m, cells)
    try:
        store.put_snapshot("src", m)
    except ValueError:
        assert any(
            label != label.strip() or "\r" in label
            for pair, count in cells.items()
            if count > 0
            for label in pair
        )
        assert store.windows_for("src", MONDAY) == [other.window]
    else:
        got = store.get_snapshot("src", m.window)
        assert got == m
        assert_columnar(got, cells)
    # Whatever happened, the day stays readable in full.
    day = [store.get_snapshot("src", w) for w in store.windows_for("src", MONDAY)]
    assert other in day and None not in day


@pytest.mark.parametrize("label", [" A", "A ", "\tA", "A\u00a0", "A\rB"])
def test_unreadable_label_rejected_before_writing(store, label):
    m = snap(MONDAY, {("A", "B"): 1, (label, "B"): 2})
    with pytest.raises(ValueError) as err:
        store.put_snapshot("src", m)
    message = str(err.value)
    assert "src" in message and MONDAY.isoformat() in message and repr(label) in message
    assert not (store.root / "src" / f"{MONDAY}_000000-235959.csv").exists()
    assert store.get_snapshot("src", m.window) is None


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
