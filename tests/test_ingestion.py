import datetime as dt
import gzip
import io
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odmwatch import (
    OdmIntegrityError,
    OdmParseError,
    SourceProfile,
    SparseOdm,
    TimeWindow,
    parse_file,
    validate_day,
)
from odmwatch import ingestion, store
from odmwatch.ingestion import canonical_windows, write_snapshots_csv

HEADER = "date,start,end,origin,destination,count\n"


def write(tmp_path, text, name="input.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_single_window_grouping(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,A,B,10\n"
        + "2021-06-07,00:00:00,23:59:59,B,C,5\n"
        + "2021-06-07,00:00:00,23:59:59,C,A,1\n",
    )
    matrices = parse_file(path)
    assert len(matrices) == 1
    assert len(matrices[0]) == 3
    assert dict(matrices[0].cells())[("A", "B")] == 10


def test_two_windows_same_date(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,11:59:59,A,B,10\n"
        + "2021-06-07,12:00:00,23:59:59,A,B,20\n",
    )
    matrices = parse_file(path)
    assert len(matrices) == 2
    assert [dict(m.cells())[("A", "B")] for m in matrices] == [10, 20]


def test_negative_count_names_line(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,A,B,10\n"
        + "2021-06-07,00:00:00,23:59:59,B,C,-5\n",
    )
    with pytest.raises(OdmParseError) as err:
        parse_file(path)
    assert err.value.line_no == 3


def test_count_beyond_int64_names_line(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + f"2021-06-07,00:00:00,23:59:59,A,B,{2**63 - 1}\n"
        + f"2021-06-07,00:00:00,23:59:59,B,C,{2**63}\n",
    )
    with pytest.raises(OdmParseError) as err:
        parse_file(path)
    assert err.value.line_no == 3
    assert str(err.value).startswith(f"{path.name}:3: ")
    assert "int64" in str(err.value)


def test_snapshot_refuses_count_beyond_int64():
    # So no API caller can hand put_snapshot a count the store cannot keep.
    window = TimeWindow.full_day(dt.date(2021, 6, 7))
    SparseOdm(window, {("A", "B"): 2**63 - 1})
    with pytest.raises(ValueError, match="int64"):
        SparseOdm(window, {("A", "B"): 2**63})


@pytest.mark.parametrize(
    "row",
    [
        "2021-13-07,00:00:00,23:59:59,A,B,1",  # bad date
        "2021-06-07,25:00:00,23:59:59,A,B,1",  # bad time
        "2021-06-07,00:00,23:59:59,A,B,1",  # wrong time format
        "2021-06-07,00:00:00,23:59:59,A,B,1.5",  # fractional count
        "2021-06-07,00:00:00,23:59:59,,B,1",  # empty label
        "2021-06-07,10:00:00,09:00:00,A,B,1",  # start after end
        "2021-06-07,00:00:00,23:59:59,A,B",  # missing field
    ],
)
def test_malformed_rows_rejected(tmp_path, row):
    path = write(tmp_path, HEADER + row + "\n")
    with pytest.raises(OdmParseError) as err:
        parse_file(path)
    assert err.value.line_no == 2


def test_duplicate_cell_is_integrity_error(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,A,B,10\n"
        + "2021-06-07,00:00:00,23:59:59,A,B,11\n",
    )
    with pytest.raises(OdmIntegrityError):
        parse_file(path)


def test_duplicate_allowed_across_windows(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,11:59:59,A,B,10\n"
        + "2021-06-07,12:00:00,23:59:59,A,B,10\n",
    )
    assert len(parse_file(path)) == 2


def test_empty_file_yields_nothing(tmp_path):
    assert parse_file(write(tmp_path, "")) == []
    assert parse_file(write(tmp_path, HEADER)) == []


def test_bad_header_rejected(tmp_path):
    path = write(tmp_path, "a,b,c\n1,2,3\n")
    with pytest.raises(OdmParseError) as err:
        parse_file(path)
    assert err.value.line_no == 1


def test_zero_count_rows_dropped(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,A,B,0\n"
        + "2021-06-07,00:00:00,23:59:59,B,C,2\n",
    )
    matrices = parse_file(path)
    assert len(matrices) == 1
    assert len(matrices[0]) == 1


def test_gzip_variant(tmp_path):
    payload = HEADER + "2021-06-07,00:00:00,23:59:59,A,B,10\n"
    path = tmp_path / "input.csv.gz"
    with gzip.open(path, "wb") as handle:
        handle.write(payload.encode("utf-8"))
    matrices = parse_file(path)
    assert dict(matrices[0].cells())[("A", "B")] == 10


def test_round_trip_preserves_matrices(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,11:59:59,A,B,10\n"
        + "2021-06-07,00:00:00,11:59:59,B,B,7\n"
        + "2021-06-07,12:00:00,23:59:59,C,A,123456789012\n",
    )
    matrices = parse_file(path)
    buf = io.StringIO()
    write_snapshots_csv(matrices, buf)
    reparsed_path = write(tmp_path, buf.getvalue(), "round.csv")
    assert parse_file(reparsed_path) == matrices


def test_mass_conservation(tmp_path):
    rows = [
        ("2021-06-07", "00:00:00", "11:59:59", "A", "B", 10),
        ("2021-06-07", "12:00:00", "23:59:59", "B", "C", 32),
        ("2021-06-08", "00:00:00", "11:59:59", "C", "C", 7),
    ]
    text = HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows)
    matrices = parse_file(write(tmp_path, text))
    assert sum(v for m in matrices for _, v in m.cells()) == sum(r[5] for r in rows)


def test_total_volume_is_exact_beyond_int64(tmp_path):
    # 2**62 + 2**62 wraps to -2**63 in an int64 sum.
    rows = [f"2021-06-07,00:00:00,23:59:59,{o},{d},{2**62}\n" for o, d in (("A", "B"), ("B", "A"))]
    matrices = parse_file(write(tmp_path, HEADER + "".join(rows)))
    report = validate_day(matrices, SourceProfile("mno"), dt.date(2021, 6, 7))
    assert report.total_volume == 2**63
    assert '"total_volume":9223372036854775808' in report.to_json()


def test_canonical_windows_hourly():
    windows = canonical_windows(dt.date(2021, 6, 7), 24)
    assert len(windows) == 24
    assert windows[0].start == dt.time(0, 0, 0)
    assert windows[0].end == dt.time(0, 59, 59)
    assert windows[-1].start == dt.time(23, 0, 0)
    assert windows[-1].end == dt.time(23, 59, 59)


def test_canonical_windows_full_day():
    (window,) = canonical_windows(dt.date(2021, 6, 7), 1)
    assert window.start == dt.time(0, 0, 0)
    assert window.end == dt.time(23, 59, 59)


def test_validate_day_complete(tmp_path):
    date = dt.date(2021, 6, 7)
    rows = [
        f"2021-06-07,{w.start.isoformat()},{w.end.isoformat()},A,B,30"
        for w in canonical_windows(date, 24)
    ]
    matrices = parse_file(write(tmp_path, HEADER + "\n".join(rows) + "\n"))
    profile = SourceProfile("mno", expected_windows_per_day=24)
    report = validate_day(matrices, profile, date)
    assert report.missing_windows == []
    assert report.extra_windows == []
    assert report.total_volume == 24 * 30
    assert report.clean


def test_validate_day_names_missing_window(tmp_path):
    date = dt.date(2021, 6, 7)
    windows = canonical_windows(date, 24)[:-1]  # drop the last hour
    rows = [
        f"2021-06-07,{w.start.isoformat()},{w.end.isoformat()},A,B,1" for w in windows
    ]
    matrices = parse_file(write(tmp_path, HEADER + "\n".join(rows) + "\n"))
    report = validate_day(matrices, SourceProfile("mno", 24), date)
    assert report.missing_windows == ["23:00:00-23:59:59"]
    assert not report.clean


def test_validate_day_refuses_a_snapshot_of_another_date():
    monday = dt.date(2021, 6, 7)
    tuesday = SparseOdm(TimeWindow.full_day(monday + dt.timedelta(days=1)), {("A", "B"): 1})
    with pytest.raises(ValueError, match="snapshot for 2021-06-08 passed to validate_day"):
        validate_day([tuesday], SourceProfile("mno"), monday)


def test_blank_line_is_skipped(tmp_path):
    # A bad row after blank lines is still named by its line in the file.
    text = HEADER + "2021-06-07,00:00:00,23:59:59,A,B,10\n\n2021-06-07,00:00:00,23:59:59,B,C,5\n"
    (matrix,) = parse_file(write(tmp_path, text))
    assert dict(matrix.cells()) == {("A", "B"): 10, ("B", "C"): 5}
    with pytest.raises(OdmParseError, match=":6:"):
        parse_file(write(tmp_path, text + "\n2021-06-07,00:00:00,23:59:59,C,A,x\n"))


def test_validate_day_flags_extra_window(tmp_path):
    date = dt.date(2021, 6, 7)
    rows = [
        f"2021-06-07,{w.start.isoformat()},{w.end.isoformat()},A,B,1"
        for w in canonical_windows(date, 24)
    ]
    rows.append("2021-06-07,00:00:00,23:59:59,A,B,1")
    matrices = parse_file(write(tmp_path, HEADER + "\n".join(rows) + "\n"))
    report = validate_day(matrices, SourceProfile("mno", 24), date)
    assert report.extra_windows == ["00:00:00-23:59:59"]
    assert len(report.missing_windows) == 0


def test_time_spellings_share_one_window(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,1:00:00,2:00:00,A,B,10\n"
        + "2021-06-07,01:00:00,02:00:00,B,C,5\n",
    )
    (matrix,) = parse_file(path)
    assert matrix.window.start == dt.time(1, 0, 0)
    assert dict(matrix.cells()) == {("A", "B"): 10, ("B", "C"): 5}


def test_duplicate_cell_across_time_spellings(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,01:00:00,02:00:00,A,B,10\n"
        + "2021-06-07,01:00:00,02:00:00,B,C,5\n"
        + "2021-06-07,1:00:00,2:00:00,A,B,11\n",
    )
    with pytest.raises(OdmIntegrityError) as err:
        parse_file(path)
    assert err.value.line_no == 4
    assert "first seen at line 2" in str(err.value)


@pytest.mark.parametrize(
    "row, message",
    [
        ("2021-06-07,00:00:00,11:59:59,C,D,x", "bad count 'x'"),
        ("2021-06-07,00:00:00,11:59:59,C,D,-1", "negative count -1"),
        ("2021-06-07,00:00:00,11:59:59,,D,1", "empty area label"),
        ("2021-06-07,11:59:59,00:00:00,C,D,1", "window start 11:59:59 must precede end 00:00:00"),
        ("2021-06-07,11:59:59,11:59:59,C,D,1", "window start 11:59:59 must precede end 11:59:59"),
    ],
)
def test_later_row_of_seen_times_names_its_line(tmp_path, row, message):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,11:59:59,A,B,10\n"
        + "2021-06-07,00:00:00,11:59:59,B,C,5\n"
        + row
        + "\n",
    )
    with pytest.raises(OdmParseError) as err:
        parse_file(path)
    assert err.value.line_no == 4
    assert message in str(err.value)


def test_duplicate_of_a_zero_count_row(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,A,B,0\n"
        + "2021-06-07,00:00:00,23:59:59,B,C,5\n"
        + "2021-06-07,00:00:00,23:59:59,A,B,4\n"
        + "2021-06-07,00:00:00,23:59:59,A,B,6\n",
    )
    with pytest.raises(OdmIntegrityError) as err:
        parse_file(path)
    assert err.value.line_no == 4
    assert "duplicate cell ('A', 'B') in window 2021-06-07 00:00:00-23:59:59" in str(err.value)
    assert "first seen at line 2" in str(err.value)


LATER_MALFORMED_ROWS = [
    "2021-06-07,00:00:00,23:59:59,C,D,x",
    "2021-06-07,00:00:00,23:59:59,C,D",
    "2021-06-07,00:00:00,23:59:59,A,B,-1",
    "2021-06-07,00:00:00,23:59:59," + "X" * 200_000 + ",D,1",  # beyond the csv field limit
]


@pytest.mark.parametrize("row", LATER_MALFORMED_ROWS)
def test_duplicate_before_a_malformed_row_is_integrity_error(tmp_path, row):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,A,B,1\n"
        + "2021-06-07,00:00:00,23:59:59,A,B,2\n"
        + row
        + "\n",
    )
    with pytest.raises(OdmIntegrityError) as err:
        parse_file(path)
    assert err.value.line_no == 3
    assert "first seen at line 2" in str(err.value)


def test_duplicate_before_a_truncated_gzip_is_integrity_error(tmp_path):
    rows = [f"2021-06-07,00:00:00,23:59:59,A{i},B,{i + 1}\n" for i in range(20_000)]
    rows.insert(3, rows[1])
    data = gzip.compress((HEADER + "".join(rows)).encode("utf-8"), mtime=0)
    path = tmp_path / "cut.csv.gz"
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(OdmIntegrityError) as err:
        parse_file(path)
    assert err.value.line_no == 5
    assert "first seen at line 3" in str(err.value)


@pytest.mark.parametrize("row", LATER_MALFORMED_ROWS)
def test_malformed_row_before_a_duplicate_is_parse_error(tmp_path, row):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,A,B,1\n"
        + row
        + "\n"
        + "2021-06-07,00:00:00,23:59:59,A,B,2\n",
    )
    with pytest.raises(OdmParseError) as err:
        parse_file(path)
    assert err.value.line_no == 3


def test_first_duplicate_in_file_order_wins_across_windows(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,11:59:59,A,B,1\n"
        + "2021-06-07,12:00:00,23:59:59,C,D,1\n"
        + "2021-06-07,12:00:00,23:59:59,A,B,1\n"
        + "2021-06-07,12:00:00,23:59:59,C,D,2\n"
        + "2021-06-07,00:00:00,11:59:59,A,B,3\n",
    )
    with pytest.raises(OdmIntegrityError) as err:
        parse_file(path)
    assert err.value.line_no == 5
    assert "duplicate cell ('C', 'D') in window 2021-06-07 12:00:00-23:59:59" in str(err.value)
    assert "first seen at line 3" in str(err.value)


def test_label_of_zero_count_rows_only_is_not_a_label(tmp_path):
    path = write(
        tmp_path,
        HEADER
        + "2021-06-07,00:00:00,23:59:59,C,A,0\n"
        + "2021-06-07,00:00:00,23:59:59,B,A,3\n"
        + "2021-06-07,00:00:00,23:59:59,A,D,0\n",
    )
    (matrix,) = parse_file(path)
    assert matrix.labels == ("A", "B")
    assert dict(matrix.cells()) == {("B", "A"): 3}


def traced_peak(function, *args):
    """``function(*args)`` and the most memory it held at once, in bytes, by
    ``tracemalloc``."""
    tracemalloc.start()
    try:
        return function(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_and_encode_hold_no_text_per_row(tmp_path):
    # 20k rows of one window. Parse keeps an origin id, a destination id, a
    # count and a line number per row, not the row's labels, and the store
    # hashes the date's CSV a chunk of rows at a time, not as one string.
    # The bounds sit between the two: a parse that held each row's labels
    # peaked at 6.7 MB, and an encode that rendered the CSV whole at 3.3 MB.
    rows = [
        f"2021-06-07,00:00:00,23:59:59,area{o:03d},area{d:03d},{1000 + o * d}\n"
        for o in range(200)
        for d in range(100)
    ]
    path = write(tmp_path, HEADER + "".join(rows))
    del rows
    day, parse_peak = traced_peak(parse_file, path)
    assert len(day[0]) == 20_000
    pieces, encode_peak = traced_peak(store._encode_day, dt.date(2021, 6, 7), day)
    assert pieces[0].startswith(b'{"format":1,')
    assert parse_peak < 3_500_000
    assert encode_peak < 1_800_000


# ASCII and other Unicode decimal digits, then what may surround them.
DIGITS = "0123456789\u0661\u0665\u0967\u096f\uff10\uff19"
TIME_CHARS = st.sampled_from([*DIGITS, ":", " ", "\t", "\n", "+", "-", "a", "T", "Z"])
DIGIT_RUN = st.text(st.sampled_from(DIGITS), min_size=1, max_size=3)
TIME_PART = DIGIT_RUN | st.text(TIME_CHARS, max_size=3)


@settings(max_examples=500, deadline=None)
@given(st.text(TIME_CHARS, max_size=10) | st.tuples(TIME_PART, TIME_PART, TIME_PART).map(":".join))
@example("1:2:3")
@example("\u0661:00:00")
@example("23:59:59")
@example("23:59:60")
@example("24:00:00")
@example(" 1:00:00")
@example("01:00:00\n")
def test_parse_time_accepts_what_strptime_accepts(text):
    try:
        expected = dt.datetime.strptime(text, "%H:%M:%S").time()
    except ValueError:
        with pytest.raises(ValueError) as err:
            ingestion._parse_time(text)
        assert str(err.value) == f"bad time {text!r}, expected HH:MM:SS"
    else:
        assert ingestion._parse_time(text) == expected


def test_each_time_string_parsed_once(tmp_path, monkeypatch):
    calls = []
    parse_time = ingestion._parse_time

    def counting(text):
        calls.append(text)
        return parse_time(text)

    monkeypatch.setattr(ingestion, "_parse_time", counting)
    windows = canonical_windows(dt.date(2021, 6, 7), 3)
    rows = [
        f"2021-06-07,{w.start.isoformat()},{w.end.isoformat()},{o},{d},{i + 1}"
        for i, w in enumerate(windows)
        for o in "ABC"
        for d in "ABC"
    ]
    matrices = parse_file(write(tmp_path, HEADER + "\n".join(rows) + "\n"))
    assert [len(m) for m in matrices] == [9, 9, 9]
    assert sorted(calls) == sorted(
        t.isoformat() for w in windows for t in (w.start, w.end)
    )
