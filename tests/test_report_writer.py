"""The column-by-column report writers against the row-by-row references in
``helpers``, on random days: labels and sources that need JSON escaping or
CSV quoting, history periods all missing, ``th = 0`` windows with +inf
increments, several windows a day, empty windows, and chunk sizes that
split every kind's rows. The store's CSV rendering of snapshots is checked
against ``csv.writer`` on the same labels."""

import datetime as dt
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import write_reference_csv, write_reference_jsonl, write_reference_snapshots_csv
from odmwatch import DayReport, DetectorConfig, SparseOdm, TimeWindow, detector, run_window
from odmwatch.detector import write_day_report_csv, write_day_report_jsonl
from odmwatch.ingestion import canonical_windows, write_snapshots_csv

DATE = dt.date(2021, 6, 21)
# Quote, backslash, the percent sign of the row template, control
# characters (both line breaks), non-ASCII, U+2028 and a character outside
# the BMP.
CHARS = st.sampled_from(["A", "z", ",", '"', "\\", "%", "\x00", "\n", "\r", "\x1f", "é", " ", "\U0001f600"])
COUNTS = st.one_of(st.integers(1, 60), st.integers(1, 10**9))


LABELS = st.lists(st.text(CHARS, min_size=1, max_size=3), min_size=1, max_size=6, unique=True)


@st.composite
def day_reports(draw):
    areas = st.sampled_from(draw(LABELS))
    config = DetectorConfig(th=draw(st.sampled_from([0, 3, 20])), p=draw(st.integers(1, 3)), quantile=0.5)
    source = draw(st.text(CHARS, max_size=3))

    def matrix(window):
        return SparseOdm(window, draw(st.dictionaries(st.tuples(areas, areas), COUNTS, max_size=12)))

    windows = canonical_windows(DATE, draw(st.integers(1, 3)))
    reports = []
    for window in windows[: draw(st.integers(0, len(windows)))]:
        history = [
            matrix(TimeWindow(DATE - dt.timedelta(days=7 * k), window.start, window.end))
            if draw(st.booleans())
            else None
            for k in range(1, config.p + 1)
        ]
        reports.append(run_window(matrix(window), history, config, source_id=source))
    return DayReport(source_id=source, date=DATE, config=config, window_reports=reports)


def wide_day():
    """Two 10**9 cells into one destination in 3 periods present: the
    inbound marginal, 2 * 10**9, is above the int64 sums' cap for n = 3.
    The D diagonal cell sets t to 5, so the fall of B-C is a signal."""
    config = DetectorConfig(th=3, p=3, quantile=0.5)
    cells = {("A", "C"): 10**9, ("B", "C"): 10**9}
    history = [
        SparseOdm(TimeWindow.full_day(DATE - dt.timedelta(days=7 * k)), cells) for k in (1, 2, 3)
    ]
    current = SparseOdm(TimeWindow.full_day(DATE), {("A", "C"): 10**9, ("B", "C"): 1, ("D", "D"): 5})
    report = run_window(current, history, config, source_id="s")
    return DayReport(source_id="s", date=DATE, config=config, window_reports=[report])


def shared_day():
    """Rows that share their ma, sd and bounds across chunk boundaries: 20
    spiking cells with one history, 20 cells below eligibility with another,
    and each area's marginal equal to its one cell. 40 steady cells of 5 set
    t to 5 and report nothing."""
    config = DetectorConfig(th=3, p=2, quantile=0.5)

    def cells(spike, low):
        return {
            **{(f"S{i}", f"T{i}"): spike for i in range(20)},
            **{(f"L{i}", f"M{i}"): low for i in range(20)},
            **{(f"N{i}", f"O{i}"): 5 for i in range(40)},
        }

    history = [
        SparseOdm(TimeWindow.full_day(DATE - dt.timedelta(days=7 * k)), cells(v, 1))
        for k, v in ((1, 10), (2, 12))
    ]
    report = run_window(SparseOdm(TimeWindow.full_day(DATE), cells(1000, 2)), history, config, "s")
    return DayReport(source_id="s", date=DATE, config=config, window_reports=[report])


@settings(max_examples=300, deadline=None)
@given(day_reports(), st.sampled_from([1, 3, 4096]))
@example(wide_day(), 1)
@example(shared_day(), 3)
def test_column_writers_match_the_row_writers(report, chunk_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector, "_CHUNK_ROWS", chunk_rows)
        jsonl = io.StringIO()
        write_day_report_jsonl(report, jsonl)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.csv"
            write_day_report_csv(report, path)
            csv_text = path.read_bytes().decode("utf-8")
    expected = io.StringIO()
    write_reference_jsonl(report, expected)
    assert jsonl.getvalue() == expected.getvalue()
    expected = io.StringIO(newline="")
    write_reference_csv(report, expected)
    assert csv_text == expected.getvalue()


@st.composite
def snapshot_days(draw):
    areas = st.sampled_from(draw(LABELS))
    windows = canonical_windows(DATE, draw(st.integers(1, 3)))
    cells = st.dictionaries(st.tuples(areas, areas), COUNTS, max_size=12)
    return [SparseOdm(window, draw(cells)) for window in draw(st.permutations(windows))]


@settings(max_examples=300, deadline=None)
@given(snapshot_days())
def test_snapshot_csv_matches_csv_writer(snapshots):
    written = io.StringIO()
    write_snapshots_csv(snapshots, written)
    expected = io.StringIO(newline="")
    write_reference_snapshots_csv(snapshots, expected)
    assert written.getvalue() == expected.getvalue()


def test_row_encoder_encodes_only_the_labels_its_rows_use():
    # A and B carry the only signal; C and D stay in bounds, so no row
    # names them; the X diagonal cells set the day's quantile and leave
    # zero, below-eligibility marginals.
    def cells(ab, cd):
        return {("A", "B"): ab, ("C", "D"): cd, **{(f"X{i}", f"X{i}"): 100 for i in range(9)}}

    history = [
        SparseOdm(TimeWindow.full_day(DATE - dt.timedelta(days=7 * k)), cells(v, v))
        for k, v in enumerate([90, 110, 90, 110], 1)
    ]
    rows = run_window(SparseOdm(TimeWindow.full_day(DATE), cells(1000, 100)), history, DetectorConfig()).outcomes
    used = {label for row in rows for label in row[5:7] if label is not None}
    assert used == {"A", "B", *(f"X{i}" for i in range(9))}

    encoded = []

    def text(value):
        encoded.append(value)
        return json.dumps(value)

    rows.fields(text, "null")
    assert sorted(value for value in encoded if value in rows.labels) == sorted(used)


def test_distinct_texts_formats_each_value_once():
    formed = []

    def form(value):
        formed.append(value)
        return str(value)

    values = np.array([0.1 + 0.2, 0.3, -0.0, 0.0, 0.3, 0.1 + 0.2, 7.5])
    written = np.array([True] * 6 + [False])
    table, index = detector._distinct_texts(values, written, form, "null")
    texts = table[index].tolist()
    assert texts == ["0.30000000000000004", "0.3", "-0.0", "0.0", "0.3", "0.30000000000000004", "null"]
    assert len(formed) == 4  # once per distinct written value; 7.5 is not written
    assert texts[0] is texts[5] and texts[1] is texts[4]

    wide = np.array([2**64 + 1, 5, 2**64 + 1, 2**63], dtype=object)
    table, index = detector._distinct_texts(wide, None, str, "null")
    assert table[index].tolist() == ["18446744073709551617", "5", "18446744073709551617", "9223372036854775808"]


@pytest.mark.parametrize("distinct", [255, 256, 65_535, 65_536])
def test_narrow_text_indexes_write_the_same_report(distinct):
    # distinct - 1 diagonal cells of counts 1 .. distinct - 1, and their
    # marginals of 0: every series is below th, so every observed value is
    # written, one of `distinct` values.
    config = DetectorConfig(th=10**6, p=1, quantile=0.5)
    cells = {(f"L{i}", f"L{i}"): i for i in range(1, distinct)}
    history = [SparseOdm(TimeWindow.full_day(DATE - dt.timedelta(days=7)), cells)]
    window = run_window(SparseOdm(TimeWindow.full_day(DATE), cells), history, config, "s")
    table, index = window.outcomes.fields(str, "")[6]  # observed
    assert index.dtype == np.min_scalar_type(distinct)
    assert len(table) == distinct + 1  # and the null text
    rows = window.outcomes.block.observed.tolist()
    assert table[index].tolist() == [str(value) for value in rows]
    report = DayReport(source_id="s", date=DATE, config=config, window_reports=[window])
    written, expected = io.StringIO(), io.StringIO()
    write_day_report_jsonl(report, written)
    write_reference_jsonl(report, expected)
    assert written.getvalue() == expected.getvalue()
