import datetime as dt
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracle
from helpers import (
    BASE_DATE,
    compare_report_to_oracle,
    dense_to_sparse,
    evaluate_cell,
    row_fields,
    rows_by_series,
    run_store_backed_trial,
)
from odmwatch import (
    DetectorConfig,
    SparseOdm,
    TimeWindow,
    detect_day,
    run_window,
)
from odmwatch.core import MAX_COUNT
from odmwatch.detector import write_day_report_csv, write_day_report_jsonl, REPORT_COLUMNS
from odmwatch.ingestion import canonical_windows
from odmwatch.store import HistoryStore, history_dates

W = TimeWindow.full_day(BASE_DATE)

# The history of the worked example: ma 100, sd 10.
MA100_SD10 = [90, 110, 90, 110]


# -- classification ------------------------------------------------------


@pytest.mark.parametrize(
    "inc,level",
    [
        (150.0, 3),
        (100.0, 3),
        (-60.0, 2),
        (50.0, 2),
        (49.9, 1),
        (0.1, 1),
        (-100.0, 3),
        (math.inf, 3),
    ],
)
def test_classify_level_bands(inc, level):
    # A constant history of 10000 (0 for a flow born from nothing) and the
    # observed value that gives the increment; t = 1 makes every change a signal.
    if math.isinf(inc):
        result = evaluate_cell([0] * 4, observed=7, t=1, th=0)
    else:
        result = evaluate_cell([10000] * 4, observed=round(10000 * (1 + inc / 100)), t=1, th=0)
        assert result.inc == pytest.approx(inc)
    assert result.status == "signal"
    assert result.level == level


def test_evaluate_upper_signal():
    outcome = evaluate_cell(MA100_SD10, observed=250, t=60)
    assert outcome.status == "signal"
    assert outcome.direction == "upper"
    assert outcome.inc == 150.0
    assert outcome.level == 3


def test_evaluate_lower_signal():
    outcome = evaluate_cell(MA100_SD10, observed=10, t=60)
    assert outcome.direction == "lower"
    assert outcome.inc == -90.0
    assert outcome.level == 2


def test_evaluate_below_eligibility_beats_bounds():
    outcome = evaluate_cell([15] * 4, observed=500, t=60)
    assert outcome.status == "below_eligibility"
    assert outcome.direction is None


def test_evaluate_missing_beats_everything():
    outcome = evaluate_cell([None] * 4, observed=120, t=60)
    assert outcome.status == "missing_data"
    assert outcome.ma is None


def test_evaluate_within_bounds():
    outcome = evaluate_cell(MA100_SD10, observed=150, t=60)
    assert outcome.status == "no_signal"


def test_evaluate_boundary_is_no_signal():
    # Exactly on the bound is level 0 on both sides.
    assert evaluate_cell(MA100_SD10, observed=160, t=60).status == "no_signal"
    assert evaluate_cell(MA100_SD10, observed=40, t=60).status == "no_signal"


def test_evaluate_ma_at_threshold_is_eligible():
    assert evaluate_cell([20] * 4, observed=20, t=60).status == "no_signal"


def test_lower_never_fires_in_literal_mode():
    outcome = evaluate_cell(MA100_SD10, observed=0, t=60, mode="paper_literal")
    assert outcome.status == "no_signal"


def test_flow_born_from_nothing_is_level3():
    outcome = evaluate_cell([0] * 4, observed=7, t=5, th=0)
    assert outcome.status == "signal"
    assert outcome.inc == math.inf
    assert outcome.level == 3


# -- run_window ----------------------------------------------------------


def weekly_dates(p=4):
    return tuple(BASE_DATE - dt.timedelta(days=7 * (k + 1)) for k in range(p))


def flat_world(value=50, cells=20, special=("A", "B"), special_value=100):
    entries = {(f"X{i:02d}", f"Y{i:02d}"): value for i in range(cells)}
    entries[special] = special_value
    return entries


def history_slice(entries, p=4):
    dates = weekly_dates(p)
    return tuple(SparseOdm(TimeWindow.full_day(d), entries) for d in dates)


def test_stable_world_no_signals():
    entries = flat_world()
    report = run_window(SparseOdm(W, entries), history_slice(entries), DetectorConfig())
    assert len(report.outcomes) == 0
    assert report.summary["no_signal"] == report.summary["keys"] > 0


def test_single_spike_with_marginals():
    entries = flat_world()
    spiked = dict(entries)
    spiked[("A", "B")] = 300
    report = run_window(SparseOdm(W, spiked), history_slice(entries), DetectorConfig())
    by_key = rows_by_series(report)
    assert set(by_key) == {
        ("cell", "A", "B"),
        ("inbound", None, "B"),
        ("outbound", "A", None),
    }
    cell = by_key[("cell", "A", "B")]
    assert cell["direction"] == "upper"
    assert cell["level"] == 3
    assert cell["inc_percent"] == 200.0


def test_window_rows_are_plain_tuples():
    entries = flat_world()
    entries[("S", "T")] = 5  # below eligibility
    spiked = dict(entries)
    spiked[("A", "B")] = 300
    report = run_window(SparseOdm(W, spiked), history_slice(entries), DetectorConfig())
    statuses = set()
    for row in report.outcomes:
        assert type(row) is tuple and len(row) == len(REPORT_COLUMNS)
        fields = row_fields(row)
        statuses.add(fields["status"])
        assert type(fields["observed"]) is int
        assert type(fields["ma"]) is float and type(fields["sd"]) is float
        if fields["status"] == "signal":
            assert type(fields["level"]) is int
            for column in ("inc_percent", "lower", "upper"):
                assert type(fields[column]) is float, column
    assert statuses == {"signal", "below_eligibility"}


def test_vanished_cell_is_lower_signal():
    entries = flat_world()
    gone = {k: v for k, v in entries.items() if k != ("A", "B")}
    report = run_window(SparseOdm(W, gone), history_slice(entries), DetectorConfig())
    cell = next(r for r in map(row_fields, report.outcomes) if r["kind"] == "cell")
    assert (cell["origin"], cell["destination"]) == ("A", "B")
    assert cell["observed"] == 0
    assert cell["direction"] == "lower"
    assert cell["inc_percent"] == -100.0
    assert cell["level"] == 3


def test_all_missing_history_marks_everything():
    entries = flat_world()
    report = run_window(SparseOdm(W, entries), (None,) * 4, DetectorConfig())
    assert report.summary["missing_data"] == report.summary["keys"]
    assert all(r["status"] == "missing_data" for r in map(row_fields, report.outcomes))


def test_empty_everything_is_empty_report():
    report = run_window(SparseOdm(W, {}), (None,) * 4, DetectorConfig())
    assert report.summary["keys"] == 0
    assert len(report.outcomes) == 0


def test_output_ordering_kind_then_labels():
    entries = flat_world()
    report = run_window(SparseOdm(W, entries), (None,) * 4, DetectorConfig())  # all flagged
    rows = map(row_fields, report.outcomes)
    keys = [(r["kind"], r["origin"] or "", r["destination"] or "") for r in rows]
    assert keys == sorted(keys)


def test_partition_property():
    rng = np.random.default_rng(7)
    labels = [f"L{i}" for i in range(12)]
    current = dense_to_sparse(
        (rng.random((12, 12)) < 0.4) * rng.integers(0, 100, (12, 12)), labels, W
    )
    hist = [
        dense_to_sparse(
            (rng.random((12, 12)) < 0.4) * rng.integers(0, 100, (12, 12)),
            labels,
            TimeWindow.full_day(d),
        )
        for d in weekly_dates(3)
    ] + [None]
    report = run_window(current, tuple(hist), DetectorConfig(th=5))
    s = report.summary
    assert s["keys"] == s["no_signal"] + s["signal"] + s["below_eligibility"] + s["missing_data"]
    assert s["signal"] == s["upper"] + s["lower"]
    assert s["signal"] == s["level1"] + s["level2"] + s["level3"]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=400),
    st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=2, max_value=9),
)
def test_scale_equivariance(scale, observed, history, t_above_th, th):
    """Multiplying observed, history, t and th by a common factor preserves
    status, direction and inc."""
    assume(observed or any(history))  # otherwise the cell is not monitored
    t = th + t_above_th
    for mode in ("clamped", "paper_literal"):
        a = evaluate_cell(history, observed, t, th, mode)
        scaled_history = [v * scale for v in history]
        b = evaluate_cell(scaled_history, observed * scale, t * scale, th * scale, mode)
        assert a.status == b.status
        if a.status == "signal":
            assert a.direction == b.direction
            assert a.inc == pytest.approx(b.inc, rel=1e-9)
            assert a.level == b.level


def test_oracle_equivalence_small_batch(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(20):
        problems = run_store_backed_trial(rng, tmp_path / "store", trial)
        assert problems == [], f"trial {trial}: {problems[:5]}"


# -- detect_day and serialization ----------------------------------------


@pytest.fixture
def loaded_store(tmp_path):
    store = HistoryStore(tmp_path / "store")
    entries = flat_world()
    for d in weekly_dates():
        store.put_snapshot("src", SparseOdm(TimeWindow.full_day(d), entries))
    spiked = dict(entries)
    spiked[("A", "B")] = 300
    store.put_snapshot("src", SparseOdm(W, spiked))
    return store


def test_detect_day_single_window(loaded_store):
    report = detect_day(loaded_store, "src", BASE_DATE, DetectorConfig())
    assert len(report.window_reports) == 1
    assert report.summary()["signal"] == 3
    assert not report.fully_missing


def test_detect_day_empty_date(loaded_store):
    report = detect_day(loaded_store, "src", BASE_DATE + dt.timedelta(days=1), DetectorConfig())
    assert report.fully_missing
    assert report.window_reports == []


def test_jsonl_report_shape(loaded_store):
    report = detect_day(loaded_store, "src", BASE_DATE, DetectorConfig())
    buf = io.StringIO()
    write_day_report_jsonl(report, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines[0]["record"] == "header"
    assert lines[0]["config"] == {
        "th": 20,
        "p": 4,
        "quantile": 0.75,
        "stride": "weekly",
        "bounds_mode": "clamped",
    }
    assert lines[0]["input_digest"]
    assert lines[-1]["record"] == "summary"
    outcome_lines = lines[1:-1]
    assert len(outcome_lines) == 3
    assert set(outcome_lines[0]) == set(REPORT_COLUMNS)
    cell_line = outcome_lines[0]
    assert cell_line["kind"] == "cell"
    assert cell_line["status"] == "signal"
    assert cell_line["direction"] == "upper"
    assert cell_line["observed"] == 300
    assert cell_line["ma"] == 100.0


def test_csv_report_shape(loaded_store, tmp_path):
    report = detect_day(loaded_store, "src", BASE_DATE, DetectorConfig())
    out = tmp_path / "report.csv"
    write_day_report_csv(report, out)
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == ",".join(REPORT_COLUMNS)
    assert len(rows) == 4
    meta = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert meta["summary"]["signal"] == 3


def test_missing_windows_from_profile(loaded_store):
    from odmwatch.ingestion import SourceProfile

    loaded_store.put_profile(SourceProfile("src", expected_windows_per_day=2))
    report = detect_day(loaded_store, "src", BASE_DATE, DetectorConfig())
    assert report.missing_windows == ["00:00:00-11:59:59", "12:00:00-23:59:59"]
    assert report.extra_windows == ["00:00:00-23:59:59"]


@pytest.mark.parametrize(
    "history",
    [(None, 5_000_000_000), (10, 5_000_000_000), (5_000_000_000, None)],
    ids=["missing-then-big", "present-then-big", "big-then-missing"],
)
def test_count_above_the_int64_cap_matches_the_oracle(tmp_path, history):
    # 5e9 is above the int64 sums' cap of about 3.04e9 for one period, so
    # the window is evaluated on exact ints; a missing period is still left
    # out of n. With th = 2**62 every series is reported, with its ma and sd.
    store = HistoryStore(tmp_path / "store")
    for date, count in zip(weekly_dates(len(history)), history):
        if count is not None:
            store.put_snapshot("src", SparseOdm(TimeWindow.full_day(date), {("A", "B"): count}))
    current = SparseOdm(W, {("A", "B"): 10})
    past = store.fetch_history("src", W, len(history), "weekly")
    dense = lambda count: None if count is None else np.array([[0, count], [0, 0]])
    for th in (20, 2**62):
        report = run_window(current, past, DetectorConfig(th=th), source_id="src")
        oracle = dense_oracle.evaluate_dense(
            dense(10), [dense(count) for count in history], ["A", "B"], th, 0.75, "clamped"
        )
        assert compare_report_to_oracle(report, oracle) == []
    assert len(report.outcomes) == 3


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_counts_up_to_max_count_match_the_oracle(data):
    # Cells up to 2**63 - 1 and their marginals, beyond int64, in 1-4 periods.
    n = data.draw(st.integers(1, 4))
    labels = [f"L{i}" for i in range(n)]
    counts = st.lists(
        st.one_of(st.integers(0, 60), st.integers(0, MAX_COUNT)), min_size=n * n, max_size=n * n
    )
    dense = lambda: np.array(data.draw(counts), dtype=np.int64).reshape(n, n)
    p = data.draw(st.integers(1, 4))
    current = dense()
    history = [dense() if data.draw(st.booleans()) else None for _ in range(p)]
    th = data.draw(st.sampled_from([0, 20, 2**62]))
    q = data.draw(st.sampled_from([0.5, 0.75]))
    mode = data.draw(st.sampled_from(["clamped", "paper_literal"]))
    past = [
        None if h is None else dense_to_sparse(h, labels, TimeWindow.full_day(date))
        for h, date in zip(history, weekly_dates(p))
    ]
    config = DetectorConfig(th=th, p=p, quantile=q, bounds_mode=mode)
    report = run_window(dense_to_sparse(current, labels, W), past, config)
    oracle = dense_oracle.evaluate_dense(current, history, labels, th, q, mode)
    assert compare_report_to_oracle(report, oracle) == []


def test_detect_reads_each_date_file_once(tmp_path, monkeypatch):
    # An 8-window day against p = 4 weekly periods, one of them absent: one
    # read per date file, a failed one for the absent date, and each window
    # scored as against its own snapshots read one by one.
    store = HistoryStore(tmp_path / "store")
    for k in (0, 1, 2, 4):
        date = BASE_DATE - dt.timedelta(days=7 * k)
        store.put_snapshot(
            "src",
            *(
                SparseOdm(w, {("A", "B"): 40 + 3 * i + k, ("B", "C"): 30 + i * k, ("C", "A"): 25})
                for i, w in enumerate(canonical_windows(date, 8))
            ),
        )
    reads = []
    read_bytes = Path.read_bytes

    def counted(path):
        reads.append(path.name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    config = DetectorConfig(th=1, p=4)
    report = detect_day(store, "src", BASE_DATE, config)
    dates = [BASE_DATE] + history_dates(BASE_DATE, 4, "weekly")
    odm_reads = sorted(name for name in reads if name.endswith(".odm"))
    assert odm_reads == sorted(f"{date}.odm" for date in dates)
    monkeypatch.undo()
    windows = canonical_windows(BASE_DATE, 8)
    assert [w.window for w in report.window_reports] == windows
    for got, window in zip(report.window_reports, windows):
        history = store.fetch_history("src", window, 4, "weekly")
        expected = run_window(store.get_snapshot("src", window), history, config, source_id="src")
        assert got.available == expected.available == 3
        assert (got.t, list(got.outcomes)) == (expected.t, list(expected.outcomes))


def test_paper_literal_emits_no_lower(loaded_store):
    entries = flat_world()
    gone = {k: v for k, v in entries.items() if k != ("A", "B")}
    loaded_store.put_snapshot("src", SparseOdm(W, gone))
    report = detect_day(
        loaded_store, "src", BASE_DATE, DetectorConfig(bounds_mode="paper_literal")
    )
    assert report.summary()["lower"] == 0
