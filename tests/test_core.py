import copy
import datetime as dt
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from helpers import series_values
from odmwatch import DetectorConfig, SparseOdm, TimeWindow
from odmwatch.cli import RunConfig

W = TimeWindow.full_day(dt.date(2021, 6, 7))


def marginals(m: SparseOdm) -> dict:
    """Observed value of every monitored inbound and outbound series."""
    return {
        key: observed
        for key, (observed, _) in series_values(m).items()
        if key[0] != "cell"
    }


def test_cell_value_lookup():
    cells = dict(SparseOdm(W, {("A", "B"): 120}).cells())
    assert cells.get(("A", "B"), 0) == 120
    assert cells.get(("B", "A"), 0) == 0


def test_cell_value_empty_matrix():
    cells = dict(SparseOdm(W, {}).cells())
    assert cells.get(("A", "A"), 0) == 0


def test_inbound_excludes_diagonal():
    m = SparseOdm(W, {("A", "B"): 10, ("C", "B"): 5, ("B", "B"): 99})
    assert marginals(m)[("inbound", None, "B")] == 15


def test_inbound_diagonal_only():
    assert marginals(SparseOdm(W, {("B", "B"): 99}))[("inbound", None, "B")] == 0
    assert marginals(SparseOdm(W, {})).get(("inbound", None, "B"), 0) == 0


def test_outbound_excludes_diagonal():
    m = SparseOdm(W, {("A", "B"): 10, ("A", "C"): 5, ("A", "A"): 99})
    assert marginals(m)[("outbound", "A", None)] == 15
    assert marginals(SparseOdm(W, {("A", "A"): 99}))[("outbound", "A", None)] == 0


def test_all_marginals_single_entry():
    m = SparseOdm(W, {("A", "B"): 10})
    assert marginals(m) == {
        ("outbound", "A", None): 10,
        ("inbound", None, "B"): 10,
    }


def test_all_marginals_diagonal_only_is_empty():
    # The area's two marginals are monitored, at 0.
    nonzero = {k: v for k, v in marginals(SparseOdm(W, {("A", "A"): 7})).items() if v}
    assert nonzero == {}


def test_all_marginals_two_way():
    m = SparseOdm(W, {("A", "B"): 10, ("B", "A"): 4})
    assert marginals(m) == {
        ("outbound", "A", None): 10,
        ("inbound", None, "B"): 10,
        ("outbound", "B", None): 4,
        ("inbound", None, "A"): 4,
    }


def test_zero_counts_are_dropped():
    m = SparseOdm(W, {("A", "B"): 0, ("A", "C"): 3})
    assert len(m) == 1
    assert dict(m.cells()).get(("A", "B"), 0) == 0


@pytest.mark.parametrize("counts", [(0, 5), (5, 0)], ids=["zero-first", "zero-last"])
def test_duplicate_cell_rejected_in_either_order(counts):
    # A zero count still names its cell, as in parse_rows: the pair may not repeat.
    cells = [(("A", "B"), count) for count in counts]
    with pytest.raises(ValueError, match=r"^duplicate cell \(A, B\)$"):
        SparseOdm(W, cells)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        SparseOdm(W, {("A", "B"): -1})


def test_non_integer_count_rejected():
    with pytest.raises(ValueError):
        SparseOdm(W, {("A", "B"): 1.5})


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        SparseOdm(W, {("", "B"): 1})


def test_window_requires_start_before_end():
    with pytest.raises(ValueError):
        TimeWindow(dt.date(2021, 6, 7), dt.time(10, 0, 0), dt.time(9, 0, 0))


def test_records_are_immutable_values():
    config = DetectorConfig(p=3, stride="daily")
    assert config == DetectorConfig(stride="daily", p=3)
    assert hash(config) == hash(DetectorConfig(stride="daily", p=3))
    assert DetectorConfig._fields == ("th", "p", "quantile", "stride", "bounds_mode")
    with pytest.raises(TypeError):
        DetectorConfig(20)  # keyword-only
    with pytest.raises(ValueError, match="p must be >= 1"):
        DetectorConfig(p=0)
    day = dt.date(2021, 6, 7)
    early, late = TimeWindow(day, dt.time(1), dt.time(3)), TimeWindow(day, dt.time(2), dt.time(3))
    assert sorted([late, W, early]) == [W, early, late]  # by (date, start, end)
    for record in (config, early, RunConfig()):
        with pytest.raises(AttributeError):
            record.p = 5
        assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    labels = [f"L{i}" for i in range(n)]
    cells = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
            st.integers(min_value=0, max_value=10_000),
            max_size=n * n,
        )
    )
    return labels, SparseOdm(W, cells)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_marginals_match_dense_brute_force(data):
    labels, m = data
    dense = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for (o, d), v in m.cells():
        dense[labels.index(o), labels.index(d)] = v
    outbound, inbound = dense_oracle.dense_marginals(dense)
    got = marginals(m)
    for i, label in enumerate(labels):
        assert got.get(("inbound", None, label), 0) == inbound[i]
        assert got.get(("outbound", label, None), 0) == outbound[i]


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_marginal_mass_balance(data):
    _, m = data
    off_diag = sum(v for (o, d), v in m.cells() if o != d)
    got = marginals(m)
    assert sum(v for key, v in got.items() if key[0] == "inbound") == off_diag
    assert sum(v for key, v in got.items() if key[0] == "outbound") == off_diag


def test_public_api_resolves():
    import odmwatch

    for name in odmwatch.__all__:
        assert getattr(odmwatch, name) is not None, name
    namespace: dict = {}
    exec("from odmwatch import *", namespace)
    assert set(odmwatch.__all__) <= set(namespace)

    # Report rows are columns: no per-row objects, no row-tuple helpers.
    from odmwatch import detector

    for name in ("KeyOutcome", "Signal", "FlowKey", "HistoryQuery", "HistorySlice", "ThresholdSet"):
        assert not hasattr(odmwatch, name), name
        assert name not in odmwatch.__all__, name
    for name in (
        "KeyOutcome",
        "Signal",
        "_materialize_outcomes",
        "_outcome_row",
        "iter_outcome_rows",
        "_report_rows",
        "_rows",
        "_INC",
        # One row encoder (ReportRows.fields) for both report formats.
        "_jsonl_rows",
        "_json_numbers",
        "_STATUS_JSON",
        "_DIRECTION_JSON",
        "_LEVEL_JSON",
        "csv",
    ):
        assert not hasattr(detector, name), name
    assert not hasattr(detector.ReportRows, "columns")
    assert not hasattr(odmwatch.ingestion, "records_for")
    assert "timings" not in detector.WindowReport._fields
    assert not hasattr(odmwatch.core, "FlowKey")
    assert not hasattr(odmwatch.store, "HistoryQuery") and not hasattr(odmwatch.store, "HistorySlice")
    assert not hasattr(detector, "ThresholdSet")
