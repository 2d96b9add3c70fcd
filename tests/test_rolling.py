"""Rolling mean and deviation of a series over its history, as the engine
computes them (see the ``_engine`` module docstring for the rules)."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle
from helpers import cell_stats, series_values
from odmwatch import SparseOdm, TimeWindow
from odmwatch._engine import Columnar, evaluate_window

MONDAY = dt.date(2021, 6, 7)


def test_constant_series():
    assert cell_stats([100, 100, 100, 100]) == (100.0, 0.0, 4)


def test_alternating_series():
    ma, sd, _ = cell_stats([90, 110, 90, 110])
    assert ma == 100.0
    assert sd == 10.0


def test_missing_slots_excluded_from_n():
    assert cell_stats([120, None, 80, None]) == (100.0, 20.0, 2)


def test_absent_key_counts_as_zero():
    # The cell absent from one available matrix: value 0, still 4 periods.
    ma, _, available = cell_stats([100, 0, 100, 100])
    assert available == 4
    assert ma == 75.0


def test_all_missing_is_flagged():
    assert cell_stats([None, None]) == (None, None, 0)


def test_marginal_key_stats():
    dates = (MONDAY - dt.timedelta(days=7),)
    m = SparseOdm(
        TimeWindow.full_day(dates[0]), {("A", "B"): 10, ("C", "B"): 5, ("B", "B"): 99}
    )
    current = SparseOdm(TimeWindow.full_day(MONDAY), {})
    _, ma = series_values(current, [m])[("inbound", None, "B")]
    assert ma == 15.0


def universe(current, history):
    """The window's monitored series, in report order."""
    return list(series_values(current, history))


def test_key_universe_union():
    current = SparseOdm(TimeWindow.full_day(MONDAY), {("A", "B"): 1})
    past = SparseOdm(TimeWindow.full_day(MONDAY - dt.timedelta(days=7)), {("A", "C"): 2})
    assert set(universe(current, [past])) == {
        ("cell", "A", "B"),
        ("cell", "A", "C"),
        ("outbound", "A", None),
        ("inbound", None, "B"),
        ("inbound", None, "C"),
    }


def test_key_universe_empty():
    current = SparseOdm(TimeWindow.full_day(MONDAY), {})
    assert universe(current, [None]) == []


def test_key_universe_diagonal_only():
    current = SparseOdm(TimeWindow.full_day(MONDAY), {("A", "A"): 5})
    assert set(universe(current, [None])) == {
        ("cell", "A", "A"),
        ("outbound", "A", None),
        ("inbound", None, "A"),
    }


def test_key_universe_is_sorted():
    current = SparseOdm(
        TimeWindow.full_day(MONDAY), {("B", "A"): 1, ("A", "B"): 1, ("A", "A"): 1}
    )
    keys = universe(current, [None])
    # Kind names sort cell < inbound < outbound, the report order; within a
    # kind, series sort by area labels.
    assert keys == sorted(keys, key=lambda k: (k[0], k[1] or "", k[2] or ""))
    assert [k[0] for k in keys] == sorted(k[0] for k in keys)


values_lists = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(values_lists)
def test_sd_identity(values):
    ma, sd, _ = cell_stats(values)
    n = len(values)
    mean_sq = sum(v * v for v in values) / n
    assert sd is not None and ma is not None
    assert sd**2 + ma**2 == pytest.approx(mean_sq, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(values_lists, st.randoms())
def test_order_invariance(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert cell_stats(values) == cell_stats(shuffled)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=6))
@example(value=54794159, n=3)
@example(value=956535993, n=3)
def test_constant_series_exact(value, n):
    ma, sd, _ = cell_stats([value] * n)
    assert ma == float(value)
    assert sd == 0.0


def test_engine_constant_history_exact():
    # Cells (0,1) and (1,0) of a 2-area matrix: each is also the only term
    # of one outbound and one inbound marginal, so all three series kinds
    # see a history of three equal large values.
    current = Columnar(
        np.array([1, 2], dtype=np.int64), np.array([956535993, 54794159], dtype=np.int64)
    )
    evaluation = evaluate_window(current, [current] * 3, 2, 20, 0.75, "clamped")
    for _, _, block in evaluation.blocks():
        assert block.sd.tolist() == [0.0, 0.0]


def test_marginalize_then_average_equals_average_then_marginalize():
    # Marginal stats are linear: the mean of per-date marginals equals the
    # marginal of the mean matrix.
    dates = tuple(MONDAY - dt.timedelta(days=7 * k) for k in (1, 2))
    m1 = SparseOdm(TimeWindow.full_day(dates[0]), {("A", "B"): 10, ("C", "B"): 2})
    m2 = SparseOdm(TimeWindow.full_day(dates[1]), {("A", "B"): 20, ("B", "B"): 9})
    current = SparseOdm(TimeWindow.full_day(MONDAY), {})
    _, ma = series_values(current, [m1, m2])[("inbound", None, "B")]
    per_date = [series_values(m)[("inbound", None, "B")][0] for m in (m1, m2)]
    assert ma == sum(per_date) / 2
    mean_matrix_marginal = (10 + 2 + 20) / 2
    assert ma == mean_matrix_marginal


def test_float_cast_matches_engine_semantics():
    # Huge totals: the dense oracle must round the integer sum to float
    # before dividing, exactly like the engine's int64 -> float64 cast.
    big = 2**60 + 3
    record = dense_oracle.series_outcome(0, [big, big], th=0, t=0.0, mode="clamped")
    assert record["ma"] == float(2 * big) / 2
    assert math.isfinite(record["ma"])
