"""The daily quantile threshold and the per-series control bounds, as the
engine computes them (see the ``_engine`` module docstring for the rules)."""

import datetime as dt
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate_cell, report_threshold
from odmwatch import DetectorConfig, SparseOdm, TimeWindow
from odmwatch._engine import Columnar, SeriesBlock, evaluate_window, nearest_rank

W = TimeWindow.full_day(dt.date(2021, 6, 7))


def matrix_of(values):
    return SparseOdm(W, {(f"O{i}", f"D{i}"): v for i, v in enumerate(values)})


def test_quantile_worked_example():
    result = report_threshold(matrix_of([20, 40, 60, 80]), th=20, q=0.75)
    assert result.t == 60.0
    assert result.eligible_count == 4
    assert not result.degenerate


def test_quantile_single_value():
    result = report_threshold(matrix_of([50]), th=20, q=0.75)
    assert result.t == 50.0


def test_quantile_fallback_when_nothing_eligible():
    result = report_threshold(matrix_of([5, 10, 19]), th=20, q=0.75)
    assert result.t == 20.0
    assert result.eligible_count == 0
    assert result.degenerate


def test_quantile_ignores_below_threshold():
    with_noise = matrix_of([20, 40, 60, 80, 1, 2, 3, 19])
    without = matrix_of([20, 40, 60, 80])
    assert report_threshold(with_noise).t == report_threshold(without).t


def test_nearest_rank_exactness():
    # 0.7 * 10 rounds to 7.000000000000001 in floats; the exact rank is 7.
    assert nearest_rank(0.7, 10) == 7
    assert nearest_rank(0.75, 4) == 3
    assert nearest_rank(0.75, 1) == 1
    assert nearest_rank(0.5, 2) == 1
    assert nearest_rank(0.999, 1000) == 999


def test_nearest_rank_matches_an_exact_fraction_ceil():
    quantiles = [k / 100 for k in range(1, 100)] + [
        1 / 3,
        2 / 3,
        0.1 + 0.2,
        1e-9,
        2.0**-60,
        1 - 2.0**-53,
        math.nextafter(0.5, 0.0),
        math.nextafter(0.5, 1.0),
        math.nextafter(0.7, 1.0),
    ]
    for q in quantiles:
        for n in range(1, 501):
            assert nearest_rank(q, n) == math.ceil(Fraction(q) * n), (q, n)


# The history of the worked example: ma 100, sd 10.
MA100_SD10 = [90, 110, 90, 110]


def test_bounds_clamped_example():
    b = evaluate_cell(MA100_SD10, t=60, mode="clamped")
    assert (b.ma, b.sd, b.t) == (100.0, 10.0, 60.0)
    assert b.upper == 160.0
    assert b.lower == 40.0


def test_bounds_literal_example():
    b = evaluate_cell(MA100_SD10, t=60, mode="paper_literal")
    assert b.upper == 160.0
    assert b.lower == 0.0


def test_bounds_clamped_floor_at_zero():
    b = evaluate_cell([30, 30, 30, 30], t=60, mode="clamped")
    assert (b.ma, b.sd) == (30.0, 0.0)
    assert b.upper == 90.0
    assert b.lower == 0.0


def test_bounds_sigma_dominates_when_large():
    b = evaluate_cell([70, 130, 70, 130], t=60, mode="clamped")
    assert (b.ma, b.sd) == (100.0, 30.0)
    assert b.upper == 190.0  # 3*sd = 90 > t = 60
    assert b.lower == 10.0


def test_bounds_reject_all_missing():
    # With every period missing there are no bounds: the series is
    # reported as missing data.
    b = evaluate_cell([None, None, None, None], observed=120, t=60)
    assert b.status == "missing_data"
    assert b.lower is None and b.upper is None and b.ma is None


def test_bounds_reject_unknown_mode():
    with pytest.raises(ValueError):
        DetectorConfig(bounds_mode="sideways")


histories = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4)
quantiles = st.integers(min_value=1, max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(histories, quantiles)
def test_upper_dominates_both_terms(history, t):
    b = evaluate_cell(history, observed=1, t=t, th=0, mode="clamped")
    assert b.upper >= b.ma + t
    assert b.upper >= b.ma + 3.0 * b.sd


@settings(max_examples=200, deadline=None)
@given(histories, quantiles)
def test_literal_lower_never_positive(history, t):
    b = evaluate_cell(history, observed=1, t=t, th=0, mode="paper_literal")
    assert b.lower <= 0.0


@settings(max_examples=200, deadline=None)
@given(histories, quantiles)
def test_clamped_lower_bounds(history, t):
    b = evaluate_cell(history, observed=1, t=t, th=0, mode="clamped")
    assert b.lower >= 0.0
    assert b.lower <= max(b.ma - t, 0.0)
    assert b.lower <= max(b.ma - 3.0 * b.sd, 0.0)
    assert b.lower <= b.upper


@settings(max_examples=100, deadline=None)
@given(histories, quantiles, st.integers(min_value=0, max_value=1000))
def test_wider_t_widens_bounds(history, t, extra):
    for mode in ("clamped", "paper_literal"):
        narrow = evaluate_cell(history, observed=1, t=t, th=0, mode=mode)
        wide = evaluate_cell(history, observed=1, t=t + extra, th=0, mode=mode)
        assert wide.upper >= narrow.upper
        assert wide.lower <= narrow.lower


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=40), st.randoms())
def test_quantile_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert report_threshold(matrix_of(values)).t == report_threshold(matrix_of(shuffled)).t


def test_relative_increment():
    assert evaluate_cell([100] * 4, observed=250).inc == 150.0
    assert evaluate_cell([100] * 4, observed=10).inc == -90.0
    assert evaluate_cell([0] * 4, observed=5).inc == float("inf")
    # A series 0 now and in its history: the marginals of an area whose only
    # cell is on the diagonal.
    diagonal = Columnar(np.array([0], dtype=np.int64), np.array([7], dtype=np.int64))
    evaluation = evaluate_window(diagonal, [diagonal], 1, 0, 0.75, "clamped")
    blocks = {kind: block for kind, _, block in evaluation.blocks()}
    assert blocks["outbound"].inc.tolist() == [0.0]
    assert blocks["inbound"].inc.tolist() == [0.0]


@pytest.mark.parametrize("n", [0, 3, 9])
def test_series_block_replace_keeps_its_series(n):
    # len() counts a block's series, not its fields.
    block = SeriesBlock(np.arange(n, dtype=float), np.zeros(n, dtype=np.int8))
    replaced = block._replace(ma=np.ones(n))
    assert type(replaced) is SeriesBlock and len(replaced) == n
    assert replaced.observed is block.observed and replaced.ma.tolist() == [1.0] * n
    assert replaced.sd is None
    with pytest.raises(ValueError):
        block._replace(median=1)
