"""Vectorized window evaluation over integer-encoded sparse matrices.

A matrix is a pair of aligned arrays: unique sorted int64 cell codes
(origin * n_areas + destination) and int64 counts. One window's detection
aligns the current and history matrices on the union of their codes and
evaluates every monitored series with one rule, elementwise.

The union is built by concatenating the already sorted code arrays, merging
the sorted runs with a stable argsort, and keeping the first code of each
run of equal codes; the same permutation gives each period's positions in
the union, so no period is searched for its codes. The engine's memory
follows one window's series, not the stacked period codes: of the arrays as
long as all the periods' codes, each is freed once the next exists, and only
the per-period positions, in the narrowest unsigned dtype that holds the
union's size, outlive the union. The engine keeps no reference to a past
period past its use, so a caller that keeps none either has its codes freed
once the union is built and its counts once its series vector is placed.

Each period becomes one integer series vector in report order: the m cells
of the union, then one inbound marginal per destination, then one outbound
marginal per origin. The period's counts are scattered into the first m
slots and both diagonal-excluded marginal sums are written into the rest.
Exact integer sums of the vector and its squares are accumulated period by
period, one vector at a time, and the whole vector is evaluated at once: a
window's result is one block of every series in report order, with each
series' origin and destination area ids.

A period's vector is int64 while every value is at most
``isqrt((2^63 - 1) / n)``, so that the sums of squares fit; past that cap it
is placed again on an object vector of exact Python ints, and the sums turn
to Python ints from that period on. Sums are cast to float64 before any
division, so both give the same results. The float series (ma, sd, the
bounds and the increment) are computed in place.

Rules, per series (a cell, or an area's diagonal-excluded inbound or
outbound marginal), over the n available past periods (a missing period is
left out of n; a series absent from an available period counts 0 there):

* ``ma = total / n`` and ``sd = sqrt(max(0, sumsq / n - ma^2))``, from exact
  integer sums cast to float64. Once ``n * value^2`` passes 2^53 the two
  terms no longer cancel exactly, so a series whose available values are
  all equal gets ``sd = 0`` exactly (constant history rule).
* ``t`` is the nearest-rank q-quantile of the current cells at or above
  th, or th itself when none is (a degenerate window).
* ``upper = ma + max(t, 3 sd)``; with ``low = min(ma - t, ma - 3 sd)``,
  ``lower = max(low, 0)`` in ``clamped`` mode and ``min(low, 0)`` in
  ``paper_literal`` mode. The literal lower bound is never positive, so on
  count data it never fires.
* Status: missing data when n = 0, else below eligibility when ma < th,
  else a signal when the observed value is outside [lower, upper]. The
  increment is ``(observed / ma - 1) * 100`` (+inf for a flow born from a
  zero average), and the level is 1, 2 or 3 for |inc| < 50, < 100, >= 100.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Sequence

import numpy as np

STATUS_NO_SIGNAL = 0
STATUS_SIGNAL = 1
STATUS_BELOW_ELIGIBILITY = 2
STATUS_MISSING_DATA = 3

DIR_NONE = 0
DIR_UPPER = 1
DIR_LOWER = 2


class Columnar(NamedTuple):
    """One matrix as sorted unique int64 cell codes plus counts."""

    codes: np.ndarray
    values: np.ndarray


def columnar_from_entries(matrix, ranks: np.ndarray, n_areas: int) -> Columnar:
    """Re-encode a matrix's codes and counts over its ``len(ranks)`` labels
    onto ``n_areas`` labels, its label i becoming ``ranks[i]``. Increasing
    ranks keep the codes sorted. The counts are viewed, not copied."""
    codes, counts = (np.frombuffer(a, np.int64) for a in (matrix.codes, matrix.counts))
    origins, dests = np.divmod(codes, max(1, len(ranks)))
    return Columnar(ranks[origins] * n_areas + ranks[dests], counts)


class _SeriesBlock(NamedTuple):
    observed: np.ndarray
    status: np.ndarray
    ma: np.ndarray | None = None
    sd: np.ndarray | None = None
    direction: np.ndarray | None = None
    level: np.ndarray | None = None
    inc: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


class SeriesBlock(_SeriesBlock):
    """Per-series evaluation results for one group of monitored series."""

    __slots__ = ()

    def __len__(self) -> int:
        """The number of series, not of fields."""
        return len(self.observed)

    @classmethod
    def _make(cls, iterable) -> SeriesBlock:
        """As ``NamedTuple._make``, which ``_replace`` calls, but without its
        check of ``len()``: that counts series here, not fields."""
        return cls(*iterable)

    def take(self, index) -> SeriesBlock:
        """The block at ``index`` (a slice or an index array) of every array."""
        return SeriesBlock(*(None if v is None else v[index] for v in self))


SERIES_KINDS = ("cell", "inbound", "outbound")  # in report order


class WindowEvaluation(NamedTuple):
    """One window's evaluation. ``series`` holds every monitored series in
    report order: the cells in ``cell_codes`` order, then one inbound
    marginal per destination, then one outbound marginal per origin, each
    kind ending at its row in ``stops``. ``origin`` and ``destination`` are
    each series' area ids, -1 for the side a marginal lacks."""

    available: int
    t: float
    eligible_count: int
    degenerate: bool
    cell_codes: np.ndarray
    series: SeriesBlock
    origin: np.ndarray
    destination: np.ndarray
    stops: tuple[int, int, int]
    timings: dict[str, float]

    def blocks(self) -> list[tuple[str, np.ndarray, SeriesBlock]]:
        """Per kind, its name, its cell codes or area ids, and its series."""
        ids = (self.cell_codes, self.destination, self.origin)
        spans = map(slice, (0, *self.stops), self.stops)
        return [(kind, i[span], self.series.take(span)) for kind, i, span in zip(SERIES_KINDS, ids, spans)]

    def summary(self) -> dict[str, int]:
        """Series counts: all, by status, by signal direction, by signal level."""
        series = self.series
        scored = series.direction is not None  # a missing-data block has none
        status = np.bincount(series.status, minlength=4).tolist()
        direction = np.bincount(series.direction if scored else [], minlength=3).tolist()
        signal = series.level[series.status == STATUS_SIGNAL] if scored else []
        level = np.bincount(signal, minlength=4).tolist()
        return {
            "keys": len(series),
            "no_signal": status[STATUS_NO_SIGNAL],
            "signal": status[STATUS_SIGNAL],
            "below_eligibility": status[STATUS_BELOW_ELIGIBILITY],
            "missing_data": status[STATUS_MISSING_DATA],
            "upper": direction[DIR_UPPER],
            "lower": direction[DIR_LOWER],
            "level1": level[1],
            "level2": level[2],
            "level3": level[3],
        }


def nearest_rank(q: float, n: int) -> int:
    """1-based nearest-rank index: ceil(q*n), computed exactly.

    The float q is expanded to its exact binary ratio a/b before the ceil,
    taken in integers, so that ranks never drift by one from rounding
    (e.g. q=0.7, n=10).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    a, b = q.as_integer_ratio()
    return max(1, min(n, -((-a * n) // b)))  # ceil(a * n / b)


def _value_cap(periods: int) -> int:
    # n * value^2 must stay inside int64 during the exact accumulation.
    return math.isqrt((2**63 - 1) // max(1, periods))


def _differs(sorted_keys: np.ndarray) -> np.ndarray:
    """A mask of the keys that differ from the key before; the first is set."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and each key's index among them, in the
    narrowest unsigned dtype that holds their count: a stable argsort, then
    a mask of the sorted keys that differ from the one before. Of the arrays
    as long as ``keys``, each is freed once the next one exists."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = _differs(keys)
    unique = keys[first]
    del keys
    index = np.cumsum(first, dtype=np.min_scalar_type(len(unique)))
    del first
    index -= 1
    inverse = np.empty_like(index)
    inverse[order] = index
    return unique, inverse


def _classify(observed, ma, sd, t_value: float, th: int, mode: str) -> SeriesBlock:
    """Every series' bounds, status, direction, increment and level, from
    its observed value and its history's ``ma`` and ``sd``. Each float series
    is computed in place, so at most one temporary of the series' length
    is held beside the results."""
    upper = 3.0 * sd
    lower = np.subtract(ma, upper)  # ma - 3 sd
    np.maximum(t_value, upper, out=upper)
    upper += ma
    np.minimum(ma - t_value, lower, out=lower)
    (np.minimum if mode == "paper_literal" else np.maximum)(lower, 0.0, out=lower)
    eligible = ma >= th
    up_sig = eligible & (observed > upper)
    lo_sig = eligible & (observed < lower)
    status = np.zeros(len(observed), dtype=np.int8)
    status[~eligible] = STATUS_BELOW_ELIGIBILITY
    status[up_sig | lo_sig] = STATUS_SIGNAL
    direction = np.zeros(len(observed), dtype=np.int8)
    direction[up_sig] = DIR_UPPER
    direction[lo_sig] = DIR_LOWER
    del eligible, up_sig, lo_sig
    inc = observed.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        inc /= ma
    inc -= 1.0
    inc *= 100.0
    zero_ma = ma == 0.0
    if zero_ma.any():
        inc[zero_ma & (observed > 0)] = math.inf
        inc[zero_ma & (observed == 0)] = 0.0
    level = np.ones(len(observed), dtype=np.int8)
    for bound in (50.0, 100.0):  # |inc| >= bound, without a float temporary
        level += (inc >= bound) | (inc <= -bound)
    return SeriesBlock(observed, status, ma, sd, direction, level, inc, lower, upper)


def evaluate_window(
    current: Columnar,
    history: Sequence[Columnar | None],
    n_areas: int,
    th: int,
    q: float,
    mode: str,
) -> WindowEvaluation:
    """Evaluate every cell and marginal series of one window.

    ``history`` lists the p past periods (``None`` = missing period). No
    reference to a past period is kept past its use: when the caller keeps
    none either, its codes are freed once the union is built and its counts
    once its series vector is placed.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    a = np.int64(n_areas)
    periods = [current, *(h for h in history if h is not None)]
    del history
    n = len(periods) - 1
    cap = _value_cap(n)
    counts = [mat.values for mat in periods]
    codes = [mat.codes for mat in periods]
    del periods
    sizes = np.cumsum([len(c) for c in codes])[:-1]
    keys = np.concatenate(codes)
    del codes

    # Each code array is sorted, so the stable sort only merges runs. Each
    # code's index in the union also gives every period's positions in it.
    universe, positions = distinct(keys)
    del keys
    slots = np.split(positions, sizes)
    del positions  # the slots are views of it
    m = len(universe)

    # Outbound series group by origin (the code order); inbound series need
    # one permutation by destination, reused for every period. The areas of
    # the cells are taken again from the codes once the series are built.
    origin, destination = np.divmod(universe, a)
    offdiag = origin != destination
    out_starts = np.flatnonzero(_differs(origin))
    dest_perm = np.argsort(destination, kind="stable")
    in_starts = np.flatnonzero(_differs(destination[dest_perm]))
    in_areas, out_areas = destination[dest_perm[in_starts]], origin[out_starts]
    del origin, destination
    inbound = slice(m, m + len(in_starts))
    outbound = slice(inbound.stop, inbound.stop + len(out_starts))

    def series(k: int) -> np.ndarray:
        """Period k's series vector: cells, then inbound, then outbound. It
        is int64 while every value is at most the cap, else of Python ints."""
        for dtype in (np.int64, object):
            values = np.zeros(outbound.stop, dtype=dtype)
            values[slots[k]] = counts[k]
            masked = np.where(offdiag, values[:m], 0)
            np.add.reduceat(masked[dest_perm], in_starts, out=values[inbound])
            np.add.reduceat(masked, out_starts, out=values[outbound])
            if dtype is object or not len(values) or int(values.max()) <= cap:
                return values

    # Exact integer sums over the available periods, and which series held
    # the same value in every one of them. Once a period's vector holds
    # Python ints, so do the sums.
    for k in range(1, n + 1):
        values = series(k)
        counts[k] = slots[k] = None
        if k == 1:
            base, total, sumsq = values, values.copy(), values * values
            constant = np.ones(len(values), dtype=bool)
        else:
            if values.dtype == object and total.dtype != object:
                total, sumsq = total.astype(object), sumsq.astype(object)
            constant &= values == base
            total += values
            values *= values
            sumsq += values
    values = None  # the last period's vector goes before the current one is built
    observed = series(0)
    del slots, offdiag, dest_perm
    if n:
        ma = total.astype(np.float64)
        del total
        ma /= n
        sd = sumsq.astype(np.float64)
        del sumsq
        sd /= n
        sd -= ma * ma
        np.maximum(0.0, sd, out=sd)
        np.sqrt(sd, out=sd)
        sd[constant] = 0.0
        del base, constant
    timings["stats"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    eligible_vals = current.values[current.values >= th]
    n_eligible = len(eligible_vals)
    t_value = float(th)  # when no cell reached th: a degenerate window
    if n_eligible:
        rank = nearest_rank(q, n_eligible)
        t_value = float(np.partition(eligible_vals, rank - 1)[rank - 1])
    timings["threshold"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    if n:
        every = _classify(observed, ma, sd, t_value, th, mode)
    else:
        every = SeriesBlock(observed, np.full(len(observed), STATUS_MISSING_DATA, dtype=np.int8))
    timings["detect"] = time.perf_counter() - t2

    # Each series' area ids in report order, -1 for the side a marginal lacks, built
    # once _classify has freed its temporaries, so as not to raise the peak memory.
    origin, destination = np.divmod(universe, a)
    origin = np.concatenate([origin, np.full(len(in_areas), -1), out_areas])
    destination = np.concatenate([destination, in_areas, np.full(len(out_areas), -1)])
    return WindowEvaluation(
        available=n,
        t=t_value,
        eligible_count=n_eligible,
        degenerate=n_eligible == 0,
        cell_codes=universe,
        series=every,
        origin=origin,
        destination=destination,
        stops=(m, inbound.stop, outbound.stop),
        timings=timings,
    )
