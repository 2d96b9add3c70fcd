"""Dense brute-force reference for window evaluation.

Everything here is computed from the definitions on full dense matrices:
marginals by explicit row/column loops, the quantile by sorting, statuses
key by key. No code is shared with the sparse production path; tests
compare the two key for key.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def dense_marginals(matrix: np.ndarray) -> tuple[list[int], list[int]]:
    """(outbound, inbound) sums excluding the diagonal, by explicit loops,
    in Python ints so that no sum wraps."""
    n = matrix.shape[0]
    outbound = [0] * n
    inbound = [0] * n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            outbound[i] += int(matrix[i, j])
            inbound[j] += int(matrix[i, j])
    return outbound, inbound


def quantile_threshold(current: np.ndarray, th: int, q: float) -> tuple[float, int, bool]:
    values = sorted(int(v) for v in current.ravel() if v > 0 and v >= th)
    if not values:
        return float(th), 0, True
    rank = math.ceil(Fraction(*q.as_integer_ratio()) * len(values))
    rank = max(1, min(len(values), rank))
    return float(values[rank - 1]), len(values), False


def series_outcome(
    observed: int,
    history_values: list[int],
    th: int,
    t: float,
    mode: str,
) -> dict:
    """Status record for one series, straight from the definitions."""
    n = len(history_values)
    if n == 0:
        return {"status": "missing_data", "observed": observed}
    total = sum(history_values)
    sumsq = sum(v * v for v in history_values)
    ma = float(total) / n
    if n * sumsq == total * total:
        # Equality in Cauchy-Schwarz: every history value is the same.
        sd = 0.0
    else:
        sd = math.sqrt(max(0.0, float(sumsq) / n - ma * ma))
    base = {"observed": observed, "ma": ma, "sd": sd}
    if ma < th:
        return {"status": "below_eligibility", **base}
    upper = max(ma + t, ma + 3.0 * sd)
    if mode == "paper_literal":
        lower = min(ma - t, ma - 3.0 * sd, 0.0)
    else:
        lower = max(min(ma - t, ma - 3.0 * sd), 0.0)
    if lower <= observed <= upper:
        return {"status": "no_signal", **base}
    if ma == 0.0:
        inc = math.inf if observed > 0 else 0.0
    else:
        inc = (observed / ma - 1.0) * 100.0
    if abs(inc) < 50.0:
        level = 1
    elif abs(inc) < 100.0:
        level = 2
    else:
        level = 3
    return {
        "status": "signal",
        "direction": "upper" if observed > upper else "lower",
        "level": level,
        "inc": inc,
        "lower": lower,
        "upper": upper,
        **base,
    }


def evaluate_dense(
    current: np.ndarray,
    history: list[np.ndarray | None],
    labels: list[str],
    th: int,
    q: float,
    mode: str,
) -> dict:
    """Expected outcome for every monitored key of one window.

    Returns {"t": ..., "outcomes": {(kind, origin, destination): record}}.
    """
    n_areas = len(labels)
    available = [h for h in history if h is not None]
    t, eligible_count, degenerate = quantile_threshold(current, th, q)

    in_universe = current > 0
    for h in available:
        in_universe = in_universe | (h > 0)

    outcomes: dict[tuple, dict] = {}
    for i in range(n_areas):
        for j in range(n_areas):
            if not in_universe[i, j]:
                continue
            outcomes[("cell", labels[i], labels[j])] = series_outcome(
                int(current[i, j]), [int(h[i, j]) for h in available], th, t, mode
            )

    origins = sorted({i for i in range(n_areas) if in_universe[i, :].any()})
    dests = sorted({j for j in range(n_areas) if in_universe[:, j].any()})
    cur_out, cur_in = dense_marginals(current)
    hist_out = []
    hist_in = []
    for h in available:
        o, m = dense_marginals(h)
        hist_out.append(o)
        hist_in.append(m)
    for j in dests:
        outcomes[("inbound", None, labels[j])] = series_outcome(
            int(cur_in[j]), [int(m[j]) for m in hist_in], th, t, mode
        )
    for i in origins:
        outcomes[("outbound", labels[i], None)] = series_outcome(
            int(cur_out[i]), [int(o[i]) for o in hist_out], th, t, mode
        )

    return {
        "t": t,
        "eligible_count": eligible_count,
        "degenerate": degenerate,
        "outcomes": outcomes,
    }
