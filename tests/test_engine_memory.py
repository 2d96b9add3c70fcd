"""The engine's working memory: arrays as long as every period's codes are
freed as soon as the next one exists, the float series are computed in
place, and a past period handed over is freed once placed."""

import tracemalloc

import numpy as np

from odmwatch import _engine

# Measured at 65.7 bytes per series (numpy 2.4, 200k cells of a 320k-cell
# pool in each of 5 periods); the earlier engine held 201. The bound leaves
# about 20% for other numpy versions' sort buffers.
BYTES_PER_SERIES = 80


def test_engine_peak_above_its_inputs_is_bounded_per_series():
    rng = np.random.default_rng(7)
    areas, pool, cells = 2000, 320_000, 200_000
    codes = np.sort(rng.choice(areas * areas, size=pool, replace=False))

    def period():  # the pool's cells churn from period to period
        keep = np.sort(rng.choice(pool, size=cells, replace=False))
        return _engine.Columnar(codes[keep], rng.integers(1, 200, size=cells, dtype=np.int64))

    tracemalloc.start()
    try:
        current = period()
        history = [period() for _ in range(4)]
        inputs = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        # The history goes over in a list no name here holds.
        evaluation = _engine.evaluate_window(
            current, [history.pop() for _ in range(4)], areas, 20, 0.75, "clamped"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    series = len(evaluation.series.observed)
    assert series > pool
    assert (peak - inputs) / series <= BYTES_PER_SERIES
