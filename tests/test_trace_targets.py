"""The traced benchmark (``e2ebench --trace 1``) wraps odmwatch functions by
name. Renaming or removing one of them fails here as well as there."""

import sys
from pathlib import Path

import numpy as np

from odmwatch import _engine

BENCH = str(Path(__file__).resolve().parents[1] / "e2ebench")


def import_spans():
    sys.path.insert(0, BENCH)
    try:
        import spans
    finally:
        sys.path.remove(BENCH)
    return spans


def test_traced_benchmark_wraps_and_restores_every_layer():
    spans = import_spans()
    original = _engine.columnar_from_entries
    restore = spans.instrument(spans.Recorder())
    try:
        assert _engine.columnar_from_entries is not original
    finally:
        restore()
    assert _engine.columnar_from_entries is original


def test_traced_engine_counters_match_the_evaluation():
    # Cells (0,1), (1,0) and (2,2) of 3 areas: every kind holds series.
    codes = np.array([1, 3, 8], dtype=np.int64)
    current = _engine.Columnar(codes, np.array([30, 90, 5], dtype=np.int64))
    history = [_engine.Columnar(codes, np.array([40, 50, 5], dtype=np.int64))] * 2
    evaluation = _engine.evaluate_window(current, history, 3, 20, 0.75, "clamped")
    assert all(len(block) for _, _, block in evaluation.blocks())
    counts = {}
    import_spans()._count_engine(counts, (current, history), evaluation)
    assert counts["keys"] == evaluation.summary()["keys"] == 9
    assert counts["universe_cells"] == len(evaluation.cell_codes)
