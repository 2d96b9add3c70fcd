"""The traced benchmark (``e2ebench --trace 1``) wraps odmwatch functions by
name. Renaming or removing one of them fails here as well as there."""

import sys
from pathlib import Path

from odmwatch import _engine

BENCH = str(Path(__file__).resolve().parents[1] / "e2ebench")


def test_traced_benchmark_wraps_and_restores_every_layer():
    original = _engine.columnar_from_entries
    sys.path.insert(0, BENCH)
    try:
        import spans

        restore = spans.instrument(spans.Recorder())
    finally:
        sys.path.remove(BENCH)
    try:
        assert _engine.columnar_from_entries is not original
    finally:
        restore()
    assert _engine.columnar_from_entries is original
