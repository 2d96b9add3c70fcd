"""In-memory scale benchmark for the detection pipeline.

Generates a synthetic day at a requested scale (areas, nonzero cells per
window, windows, history depth) directly in the engine's columnar form,
runs the full per-window detection, and reports wall-clock per stage.
Matrices are generated lazily per window so peak memory stays bounded by
one window's worth of history.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from ._engine import Columnar, evaluate_window
from .core import DetectorConfig
from .synth import sample_distinct_codes


class BenchResult(NamedTuple):
    areas: int
    nonzeros: int
    windows: int
    p: int
    generation_s: float
    stages_s: dict[str, float]
    summary: dict[str, int]

    @property
    def detection_total_s(self) -> float:
        return sum(self.stages_s.values())

    def lines(self) -> list[str]:
        out = [
            f"workload: {self.areas} areas, {self.nonzeros} nonzero cells/window, "
            f"{self.windows} windows, p={self.p}",
            f"generation: {self.generation_s:.2f} s (not part of detection)",
        ]
        for stage in ("stats", "threshold", "detect"):
            out.append(f"stage {stage}: {self.stages_s.get(stage, 0.0):.2f} s")
        out.append(f"detection total: {self.detection_total_s:.2f} s")
        out.append(
            "series evaluated: {keys} (signals: {signal})".format(
                keys=self.summary.get("keys", 0), signal=self.summary.get("signal", 0)
            )
        )
        return out


def run_bench(
    areas: int, nonzeros: int, windows: int, config: DetectorConfig, seed: int
) -> BenchResult:
    """Time one full date's detection at the requested scale."""
    stages = {"stats": 0.0, "threshold": 0.0, "detect": 0.0}
    generation = 0.0
    summary: dict[str, int] = {}

    for w in range(windows):
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, 11, w])
        codes = sample_distinct_codes(rng, areas * areas, nonzeros)
        # Per-date values: stable cell set, independently jittered volumes.
        matrices = []
        for k in range(config.p + 1):
            vals_rng = np.random.default_rng([seed, 13, w, k])
            values = vals_rng.integers(config.th, config.th + 201, size=nonzeros, dtype=np.int64)
            matrices.append(Columnar(codes, values))
        generation += time.perf_counter() - t0

        evaluation = evaluate_window(
            matrices[0], matrices[1:], areas, config.th, config.quantile, config.bounds_mode
        )
        for stage, seconds in evaluation.timings.items():
            stages[stage] += seconds
        for name, value in evaluation.summary().items():
            summary[name] = summary.get(name, 0) + value

    return BenchResult(
        areas=areas,
        nonzeros=nonzeros,
        windows=windows,
        p=config.p,
        generation_s=generation,
        stages_s=stages,
        summary=summary,
    )
