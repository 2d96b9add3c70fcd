import json
from pathlib import Path

import pytest

from bench import END_TO_END, PER_LAYER
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match_the_generator():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_metrics_match_what_the_run_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_digest_seed_has_a_recorded_digest(tmp_path, monkeypatch):
    import bench

    for name in WORKLOADS:
        assert all(bench.load_digest(name, seed) for seed in bench.DIGEST_SEEDS)
        assert bench.load_digest(name, max(bench.DIGEST_SEEDS) + 1) is None
    partial = tmp_path / "digests.json"
    partial.write_text(json.dumps({"uniform-daily": {"0": "ab"}}))
    monkeypatch.setattr(bench, "DIGESTS", partial)
    assert bench.load_digest("uniform-daily", 0) == "ab"
    with pytest.raises(KeyError, match="uniform-daily seed 1"):
        bench.load_digest("uniform-daily", 1)
