"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import datetime as dt
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    cell_stats,
    evaluate_cell,
    report_threshold,
    row_fields,
    rows_by_series,
    run_store_backed_trial,
)
from odmwatch import (
    DetectorConfig,
    SparseOdm,
    SynthSpec,
    TimeWindow,
    detect_day,
    generate,
)
from odmwatch.bench import run_bench
from odmwatch.cli import RunConfig, main
from odmwatch.ingestion import parse_file
from odmwatch.store import HistoryStore
from odmwatch.synth import AnomalySpec, write_generated

MONDAY = dt.date(2021, 6, 7)


def ok(line: str) -> None:
    print(f"[PASS] {line}")


# -- criterion 1: paper-parameter fidelity --------------------------------


def test_parameter_fidelity():
    config = RunConfig()
    assert (config.th, config.p, config.quantile) == (20, 4, 0.75)
    assert config.stride == "weekly"
    assert config.bounds_mode == "clamped"

    ma, sd, available = cell_stats([90, 110, 90, 110])
    assert ma == 100.0
    assert abs(sd - 10.0) <= 1e-9 * 10.0
    assert available == 4

    window = TimeWindow.full_day(MONDAY)
    matrix = SparseOdm(window, {(f"O{i}", f"D{i}"): v for i, v in enumerate([20, 40, 60, 80])})
    ts = report_threshold(matrix, th=20, q=0.75)
    assert ts.t == 60.0

    # The same history in a window whose day threshold is that t = 60.
    clamped = evaluate_cell([90, 110, 90, 110], t=60, mode="clamped")
    assert (clamped.ma, clamped.sd, clamped.t) == (ma, sd, ts.t)
    assert clamped.upper == 160.0
    assert clamped.lower == 40.0
    literal = evaluate_cell([90, 110, 90, 110], t=60, mode="paper_literal")
    assert literal.upper == 160.0
    assert literal.lower == 0.0
    ok(
        "parameter fidelity: defaults (20, 4, 0.75); ma=100 sd=10; t=60; "
        "U=160; L=40 clamped / 0 literal"
    )


# -- criterion 2: classification bands ------------------------------------


def test_classification_bands():
    # th = 20, t = 60; the history [90, 110, 90, 110] gives ma = 100, sd = 10.
    def classify(history, observed):
        return evaluate_cell(history, observed=observed, t=60, th=20, mode="clamped")

    spike = classify([90, 110, 90, 110], 250)
    assert (spike.ma, spike.sd, spike.t) == (100.0, 10.0, 60.0)
    assert spike.status == "signal"
    assert spike.direction == "upper" and spike.level == 3

    moderate = classify([90, 110, 90, 110], 170)
    assert moderate.direction == "upper"
    assert moderate.inc == 70.0
    assert moderate.level == 2

    drop = classify([90, 110, 90, 110], 10)
    assert drop.direction == "lower" and drop.level == 2

    small = classify([15, 15, 15, 15], 500)
    assert (small.ma, small.sd) == (15.0, 0.0)
    assert small.status == "below_eligibility"

    assert classify([None] * 4, 120).status == "missing_data"
    ok("classification bands: 250->L3 upper, 170->L2 upper, 10->L2 lower, th and missing rules")


# -- criterion 3: oracle equivalence ---------------------------------------


def test_oracle_equivalence_200_trials(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(2021)
    for trial in range(200):
        problems = run_store_backed_trial(rng, tmp_path / "store", trial)
        assert problems == [], f"trial {trial} disagreed with the dense oracle: {problems[:5]}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"200 trials took {elapsed:.1f}s (limit 60s)"
    ok(f"oracle equivalence: 200 randomized trials, zero discrepancies, {elapsed:.1f}s")


# -- criterion 4: injected-anomaly recall ----------------------------------

N_AREAS = 250
DENSITY = 0.08
BASE_VOLUME = 60.0
SEED = 77
TH = 20
TARGET = MONDAY + dt.timedelta(days=28)


def nearest_rank_quantile(values, q):
    ordered = sorted(values)
    rank = math.ceil(Fraction(*float(q).as_integer_ratio()) * len(ordered))
    return float(ordered[max(1, min(len(ordered), rank)) - 1])


def synth_spec(anomalies=()):
    return SynthSpec(
        n_areas=N_AREAS,
        density=DENSITY,
        base_volume=BASE_VOLUME,
        seed=SEED,
        anomalies=tuple(anomalies),
    )


@pytest.fixture(scope="module")
def anomaly_world(tmp_path_factory):
    """Generated synthetic store with 100 spikes and 100 drops on TARGET."""
    tmp = tmp_path_factory.mktemp("anomaly-world")
    clean, _ = generate(synth_spec(), MONDAY, days=29, warmup_days=28)
    clean_day = next(m for m in clean if m.window.date == TARGET)
    baselines = dict(clean_day.cells())

    # Highest baselines make drops detectable past the day's quantile; all
    # chosen baselines sit far above 2*th.
    ranked = sorted(baselines, key=lambda pair: (-baselines[pair], pair))
    drop_cells = ranked[:100]
    spike_cells = ranked[100:200]
    assert all(baselines[c] >= 2 * TH for c in drop_cells + spike_cells)

    window = TimeWindow.full_day(TARGET)
    anomalies = [
        AnomalySpec("cell", *pair, window, "spike", 3.0) for pair in spike_cells
    ] + [AnomalySpec("cell", *pair, window, "drop", 0.1) for pair in drop_cells]
    snapshots, labels = generate(synth_spec(anomalies), MONDAY, days=29, warmup_days=28)
    write_generated(tmp / "generated", snapshots, labels)

    store = HistoryStore(tmp / "store", retention_days=None)
    for csv_path in sorted((tmp / "generated").glob("*.csv")):
        for snapshot in parse_file(csv_path):
            store.put_snapshot("synth", snapshot)
    return {
        "store": store,
        "baselines": baselines,
        "spike_cells": spike_cells,
        "drop_cells": drop_cells,
    }


def expected_signal_set(world):
    """Closed-form expected signals: per-key breach conditions from the
    frozen baselines, the anomaly multipliers and the day's quantile."""
    baselines = world["baselines"]
    anomalous = dict(baselines)
    for pair in world["spike_cells"]:
        anomalous[pair] = round(baselines[pair] * 3.0)
    for pair in world["drop_cells"]:
        anomalous[pair] = round(baselines[pair] * 0.1)

    t = nearest_rank_quantile([v for v in anomalous.values() if v >= TH], 0.75)

    expected = {}
    for pair in world["spike_cells"] + world["drop_cells"]:
        ma = float(baselines[pair])
        observed = anomalous[pair]
        upper = ma + t
        lower = max(ma - t, 0.0)
        if observed > upper:
            direction = "upper"
        elif observed < lower:
            direction = "lower"
        else:
            continue
        inc = (observed / ma - 1.0) * 100.0
        level = 1 if abs(inc) < 50 else (2 if abs(inc) < 100 else 3)
        expected[("cell",) + pair] = (direction, level)

    out_clean = {}
    in_clean = {}
    out_anom = {}
    in_anom = {}
    for (o, d), v in baselines.items():
        if o == d:
            continue
        out_clean[o] = out_clean.get(o, 0) + v
        in_clean[d] = in_clean.get(d, 0) + v
        a = anomalous[(o, d)]
        out_anom[o] = out_anom.get(o, 0) + a
        in_anom[d] = in_anom.get(d, 0) + a
    for kind, clean_sums, anom_sums in (
        ("outbound", out_clean, out_anom),
        ("inbound", in_clean, in_anom),
    ):
        for area, ma_int in clean_sums.items():
            ma = float(ma_int)
            observed = anom_sums[area]
            if ma < TH:
                continue
            upper = ma + t
            lower = max(ma - t, 0.0)
            if observed > upper:
                direction = "upper"
            elif observed < lower:
                direction = "lower"
            else:
                continue
            inc = (observed / ma - 1.0) * 100.0
            level = 1 if abs(inc) < 50 else (2 if abs(inc) < 100 else 3)
            key = (kind, area, None) if kind == "outbound" else (kind, None, area)
            expected[key] = (direction, level)
    return expected, t


def test_injected_anomaly_recall(anomaly_world):
    expected, t = expected_signal_set(anomaly_world)
    report = detect_day(anomaly_world["store"], "synth", TARGET, DetectorConfig())
    (window_report,) = report.window_reports
    assert window_report.threshold.t == t

    detected = {}
    for key, row in rows_by_series(window_report).items():
        assert row["status"] == "signal", f"unexpected status {row}"
        detected[key] = (row["direction"], row["level"])
    assert detected == expected

    spike_hits = sum(1 for (kind, o, d) in detected if kind == "cell" and detected[(kind, o, d)][0] == "upper")
    drop_hits = sum(1 for (kind, o, d) in detected if kind == "cell" and detected[(kind, o, d)][0] == "lower")
    # Sanity: the construction makes every injection breach.
    assert spike_hits == 100
    assert drop_hits == 100
    ok(
        f"injected-anomaly recall: {spike_hits}/100 spikes, {drop_hits}/100 drops, "
        f"{len(detected) - spike_hits - drop_hits} breaching marginals, zero signals elsewhere"
    )


# -- criterion 5: paper-literal lower bound --------------------------------


def test_paper_literal_never_emits_lower(anomaly_world):
    store = anomaly_world["store"]
    config = DetectorConfig(bounds_mode="paper_literal")
    lower_totals = 0
    upper_totals = 0
    for offset in range(29):
        date = MONDAY + dt.timedelta(days=offset)
        report = detect_day(store, "synth", date, config)
        totals = report.summary()
        lower_totals += totals.get("lower", 0)
        upper_totals += totals.get("upper", 0)
        for window_report in report.window_reports:
            for row in map(row_fields, window_report.outcomes):
                assert row["direction"] != "lower"
    assert lower_totals == 0
    assert upper_totals > 0  # the spikes still fire
    ok(
        "paper-literal mode: 29 synthetic days swept, zero lower signals "
        f"({upper_totals} upper signals remain)"
    )


# -- criterion 6: scale / performance --------------------------------------


def test_scale_performance():
    full = run_bench(areas=10_000, nonzeros=1_000_000, windows=25, p=4)
    assert full.detection_total_s < 60.0, (
        f"full-scale detection took {full.detection_total_s:.1f}s (limit 60s)"
    )

    half = run_bench(areas=10_000, nonzeros=500_000, windows=25, p=4)
    # Doubling the nonzeros may at most ~double each stage, within 25%.
    for stage in ("stats", "threshold", "detect"):
        full_s = full.stages_s[stage]
        half_s = half.stages_s[stage]
        assert full_s <= 2.5 * half_s + 0.1, (
            f"stage {stage}: {half_s:.2f}s -> {full_s:.2f}s is worse than ~linear"
        )
    assert full.detection_total_s <= 2.5 * half.detection_total_s + 0.1
    ok(
        "scale: 10k areas x 1M cells x 25 windows detected in "
        f"{full.detection_total_s:.1f}s; half scale {half.detection_total_s:.1f}s (~linear)"
    )


# -- criterion 7: determinism ----------------------------------------------


def test_detect_determinism(anomaly_world, tmp_path, capsys):
    store_root = anomaly_world["store"].root
    outputs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        code = main(
            [
                "detect",
                "--source",
                "synth",
                "--date",
                TARGET.isoformat(),
                "--store-root",
                str(store_root),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    header = json.loads(outputs[0].splitlines()[0])
    assert header["input_digest"]
    ok("determinism: repeated cmd_detect runs byte-identical")
