import datetime as dt
import json

import numpy as np
import pytest

from odmwatch import AnomalySpec, SynthSpec, TimeWindow, generate
from odmwatch.cli import main
from odmwatch.synth import SynthSpecError, load_spec_file, sample_distinct_codes, write_generated

MONDAY = dt.date(2021, 6, 7)


def base_spec(**overrides):
    defaults = dict(n_areas=10, density=0.5, base_volume=80.0, seed=5)
    defaults.update(overrides)
    return SynthSpec(**defaults)


def test_deterministic_under_seed():
    a, _ = generate(base_spec(), MONDAY, days=10, warmup_days=0)
    b, _ = generate(base_spec(), MONDAY, days=10, warmup_days=0)
    assert a == b


def test_different_seed_differs():
    a, _ = generate(base_spec(), MONDAY, days=3, warmup_days=0)
    b, _ = generate(base_spec(seed=6), MONDAY, days=3, warmup_days=0)
    assert a != b


def test_constant_world_without_noise():
    snapshots, labels = generate(base_spec(), MONDAY, days=14, warmup_days=0)
    assert labels == []
    first_week = snapshots[:7]
    second_week = snapshots[7:]
    for a, b in zip(first_week, second_week):
        assert dict(a.cells()) == dict(b.cells())


def test_weekday_factors_apply():
    factors = (1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    snapshots, _ = generate(
        base_spec(weekday_factors=factors), MONDAY, days=2, warmup_days=0
    )
    monday, tuesday = snapshots
    tuesday_cells = dict(tuesday.cells())
    for pair, value in monday.cells():
        assert tuesday_cells.get(pair, 0) == pytest.approx(2 * value, abs=1)


def test_windows_per_day():
    snapshots, _ = generate(base_spec(windows_per_day=3), MONDAY, days=2, warmup_days=0)
    assert len(snapshots) == 6
    starts = sorted({m.window.start for m in snapshots})
    assert len(starts) == 3


def test_spike_multiplies_rounded_clean_count():
    clean, _ = generate(base_spec(), MONDAY, days=29, warmup_days=0)
    target_date = MONDAY + dt.timedelta(days=28)
    clean_cells = dict(next(m for m in clean if m.window.date == target_date).cells())
    pair = sorted(clean_cells)[0]
    baseline = clean_cells[pair]

    anomaly = AnomalySpec(
        kind="cell",
        origin=pair[0],
        destination=pair[1],
        window=TimeWindow.full_day(target_date),
        anomaly="spike",
        magnitude=3.0,
    )
    spiked, labels = generate(base_spec(anomalies=(anomaly,)), MONDAY, days=29, warmup_days=28)
    spiked_cells = dict(next(m for m in spiked if m.window.date == target_date).cells())
    assert spiked_cells.get(pair, 0) == 3 * baseline
    assert len(labels) == 1
    assert labels[0]["anomaly"] == "spike"
    # everything else untouched
    for other, value in clean_cells.items():
        if other != pair:
            assert spiked_cells.get(other, 0) == value


def test_drop_to_zero():
    clean, _ = generate(base_spec(), MONDAY, days=29, warmup_days=0)
    target_date = MONDAY + dt.timedelta(days=28)
    clean_day = next(m for m in clean if m.window.date == target_date)
    pair = sorted(dict(clean_day.cells()))[0]
    anomaly = AnomalySpec(
        kind="cell",
        origin=pair[0],
        destination=pair[1],
        window=TimeWindow.full_day(target_date),
        anomaly="drop",
        magnitude=0.0,
    )
    dropped, _ = generate(base_spec(anomalies=(anomaly,)), MONDAY, days=29, warmup_days=28)
    dropped_day = next(m for m in dropped if m.window.date == target_date)
    assert dict(dropped_day.cells()).get(pair, 0) == 0


def test_marginal_anomaly_scales_row():
    clean, _ = generate(base_spec(), MONDAY, days=1, warmup_days=0)
    clean_cells = dict(clean[0].cells())
    origin = sorted({o for o, d in clean_cells if o != d})[0]
    anomaly = AnomalySpec(
        kind="outbound",
        origin=origin,
        destination=None,
        window=TimeWindow.full_day(MONDAY),
        anomaly="spike",
        magnitude=2.0,
    )
    spiked, _ = generate(base_spec(anomalies=(anomaly,)), MONDAY, days=1, warmup_days=0)
    spiked_cells = dict(spiked[0].cells())
    def outbound(cells):
        return sum(v for (o, d), v in cells.items() if o == origin and d != origin)

    assert outbound(spiked_cells) == 2 * outbound(clean_cells)
    # diagonal untouched
    assert spiked_cells.get((origin, origin), 0) == clean_cells.get((origin, origin), 0)


def test_inbound_anomaly_scales_column():
    clean, _ = generate(base_spec(), MONDAY, days=1, warmup_days=0)
    clean_cells = dict(clean[0].cells())
    dest = sorted({d for o, d in clean_cells if o != d})[0]
    anomaly = AnomalySpec("inbound", None, dest, TimeWindow.full_day(MONDAY), "drop", 0.5)
    dropped, _ = generate(base_spec(anomalies=(anomaly,)), MONDAY, days=1, warmup_days=0)
    dropped_cells = dict(dropped[0].cells())
    for (o, d), value in clean_cells.items():
        want = round(value * 0.5) if d == dest and o != d else value
        assert dropped_cells.get((o, d), 0) == want


def test_anomaly_inside_warmup_rejected():
    anomaly = AnomalySpec(
        kind="cell",
        origin="A0",
        destination="A1",
        window=TimeWindow.full_day(MONDAY + dt.timedelta(days=3)),
        anomaly="spike",
        magnitude=2.0,
    )
    spec = SynthSpec(n_areas=10, density=1.0, base_volume=50.0, anomalies=(anomaly,))
    with pytest.raises(SynthSpecError, match="warm-up"):
        generate(spec, MONDAY, days=35, warmup_days=28)


def test_anomaly_outside_range_rejected():
    anomaly = AnomalySpec(
        kind="cell",
        origin="A0",
        destination="A1",
        window=TimeWindow.full_day(MONDAY + dt.timedelta(days=99)),
        anomaly="spike",
        magnitude=2.0,
    )
    spec = SynthSpec(n_areas=10, density=1.0, base_volume=50.0, anomalies=(anomaly,))
    with pytest.raises(SynthSpecError, match="not generated"):
        generate(spec, MONDAY, days=35, warmup_days=28)


def test_bad_magnitudes_rejected():
    window = TimeWindow.full_day(MONDAY)
    with pytest.raises(SynthSpecError):
        AnomalySpec("cell", "A", "B", window, "spike", 0.5)
    with pytest.raises(SynthSpecError):
        AnomalySpec("cell", "A", "B", window, "drop", 1.5)


def test_anomaly_series_validation():
    window = TimeWindow.full_day(MONDAY)
    with pytest.raises(ValueError, match="cell key needs origin and destination"):
        AnomalySpec("cell", "A", None, window, "spike", 2.0)
    with pytest.raises(ValueError, match="inbound key needs only a destination"):
        AnomalySpec("inbound", "A", "B", window, "spike", 2.0)
    with pytest.raises(ValueError, match="unknown flow-key kind 'sideways'"):
        AnomalySpec("sideways", "A", None, window, "spike", 2.0)


def test_write_generated_layout(tmp_path):
    snapshots, labels = generate(base_spec(), MONDAY, days=3, warmup_days=0)
    write_generated(tmp_path / "out", snapshots, labels)
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == [
        "2021-06-07.csv",
        "2021-06-08.csv",
        "2021-06-09.csv",
        "labels.json",
    ]


def test_spec_file_round_trip(tmp_path):
    payload = {
        "n_areas": 12,
        "density": 0.4,
        "base_volume": 70,
        "seed": 3,
        "start_date": "2021-06-07",
        "days": 30,
        "warmup": {"p": 4, "stride": "weekly"},
        "anomalies": [
            {
                "kind": "cell",
                "origin": "A00",
                "destination": "A01",
                "date": "2021-07-05",
                "anomaly": "spike",
                "magnitude": 3.0,
            }
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec, start, days, warmup_days = load_spec_file(path)
    assert spec.n_areas == 12
    assert start == MONDAY
    assert days == 30
    assert warmup_days == 28
    anomaly = spec.anomalies[0]
    assert (anomaly.kind, anomaly.origin, anomaly.destination) == ("cell", "A00", "A01")


def test_spec_file_errors(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SynthSpecError):
        load_spec_file(path)
    path.write_text(json.dumps({"n_areas": 5}), encoding="utf-8")
    with pytest.raises(SynthSpecError):
        load_spec_file(path)


@pytest.mark.parametrize(
    "edit,key",
    [
        (lambda spec: spec.update(noize=0.1), "spec key 'noize'"),
        (lambda spec: spec.update(weekly_amplitude=0.2), "spec key 'weekly_amplitude'"),
        (lambda spec: spec["warmup"].update(stirde="daily"), "warmup key 'stirde'"),
        (lambda spec: spec["anomalies"][0].update(magnitdue=2.0), "anomaly key 'magnitdue'"),
    ],
    ids=["top-level", "retired-knob", "warmup", "anomaly"],
)
def test_spec_file_refuses_an_unknown_key(tmp_path, edit, key):
    anomaly = {"origin": "A0", "destination": "A1", "date": "2021-06-07", "anomaly": "spike"}
    payload = {
        "n_areas": 4,
        "density": 1.0,
        "base_volume": 50,
        "start_date": "2021-06-07",
        "days": 1,
        "warmup": {"p": 1, "stride": "daily"},
        "anomalies": [{**anomaly, "magnitude": 3.0}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    load_spec_file(path)
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SynthSpecError) as excinfo:
        load_spec_file(path)
    assert str(excinfo.value) == f"bad spec file {path}: unknown {key}"


@pytest.mark.parametrize("top", ["[]", "1", '"x"', "null"])
def test_spec_file_that_is_not_an_object_is_refused(tmp_path, capsys, top):
    path = tmp_path / "spec.json"
    path.write_text(top, encoding="utf-8")
    with pytest.raises(SynthSpecError) as excinfo:
        load_spec_file(path)
    assert str(excinfo.value) == f"bad spec file {path}: spec is not a JSON object"
    assert main(["generate", str(path), str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


def test_spec_file_anomaly_times_with_several_windows_a_day(tmp_path):
    # With 2 windows a day an anomaly names its window by start and end; one
    # without them, or with times no generated window has, is refused.
    anomaly = {"origin": "A0", "destination": "A1", "date": "2021-06-08", "anomaly": "spike"}
    payload = {
        "n_areas": 4,
        "density": 1.0,
        "base_volume": 50,
        "start_date": "2021-06-07",
        "days": 2,
        "warmup": 1,
        "windows_per_day": 2,
        "anomalies": [{**anomaly, "start": "12:00:00", "end": "23:59:59", "magnitude": 3.0}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec, start, days, warmup_days = load_spec_file(path)
    snapshots, labels = generate(spec, start, days, warmup_days)
    afternoon = TimeWindow(dt.date(2021, 6, 8), dt.time(12, 0, 0), dt.time(23, 59, 59))
    assert [label["start"] for label in labels] == ["12:00:00"]
    monday_afternoon = TimeWindow(MONDAY, afternoon.start, afternoon.end)
    cells = {m.window: dict(m.cells()) for m in snapshots}
    assert cells[afternoon][("A0", "A1")] == 3 * cells[monday_afternoon][("A0", "A1")]

    payload["anomalies"] = [{**anomaly, "magnitude": 3.0}]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SynthSpecError, match="needs explicit start/end"):
        load_spec_file(path)

    payload["anomalies"] = [{**anomaly, "start": "06:00:00", "end": "11:59:59", "magnitude": 3.0}]
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec, start, days, warmup_days = load_spec_file(path)
    with pytest.raises(SynthSpecError, match="2021-06-08 06:00:00-11:59:59 is not generated"):
        generate(spec, start, days, warmup_days)


def test_sample_distinct_codes_from_a_large_space():
    # Past 4M codes the sampler oversamples and deduplicates instead of
    # drawing without replacement from the whole space.
    codes = sample_distinct_codes(np.random.default_rng(0), 10**7, 5000)
    assert codes.dtype == np.int64 and len(codes) == 5000
    assert (np.diff(codes) > 0).all() and 0 <= codes[0] and codes[-1] < 10**7
