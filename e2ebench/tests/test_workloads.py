import dataclasses

import pytest

from workloads import DATES, TARGET, WORKLOADS, generate


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, name):
    workload = WORKLOADS[name]
    a = generate(workload, 7, tmp_path / "a")
    b = generate(workload, 7, tmp_path / "b")
    c = generate(workload, 8, tmp_path / "c")
    assert [p.read_bytes() for p in a.files] == [p.read_bytes() for p in b.files]
    assert (a.keys, a.anomalies, a.day_volume) == (b.keys, b.anomalies, b.day_volume)
    assert all(x.read_bytes() != y.read_bytes() for x, y in zip(a.files, c.files))


def test_inputs_cover_target_and_weekly_history(tmp_path):
    workload = dataclasses.replace(WORKLOADS["intraday-8w"], areas=60, pool=100)
    inputs = generate(workload, 1, tmp_path)
    assert [p.name for p in inputs.files] == [f"{d.isoformat()}.csv" for d in DATES]
    assert DATES[-1] == TARGET and TARGET.weekday() == 0
    assert {(d - DATES[0]).days for d in DATES} == {0, 7, 14, 21, 28}
    lines = inputs.files[-1].read_text().splitlines()
    assert lines[0] == "date,start,end,origin,destination,count"
    assert len({tuple(line.split(",")[1:3]) for line in lines[1:]}) == 8
    # six labelled anomalies per window: spike and drop on a cell, an outbound and an inbound series
    assert len(inputs.anomalies) == 6 * 8
    assert sum(inputs.day_volume.values()) == sum(
        int(line.rsplit(",", 1)[1]) for p in inputs.files for line in p.read_text().splitlines()[1:]
    )
