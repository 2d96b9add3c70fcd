import contextlib
import dataclasses
import io
import json

import pytest

from checks import check_ingest, check_report, report_digest
from pipeline import argvs
from workloads import DATES, WORKLOADS, generate

from odmwatch import cli

SMALL = {
    "jsonl": dataclasses.replace(WORKLOADS["heavytail-daily"], areas=60, pool=2000),
    "csv": dataclasses.replace(WORKLOADS["intraday-8w"], areas=60, pool=600, windows=2),
}


def run_pipeline(workload, tmp_path):
    inputs = generate(workload, 3, tmp_path / "inputs")
    commands = argvs(workload, inputs, tmp_path / "store", tmp_path)
    outputs = []
    for argv in commands.ingest:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        outputs.append((code, captured.getvalue()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(commands.detect) == 0
    return inputs, commands, outputs


@pytest.fixture(params=sorted(SMALL))
def pipeline_run(request, tmp_path):
    workload = SMALL[request.param]
    inputs, commands, ingest_outputs = run_pipeline(workload, tmp_path)
    return workload, inputs, commands, ingest_outputs


def test_clean_run_passes_every_check(pipeline_run):
    workload, inputs, commands, ingest_outputs = pipeline_run
    for date, (code, stdout) in zip(DATES, ingest_outputs):
        assert check_ingest(code, stdout, inputs, date.isoformat()) == []
    digest = report_digest(commands.outputs)
    assert check_report(commands.outputs, workload, inputs, digest) == []


def test_ingest_check_fails_on_exit_code_or_volume(pipeline_run):
    _, inputs, _, ingest_outputs = pipeline_run
    code, stdout = ingest_outputs[0]
    date = DATES[0].isoformat()
    assert check_ingest(2, stdout, inputs, date)
    record = json.loads(stdout)
    record["total_volume"] += 1
    assert check_ingest(code, json.dumps(record), inputs, date)
    record["total_volume"] -= 1
    record["missing_windows"] = ["00:00:00-11:59:59"]
    assert check_ingest(code, json.dumps(record), inputs, date)


def test_report_with_one_row_removed_fails(pipeline_run):
    workload, inputs, commands, _ = pipeline_run
    report = commands.outputs[0]
    lines = report.read_bytes().splitlines(keepends=True)
    for index in (1, len(lines) // 2, len(lines) - 2):
        damaged = lines[:index] + lines[index + 1 :]
        report.write_bytes(b"".join(damaged))
        # the per-status counts catch it even without a recorded digest
        assert check_report(commands.outputs, workload, inputs, None), index
    report.write_bytes(b"".join(lines))
    assert check_report(commands.outputs, workload, inputs, None) == []


def test_report_with_one_byte_changed_fails(pipeline_run):
    workload, inputs, commands, _ = pipeline_run
    digest = report_digest(commands.outputs)
    for path in commands.outputs:
        original = path.read_bytes()
        for position in range(0, len(original), max(1, len(original) // 7)):
            damaged = bytearray(original)
            damaged[position] = ord("7") if damaged[position] != ord("7") else ord("3")
            path.write_bytes(bytes(damaged))
            assert check_report(commands.outputs, workload, inputs, digest), (path.name, position)
        path.write_bytes(original)
    assert check_report(commands.outputs, workload, inputs, digest) == []


def test_missing_anomaly_signal_fails(pipeline_run):
    workload, inputs, commands, _ = pipeline_run
    anomaly = inputs.anomalies[0]
    moved = dataclasses.replace(anomaly, direction="lower" if anomaly.direction == "upper" else "upper")
    inputs = dataclasses.replace(inputs, anomalies=inputs.anomalies + (moved,))
    problems = check_report(commands.outputs, workload, inputs, None)
    assert any("anomaly not reported" in p for p in problems)
