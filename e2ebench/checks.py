"""Output checks. Each function returns a list of problems; empty means correct.

The report checks work from the benchmark's own inputs, not from the
program: the universe size comes from the generated cells, the anomalies
from the generator's labels, and the digest from the value recorded when
the benchmark was defined.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from workloads import P, Inputs, Workload

# The report format as the README documents it, restated here so that a
# change to the program cannot redefine what the checks expect.
REPORT_COLUMNS = (
    "source",
    "date",
    "start",
    "end",
    "kind",
    "origin",
    "destination",
    "status",
    "direction",
    "level",
    "inc_percent",
    "observed",
    "ma",
    "sd",
    "lower",
    "upper",
)
ROW_STATUSES = ("signal", "below_eligibility", "missing_data")


def check_ingest(exit_code: int, stdout: str, inputs: Inputs, date: str) -> list[str]:
    """Exit 0 and one clean validation record whose volume matches the input."""
    if exit_code != 0:
        return [f"ingest {date}: exit code {exit_code}"]
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError as exc:
        return [f"ingest {date}: unreadable validation output: {exc}"]
    if [r.get("date") for r in records] != [date]:
        return [f"ingest {date}: validation records for {[r.get('date') for r in records]}"]
    record = records[0]
    problems = []
    if record.get("missing_windows") or record.get("extra_windows"):
        problems.append(
            f"ingest {date}: missing {record.get('missing_windows')} "
            f"extra {record.get('extra_windows')}"
        )
    if record.get("total_volume") != inputs.day_volume[date]:
        problems.append(
            f"ingest {date}: total_volume {record.get('total_volume')} "
            f"!= generated {inputs.day_volume[date]}"
        )
    return problems


def report_digest(outputs: tuple[Path, ...]) -> str:
    """SHA-256 over the report files in order (CSV, then its .meta.json)."""
    digest = hashlib.sha256()
    for path in outputs:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_report(outputs: tuple[Path, ...], fmt: str) -> tuple[dict, list[dict], dict]:
    """(header, outcome rows, summary); raises ValueError or csv.Error on a malformed report."""
    if fmt == "jsonl":
        lines = outputs[0].read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        if len(records) < 2 or not all(isinstance(r, dict) for r in records):
            raise ValueError("report is not a header, rows and a summary of JSON objects")
        header, rows, summary = records[0], records[1:-1], records[-1]
    else:
        text = outputs[0].read_text(encoding="utf-8")
        table = list(csv.reader(io.StringIO(text, newline="")))
        if not table or tuple(table[0]) != REPORT_COLUMNS:
            raise ValueError("report CSV header differs from the report columns")
        rows = []
        for line_no, values in enumerate(table[1:], start=2):
            if len(values) != len(REPORT_COLUMNS):
                raise ValueError(f"report CSV line {line_no} has {len(values)} fields")
            rows.append({k: (v if v != "" else None) for k, v in zip(REPORT_COLUMNS, values)})
        meta = json.loads(outputs[1].read_text(encoding="utf-8"))
        header, summary = meta["header"], meta["summary"]
    if not isinstance(header, dict) or not isinstance(summary, dict):
        raise ValueError("report header or summary is not a JSON object")
    if header.get("record") != "header" or summary.get("record") != "summary":
        raise ValueError("report lacks its header or summary record")
    return header, rows, summary


def check_report(
    outputs: tuple[Path, ...],
    workload: Workload,
    inputs: Inputs,
    expected_digest: str | None,
) -> list[str]:
    """Counts agree with the summary and the inputs; every anomaly signals."""
    try:
        header, rows, summary = read_report(outputs, workload.report_format)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    by_status = {status: 0 for status in ROW_STATUSES}
    directions = {"upper": 0, "lower": 0}
    signals = set()
    for row in rows:
        status = row.get("status")
        if status not in by_status:
            problems.append(f"report row with status {status!r}")
            continue
        by_status[status] += 1
        if status == "signal":
            direction = row.get("direction")
            directions[direction] = directions.get(direction, 0) + 1
            signals.add(
                (row.get("start"), row.get("kind"), row.get("origin"), row.get("destination"), direction)
            )
    for status, count in by_status.items():
        if summary.get(status) != count:
            problems.append(f"summary {status}={summary.get(status)} but {count} rows")
    for direction, count in directions.items():
        if summary.get(direction) != count:
            problems.append(f"summary {direction}={summary.get(direction)} but {count} signal rows")
    statuses = ("no_signal",) + ROW_STATUSES
    if summary.get("keys") != sum(summary.get(s, 0) for s in statuses):
        problems.append(f"summary keys={summary.get('keys')} is not the sum of its statuses")
    if summary.get("keys") != inputs.keys:
        problems.append(f"summary keys={summary.get('keys')}, inputs give {inputs.keys}")
    if summary.get("missing_data") != 0:
        problems.append(f"missing_data={summary.get('missing_data')} with {P} periods stored")
    windows = header.get("windows", [])
    if len(windows) != workload.windows or header.get("missing_windows"):
        problems.append(f"report covers {len(windows)} of {workload.windows} windows")
    if any(w.get("available") != P for w in windows):
        problems.append(f"a window has fewer than {P} periods available")
    for a in inputs.anomalies:
        if (a.start, a.kind, a.origin, a.destination, a.direction) not in signals:
            problems.append(f"anomaly not reported as a signal: {a}")
    if expected_digest is not None:
        digest = report_digest(outputs)
        if digest != expected_digest:
            problems.append(f"report sha256 {digest} != recorded {expected_digest}")
    return problems
