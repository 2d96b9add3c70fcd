"""Every text the program writes as CSV reads back: labels holding a comma,
a double quote, a carriage return, a line feed or spaces at either end
survive the store's audit CSV, a put and a read, and the CSV report, whose
rows equal the JSONL report's."""

import csv
import datetime as dt
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from odmwatch import DayReport, DetectorConfig, HistoryStore, run_window
from odmwatch.cli import main
from odmwatch.core import MAX_COUNT
from odmwatch.detector import REPORT_COLUMNS, write_day_report_csv, write_day_report_jsonl
from odmwatch.ingestion import (
    CSV_COLUMNS,
    OdmIntegrityError,
    OdmParseError,
    parse_file,
    snapshots_csv,
)

MONDAY = dt.date(2021, 6, 21)


def csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def test_carriage_return_label_reads_back_from_the_csv_report(tmp_path):
    # Five weekly rows of "a\rb" -> x at 5, and y -> x at 50.
    store_root = tmp_path / "store"
    for k in range(5):
        date = MONDAY - dt.timedelta(days=7 * (4 - k))
        path = tmp_path / f"{date}.csv"
        times = (date, "00:00:00", "23:59:59")
        rows = [CSV_COLUMNS, (*times, "a\rb", "x", 5), (*times, "y", "x", 50)]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert main(["ingest", str(path), "--source", "s", "--store-root", str(store_root)]) == 0
    report = tmp_path / "report.csv"
    argv = ["detect", "--source", "s", "--date", MONDAY.isoformat(), "--store-root", str(store_root)]
    assert main([*argv, "--output", str(report), "--format", "csv"]) == 0
    rows = csv_rows(report.read_bytes().decode("utf-8"))
    assert {len(row) for row in rows} == {len(REPORT_COLUMNS)}
    assert ["a\rb", "x"] in [row[5:7] for row in rows]
    _, _, [stored] = HistoryStore(store_root).read_day("s", MONDAY, lambda window: True)
    assert parse_csv_text(tmp_path, "".join(snapshots_csv([stored]))) == [stored]


def parse_csv_text(tmp_path: Path, text: str):
    path = tmp_path / "again.csv"
    path.write_bytes(text.encode("utf-8"))
    return parse_file(path)


SPECIAL = st.sampled_from(["a", "B", ",", '"', "\r", "\n", " ", "é", "\\"])
# Any text UTF-8 encodes, with the characters CSV must quote drawn often.
CHARS = SPECIAL | st.characters(blacklist_categories=("Cs",))
LABEL = st.text(CHARS, min_size=1, max_size=4)
COUNT = st.one_of(st.integers(0, 60), st.integers(0, MAX_COUNT))
ROWS = st.lists(st.tuples(st.sampled_from([0, 7]), LABEL, LABEL, COUNT), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(ROWS)
def test_accepted_files_round_trip_through_every_csv_text(rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "in.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for days, origin, destination, count in rows:
                date = MONDAY - dt.timedelta(days=days)
                writer.writerow((date, "00:00:00", "23:59:59", origin, destination, count))
        try:
            snapshots = parse_file(path)
        except (OdmParseError, OdmIntegrityError):
            return

        # An all-zero window has no rows to write.
        again = parse_csv_text(tmp, "".join(snapshots_csv(snapshots)))
        assert again == [m for m in snapshots if len(m)]

        store = HistoryStore(tmp / "store")
        for snapshot in snapshots:
            store.put_snapshot("s", snapshot)
        for snapshot in snapshots:
            _, _, stored = store.read_day("s", snapshot.window.date, lambda window: True)
            assert stored == [snapshot]

        dates = {snapshot.window.date: snapshot for snapshot in snapshots}
        if MONDAY not in dates:
            return
        config = DetectorConfig(th=0, p=1, quantile=0.5)
        history = [dates.get(MONDAY - dt.timedelta(days=7))]
        window = run_window(dates[MONDAY], history, config, source_id="s")
        report = DayReport(source_id="s", date=MONDAY, config=config, window_reports=[window])
        jsonl = io.StringIO()
        write_day_report_jsonl(report, jsonl)
        write_day_report_csv(report, tmp / "report.csv")
        csv_text = (tmp / "report.csv").read_bytes().decode("utf-8")
    def text(value):
        return "" if value is None else value if isinstance(value, str) else json.dumps(value)

    rows = map(json.loads, jsonl.getvalue().split("\n")[1:-2])  # between header and summary
    expected = [[text(row[name]) for name in REPORT_COLUMNS] for row in rows]
    assert csv_rows(csv_text) == [list(REPORT_COLUMNS), *expected]
