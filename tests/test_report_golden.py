"""The exact bytes of JSONL and CSV reports on a small fixed store.

The store holds one date with two windows. The morning window has two
weekly periods of history; the evening window has none, so its series
are missing data. At th=0 the cell C->B, absent from the history, is a
flow born from a zero average: a signal whose increment is +inf, written
as ``null`` in JSONL and as an empty CSV field. The cell B->C drops to 0:
a lower signal. At th=10 the small series are below eligibility.
"""

import datetime as dt
from pathlib import Path

import pytest

from odmwatch import SparseOdm, TimeWindow
from odmwatch.cli import main
from odmwatch.store import HistoryStore

GOLDEN = Path(__file__).parent / "golden"
DATE = dt.date(2021, 6, 21)
MORNING = (dt.time(0, 0, 0), dt.time(11, 59, 59))
EVENING = (dt.time(12, 0, 0), dt.time(23, 59, 59))

HISTORY = [
    {("A", "B"): 40, ("B", "C"): 12, ("C", "A"): 6, ("A", "A"): 50, ("B", "A"): 3},
    {("A", "B"): 44, ("B", "C"): 12, ("C", "A"): 8, ("A", "A"): 50, ("B", "A"): 3},
]
CURRENT = {("A", "B"): 100, ("C", "A"): 7, ("A", "A"): 50, ("C", "B"): 9, ("B", "A"): 3}

CONFIGS = {
    "th0": ["--th", "0", "--quantile", "0.3"],
    "th10": ["--th", "10", "--quantile", "0.5"],
}


@pytest.fixture
def store_root(tmp_path):
    root = tmp_path / "store"
    store = HistoryStore(root)
    for k, entries in enumerate(HISTORY, start=1):
        past = DATE - dt.timedelta(days=7 * k)
        store.put_snapshot("src", SparseOdm(TimeWindow(past, *MORNING), entries))
    store.put_snapshot("src", SparseOdm(TimeWindow(DATE, *MORNING), CURRENT))
    store.put_snapshot("src", SparseOdm(TimeWindow(DATE, *EVENING), {("A", "B"): 5}))
    return root


def detect(store_root, output, fmt, config):
    argv = ["detect", "--source", "src", "--date", str(DATE), "--p", "2"]
    argv += ["--store-root", str(store_root), "--output", str(output), "--format", fmt]
    assert main(argv + CONFIGS[config]) == 0


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_jsonl_report_bytes(store_root, tmp_path, config):
    out = tmp_path / "report.jsonl"
    detect(store_root, out, "jsonl", config)
    assert out.read_bytes() == (GOLDEN / f"report_{config}.jsonl").read_bytes()


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_csv_report_bytes(store_root, tmp_path, config):
    out = tmp_path / "report.csv"
    detect(store_root, out, "csv", config)
    assert out.read_bytes() == (GOLDEN / f"report_{config}.csv").read_bytes()
    meta = tmp_path / "report.csv.meta.json"
    assert meta.read_bytes() == (GOLDEN / f"report_{config}.csv.meta.json").read_bytes()


def test_store_file_bytes(store_root):
    """The fixture's date files, the two-window put over a stored date included."""
    golden = GOLDEN / "store" / "src"
    names = sorted(path.name for path in (store_root / "src").iterdir())
    assert names == sorted(path.name for path in golden.iterdir())
    for name in names:
        assert (store_root / "src" / name).read_bytes() == (golden / name).read_bytes(), name


def test_golden_reports_hold_the_edge_rows():
    th0 = (GOLDEN / "report_th0.jsonl").read_text(encoding="utf-8")
    assert '"origin":"C","destination":"B","status":"signal","direction":"upper",' \
        '"level":3,"inc_percent":null' in th0
    assert '"direction":"lower"' in th0
    assert ",C,B,signal,upper,3,,9," in (GOLDEN / "report_th0.csv").read_text(encoding="utf-8")
    assert '"status":"below_eligibility"' in (GOLDEN / "report_th10.jsonl").read_text(
        encoding="utf-8"
    )
