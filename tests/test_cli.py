import argparse
import contextlib
import datetime as dt
import gzip
import json
import re

import numpy as np
import pytest

import dense_oracle
from odmwatch import DetectorConfig, HistoryStore, TimeWindow, _engine, cli, detector, store
from odmwatch.cli import main
from odmwatch.ingestion import canonical_windows

MONDAY = dt.date(2021, 6, 7)
HEADER = "date,start,end,origin,destination,count\n"


def day_csv(tmp_path, date, per_day=24, value=30, name=None):
    rows = [
        f"{date},{w.start.isoformat()},{w.end.isoformat()},A,B,{value}"
        for w in canonical_windows(date, per_day)
    ]
    path = tmp_path / (name or f"{date}.csv")
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_ingest_complete_day_exits_zero(tmp_path, capsys):
    path = day_csv(tmp_path, MONDAY)
    code = main(
        [
            "ingest",
            str(path),
            "--source",
            "mno",
            "--expected-windows",
            "24",
            "--store-root",
            str(tmp_path / "store"),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["missing_windows"] == []
    assert report["total_volume"] == 24 * 30


def test_ingest_malformed_row_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "2021-06-07,00:00:00,23:59:59,A,B,oops\n", encoding="utf-8")
    code = main(
        ["ingest", str(path), "--source", "mno", "--store-root", str(tmp_path / "store")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.csv:2" in err


def ingest_error(tmp_path, capsys, path):
    """The stderr of an ``ingest`` of ``path`` that must exit 1 and store nothing."""
    store_root = tmp_path / "store"
    assert main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)]) == 1
    assert HistoryStore(store_root).dates_for("mno") == []
    return capsys.readouterr().err


def test_ingest_field_beyond_csv_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    row = "2021-06-07,00:00:00,23:59:59,{},B,5\n"
    path.write_text(HEADER + row.format("A") + row.format("X" * 200_000), encoding="utf-8")
    err = ingest_error(tmp_path, capsys, path)
    assert err == "error: wide.csv:3: field larger than field limit (131072)\n"


def test_ingest_truncated_gzip_exits_one(tmp_path, capsys):
    rows = "".join(f"2021-06-07,00:00:00,23:59:59,A{i},B,{i + 1}\n" for i in range(2000))
    data = gzip.compress((HEADER + rows).encode("utf-8"), mtime=0)
    path = tmp_path / "cut.csv.gz"
    path.write_bytes(data[: len(data) // 2])
    err = ingest_error(tmp_path, capsys, path)
    reason = "Compressed file ended before the end-of-stream marker was reached"
    assert re.fullmatch(rf"error: cut\.csv\.gz:\d+: {reason}\n", err), err


def test_ingest_corrupt_gzip_exits_one(tmp_path, capsys):
    payload = HEADER + "2021-06-07,00:00:00,23:59:59,A,B,5\n"
    data = gzip.compress(payload.encode("utf-8"), mtime=0)
    path = tmp_path / "corrupt.csv.gz"
    # Block type 3 is reserved: the deflate stream's first block is invalid.
    path.write_bytes(data[:10] + b"\x07" + data[11:])
    err = ingest_error(tmp_path, capsys, path)
    assert err == "error: corrupt.csv.gz:1: Error -3 while decompressing data: invalid block type\n"


def test_ingest_carriage_return_label_round_trips(tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes((HEADER + '2021-06-07,00:00:00,23:59:59,"A\rB",C,5\n').encode("utf-8"))
    store_root = tmp_path / "store"
    code = main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)])
    assert code == 0
    stored = HistoryStore(store_root).get_snapshot("mno", TimeWindow.full_day(MONDAY))
    assert dict(stored.cells()) == {("A\rB", "C"): 5}


def test_ingest_count_beyond_int64_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(
        HEADER + "2021-06-07,00:00:00,23:59:59,A,B,100000000000000000000000\n", encoding="utf-8"
    )
    store_root = tmp_path / "store"
    code = main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path.name}:2: ")
    assert "int64" in err
    assert not (store_root / "mno" / f"{MONDAY}.odm").exists()


@pytest.mark.parametrize(
    "content,reason",
    [
        (None, "No such file or directory"),
        (
            HEADER.encode() + b"2021-06-07,00:00:00,23:59:59,A,B,1\n"
            b"2021-06-07,00:00:00,23:59:59,\xff,B,1\n",
            "can't decode byte 0xff",
        ),
    ],
    ids=["missing", "not-utf8"],
)
def test_ingest_unreadable_input_exits_one(tmp_path, capsys, content, reason):
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_bytes(content)
    store_root = tmp_path / "store"
    code = main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert reason in err and "Traceback" not in err
    assert not (store_root / "mno" / f"{MONDAY}.odm").exists()


def test_detect_count_above_the_int64_cap_matches_the_oracle(tmp_path):
    # 5e9 is within int64, so ingest keeps it, and above what int64 sums of
    # squares can hold; detect evaluates the window on exact ints instead.
    store_root = tmp_path / "store"
    history = MONDAY - dt.timedelta(days=7)
    for date, count in ((history, 5_000_000_000), (MONDAY, 10)):
        path = tmp_path / f"{date}.csv"
        path.write_text(HEADER + f"{date},00:00:00,23:59:59,A,B,{count}\n", encoding="utf-8")
        assert main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)]) == 0
    out = tmp_path / "r.jsonl"
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--store-root", str(store_root)]
    assert main(argv + ["--output", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:-1]]
    dense = lambda count: np.array([[0, count], [0, 0]])
    oracle = dense_oracle.evaluate_dense(
        dense(10), [dense(5_000_000_000)], ["A", "B"], 20, 0.75, "clamped"
    )
    assert len(rows) == len(oracle["outcomes"]) == 3
    for row in rows:
        want = oracle["outcomes"][(row["kind"], row["origin"], row["destination"])]
        assert (row["status"], row["observed"], row["ma"], row["sd"]) == (
            want["status"], want["observed"], want["ma"], want["sd"]
        )


def test_ingest_onto_a_corrupt_stored_date_exits_one(tmp_path, capsys):
    # The put merges over the stored date, so it must read it first.
    path = day_csv(tmp_path, MONDAY, per_day=1)
    argv = ["ingest", str(path), "--source", "mno", "--store-root", str(tmp_path / "store")]
    assert main(argv) == 0
    stored = tmp_path / "store" / "mno" / f"{MONDAY}.odm"
    stored.write_bytes(b"{")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {stored}: bad header")
    assert "re-ingest" in err and "Traceback" not in err
    assert stored.read_bytes() == b"{"


@pytest.mark.parametrize("source_is_a_file", [False, True], ids=["root", "source"])
def test_ingest_store_under_a_regular_file_exits_one(tmp_path, capsys, source_is_a_file):
    # A root under a regular file fails in HistoryStore(); a regular file in
    # place of the source's directory fails at the profile's put.
    path = day_csv(tmp_path, MONDAY, per_day=1)
    (tmp_path / "afile").write_text("", encoding="utf-8")
    root = tmp_path if source_is_a_file else tmp_path / "afile" / "store"
    target = tmp_path / "afile" if source_is_a_file else root
    argv = ["ingest", str(path), "--source", "afile", "--store-root", str(root)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and str(target) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "in.csv", "--source", "mno"],
        ["detect", "--source", "mno", "--date", str(MONDAY)],
    ],
    ids=["ingest", "detect"],
)
def test_missing_config_exits_one(tmp_path, capsys, argv):
    day_csv(tmp_path, MONDAY, name="in.csv")
    argv = [str(tmp_path / a) if a == "in.csv" else a for a in argv]
    config = tmp_path / "no" / "such.cfg"
    store_root = tmp_path / "store"
    code = main(argv + ["--store-root", str(store_root), "--config", str(config)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {config}: ")
    assert not store_root.exists()


def test_ingest_of_no_rows_warns(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER, encoding="utf-8")
    code = main(["ingest", str(path), "--source", "mno", "--store-root", str(tmp_path / "store")])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"warning: no rows ingested from {path}\n"


@pytest.mark.parametrize("verbose", [False, True])
def test_verbose_ingest_names_each_pruned_date(tmp_path, capsys, verbose):
    old = MONDAY - dt.timedelta(days=36)
    argv = ["ingest", "--source", "mno", "--store-root", str(tmp_path / "store")]
    assert main([*argv, str(day_csv(tmp_path, old, per_day=1))]) == 0
    assert main(["-v"] * verbose + [*argv, str(day_csv(tmp_path, MONDAY, per_day=1))]) == 0
    assert HistoryStore(tmp_path / "store").dates_for("mno") == [MONDAY]
    expected = f"pruned mno/{old}: older than 35 days\n" if verbose else ""
    assert capsys.readouterr().err == expected


def test_per_window_files_validate_the_date_as_stored(tmp_path, capsys):
    argv = ["ingest", "--source", "mno", "--expected-windows", "2"]
    argv += ["--store-root", str(tmp_path / "store")]
    morning, evening = canonical_windows(MONDAY, 2)
    paths = []
    for window, count in ((morning, 3), (evening, 4)):
        path = tmp_path / f"{window.times_key()}.csv"
        path.write_text(HEADER + f"{MONDAY},{window.start},{window.end},A,B,{count}\n", "utf-8")
        paths.append(str(path))
    assert main([*argv, paths[0]]) == 2
    assert json.loads(capsys.readouterr().out)["missing_windows"] == [evening.times_key()]
    assert main([*argv, paths[1]]) == 0  # both windows are stored now
    report = json.loads(capsys.readouterr().out)
    assert (report["missing_windows"], report["total_volume"]) == ([], 7)


def test_verbose_multi_date_ingest_names_each_pruned_date_once(tmp_path, capsys):
    argv = ["ingest", "--source", "mno", "--store-root", str(tmp_path / "store")]
    dates = [MONDAY - dt.timedelta(days=k) for k in (50, 45, 40)]
    for date in dates[::2]:
        assert main([*argv, str(day_csv(tmp_path, date, per_day=1))]) == 0
    rows = [f"{date},00:00:00,23:59:59,A,B,5" for date in (dates[1], MONDAY)]
    path = tmp_path / "two-dates.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["-v", *argv, str(path)]) == 0
    assert capsys.readouterr().err == "".join(
        f"pruned mno/{date}: older than 35 days\n" for date in dates
    )
    assert HistoryStore(tmp_path / "store").dates_for("mno") == [MONDAY]


def test_ingest_missing_window_exits_two(tmp_path, capsys):
    windows = canonical_windows(MONDAY, 24)[:-1]
    rows = [
        f"{MONDAY},{w.start.isoformat()},{w.end.isoformat()},A,B,5" for w in windows
    ]
    path = tmp_path / "partial.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    code = main(
        [
            "ingest",
            str(path),
            "--source",
            "mno",
            "--expected-windows",
            "24",
            "--store-root",
            str(tmp_path / "store"),
        ]
    )
    assert code == 2
    report = json.loads(capsys.readouterr().out.strip())
    assert report["missing_windows"] == ["23:00:00-23:59:59"]


@pytest.fixture
def synthetic_store(tmp_path):
    """Five same-weekday days, flat values, one spiked cell on the last."""
    store_root = tmp_path / "store"
    for k in range(4, 0, -1):
        date = MONDAY - dt.timedelta(days=7 * k)
        rows = [f"{date},00:00:00,23:59:59,C{i},D{i},50" for i in range(30)]
        rows.append(f"{date},00:00:00,23:59:59,A,B,100")
        path = tmp_path / f"h{k}.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)]) == 0
    rows = [f"{MONDAY},00:00:00,23:59:59,C{i},D{i},50" for i in range(30)]
    rows.append(f"{MONDAY},00:00:00,23:59:59,A,B,300")
    path = tmp_path / "today.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    assert main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)]) == 0
    return store_root


def test_detect_writes_report(synthetic_store, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(
        [
            "detect",
            "--source",
            "mno",
            "--date",
            str(MONDAY),
            "--store-root",
            str(synthetic_store),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    signals = [l for l in lines if l.get("status") == "signal"]
    assert {(s["kind"], s.get("origin"), s.get("destination")) for s in signals} == {
        ("cell", "A", "B"),
        ("inbound", None, "B"),
        ("outbound", "A", None),
    }
    assert all(s["direction"] == "upper" and s["level"] == 3 for s in signals)


class _FullDisk:
    """A report handle whose writes fail after the first one, as a full disk
    would fail a write partway through."""

    def __init__(self, handle):
        self._handle = handle
        self._writes = 0

    def write(self, text):
        self._writes += 1
        if self._writes > 1:
            raise OSError("disk full")
        return self._handle.write(text)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_failed_report_write_keeps_previous_report(
    synthetic_store, tmp_path, capsys, monkeypatch, fmt
):
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--format", fmt]
    report = out_dir / f"report.{fmt}"
    argv += ["--store-root", str(synthetic_store), "--output", str(report)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(before) == (2 if fmt == "csv" else 1)

    atomic_open = store.atomic_open

    @contextlib.contextmanager
    def atomic_open_full_disk(*args, **kwargs):
        with atomic_open(*args, **kwargs) as handle:
            yield _FullDisk(handle)

    monkeypatch.setattr(cli, "atomic_open", atomic_open_full_disk)
    monkeypatch.setattr(detector, "atomic_open", atomic_open_full_disk)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write report {report}: disk full\n"
    # The old report keeps its bytes and no temp file is left behind.
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_non_finite_report_value_fails_detect(synthetic_store, tmp_path, capsys, monkeypatch, fmt):
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    report = out_dir / f"report.{fmt}"
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--output", str(report)]
    argv += ["--store-root", str(synthetic_store), "--format", fmt]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(before) == (2 if fmt == "csv" else 1)

    evaluate_window = _engine.evaluate_window

    def evaluate_window_nan_ma(*args, **kwargs):
        evaluation = evaluate_window(*args, **kwargs)
        reported = np.flatnonzero(evaluation.series.status != _engine.STATUS_NO_SIGNAL)
        evaluation.series.ma[reported[0]] = np.nan
        return evaluation

    monkeypatch.setattr(_engine, "evaluate_window", evaluate_window_nan_ma)
    capsys.readouterr()
    assert main(argv) == 1
    assert "non-finite ma, sd or bound" in capsys.readouterr().err
    # No "nan" token reaches a report: the old report (and CSV sidecar) keeps
    # its bytes and no temp file is left behind.
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_detect_sees_each_date_as_of_its_one_read(synthetic_store, tmp_path, monkeypatch):
    # A concurrent ingest prunes or rewrites a date right after detect read
    # it: the report stays byte-identical to an undisturbed run's.
    argv = ["detect", "--source", "mno", "--date", str(MONDAY)]
    argv += ["--store-root", str(synthetic_store)]
    undisturbed = tmp_path / "undisturbed.jsonl"
    assert main(argv + ["--output", str(undisturbed)]) == 0
    week = dt.timedelta(days=7)
    rewrite = day_csv(tmp_path, MONDAY - 2 * week, per_day=1, value=999)
    ingest = ["ingest", str(rewrite), "--source", "mno", "--store-root", str(synthetic_store)]
    exits = []
    disturb = {
        MONDAY: (synthetic_store / "mno" / f"{MONDAY}.odm").unlink,
        MONDAY - week: (synthetic_store / "mno" / f"{MONDAY - week}.odm").unlink,
        MONDAY - 2 * week: lambda: exits.append(main(ingest)),
    }
    read_day = HistoryStore.read_day

    def read_day_then_disturb(self, source_id, date, *args):
        day = read_day(self, source_id, date, *args)
        disturb.pop(date, lambda: None)()
        return day

    monkeypatch.setattr(HistoryStore, "read_day", read_day_then_disturb)
    disturbed = tmp_path / "disturbed.jsonl"
    assert main(argv + ["--output", str(disturbed)]) == 0
    assert not disturb and exits == [0]
    assert disturbed.read_bytes() == undisturbed.read_bytes()
    rewritten = TimeWindow.full_day(MONDAY - 2 * week)
    stored = HistoryStore(synthetic_store).get_snapshot("mno", rewritten)
    assert dict(stored.cells()) == {("A", "B"): 999}
    assert main(argv + ["--output", str(tmp_path / "after.jsonl")]) == 3


def test_detect_store_under_a_regular_file_exits_one(tmp_path, capsys):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    root, out = tmp_path / "afile" / "store", tmp_path / "report.jsonl"
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--output", str(out)]
    assert main(argv + ["--store-root", str(root)]) == 1
    assert capsys.readouterr().err == f"error: cannot create store root {root}: Not a directory\n"
    assert not out.exists()


def test_detect_unwritable_output_exits_one(synthetic_store, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.jsonl"
    argv = ["detect", "--source", "mno", "--date", str(MONDAY)]
    assert main(argv + ["--store-root", str(synthetic_store), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write report {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_detect_missing_date_exits_three(synthetic_store, tmp_path, capsys):
    code = main(
        [
            "detect",
            "--source",
            "mno",
            "--date",
            "2021-06-08",
            "--store-root",
            str(synthetic_store),
            "--output",
            str(tmp_path / "r.jsonl"),
        ]
    )
    assert code == 3


def test_detect_byte_identical_across_runs(synthetic_store, tmp_path, capsys):
    outputs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"{name}.jsonl"
        code = main(
            [
                "detect",
                "--source",
                "mno",
                "--date",
                str(MONDAY),
                "--store-root",
                str(synthetic_store),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("content", ["{", '{"source_id": "mno"}'], ids=["truncated", "missing-key"])
def test_detect_corrupt_profile_exits_one(synthetic_store, tmp_path, capsys, content):
    (synthetic_store / "mno" / "profile.json").write_text(content, encoding="utf-8")
    argv = ["detect", "--source", "mno", "--date", str(MONDAY)]
    argv += ["--store-root", str(synthetic_store)]
    code = main(argv + ["--output", str(tmp_path / "r.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "profile.json" in err


def test_detect_csv_format(synthetic_store, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        [
            "detect",
            "--source",
            "mno",
            "--date",
            str(MONDAY),
            "--store-root",
            str(synthetic_store),
            "--output",
            str(out),
            "--format",
            "csv",
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0].startswith("source,date,start,end,kind")
    assert (tmp_path / "report.csv.meta.json").exists()


def test_config_file_and_flag_precedence(synthetic_store, tmp_path, capsys):
    config = tmp_path / "odmwatch.conf"
    config.write_text("th=150\nquantile=0.9  # comment\n", encoding="utf-8")
    out = tmp_path / "r.jsonl"
    code = main(
        [
            "detect",
            "--source",
            "mno",
            "--date",
            str(MONDAY),
            "--store-root",
            str(synthetic_store),
            "--config",
            str(config),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["config"]["th"] == 150  # file overrides default
    assert header["config"]["quantile"] == 0.9

    code = main(
        [
            "detect",
            "--source",
            "mno",
            "--date",
            str(MONDAY),
            "--store-root",
            str(synthetic_store),
            "--config",
            str(config),
            "--th",
            "20",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["config"]["th"] == 20  # flag overrides file


def test_workers_option_is_gone(synthetic_store, tmp_path, capsys):
    # Windows are evaluated one after another; a config file that still
    # sets workers= names the unknown key.
    config = tmp_path / "odmwatch.conf"
    config.write_text("workers=4\n", encoding="utf-8")
    argv = ["detect", "--source", "mno", "--date", str(MONDAY)]
    argv += ["--store-root", str(synthetic_store)]
    assert main(argv + ["--config", str(config)]) == 1
    assert "unknown key 'workers'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(argv + ["--workers", "4"])


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "in.csv", "--source", "mno", "--th", "5"],
        ["ingest", "in.csv", "--source", "mno", "--quantile", "0.5"],
        ["ingest", "in.csv", "--source", "mno", "--bounds-mode", "paper_literal"],
        ["bench", "--areas", "10", "--nonzeros", "40", "--stride", "daily"],
        ["bench", "--areas", "10", "--nonzeros", "40", "--store-root", "store"],
        ["bench", "--areas", "10", "--density", "0.5"],
    ],
    ids=[
        "ingest-th",
        "ingest-quantile",
        "ingest-bounds-mode",
        "bench-stride",
        "bench-store-root",
        "bench-density",
    ],
)
def test_unused_flags_are_gone(tmp_path, capsys, argv):
    # ingest stores no detector parameter and bench reads no store, so they
    # take no such flag; argparse names it and exits 2.
    day_csv(tmp_path, MONDAY, name="in.csv")
    argv = [str(tmp_path / a) if a == "in.csv" else a for a in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_ingest_accepts_a_shared_config_file(tmp_path, capsys):
    # One config file may serve ingest and detect; ingest reads only p,
    # stride and store_root from it, but accepts every key.
    store_root = tmp_path / "store"
    config = tmp_path / "odmwatch.conf"
    config.write_text(
        f"th=5\nquantile=0.5\nbounds_mode=paper_literal\nstore_root={store_root}\n",
        encoding="utf-8",
    )
    path = day_csv(tmp_path, MONDAY, per_day=1)
    assert main(["ingest", str(path), "--source", "mno", "--config", str(config)]) == 0
    assert (store_root / "mno" / f"{MONDAY}.odm").exists()


def test_every_config_key_reaches_the_run_config(tmp_path):
    # A key that is parsed must land in RunConfig or its DetectorConfig; each
    # value differs from the default, so a dropped key shows.
    values = {
        "th": "5",
        "p": "3",
        "quantile": "0.5",
        "stride": "daily",
        "bounds_mode": "paper_literal",
        "store_root": str(tmp_path / "store"),
        "output": str(tmp_path / "r.csv"),
        "format": "csv",
    }
    assert values.keys() == cli._CONFIG_PARSERS.keys()
    path = tmp_path / "odmwatch.conf"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    config = cli.build_config(argparse.Namespace(config=str(path)))
    default = cli.RunConfig()
    detector_keys = set(DetectorConfig._fields)
    for key, text in values.items():
        got, base = (config.detector, default.detector) if key in detector_keys else (config, default)
        assert getattr(got, key) == cli._CONFIG_PARSERS[key](text) != getattr(base, key), key


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("th=20\np=abc\n", 2, "bad value 'abc' for p"),
        ("# tuned\nquantile=x\n", 2, "bad value 'x' for quantile"),
        ("th= 1.5 # comment\n", 1, "bad value '1.5' for th"),
        ("th=20\nquantile 0.5\n", 2, "expected key=value, got 'quantile 0.5'"),
    ],
    ids=["p", "quantile", "th", "no-equals"],
)
def test_config_file_bad_value_names_file_and_line(synthetic_store, tmp_path, capsys, text, line, message):
    config = tmp_path / "odmwatch.conf"
    config.write_text(text, encoding="utf-8")
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--config", str(config)]
    assert main(argv + ["--store-root", str(synthetic_store)]) == 1
    assert capsys.readouterr().err == f"error: {config}:{line}: {message}\n"


def test_config_file_unknown_format_exits_one(synthetic_store, tmp_path, capsys):
    config = tmp_path / "odmwatch.conf"
    config.write_text("format=xml\n", encoding="utf-8")
    out = tmp_path / "r.xml"
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--config", str(config)]
    assert main(argv + ["--store-root", str(synthetic_store), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: format must be one of ('jsonl', 'csv'), got 'xml'\n"
    assert not out.exists()


def test_detect_bad_date_names_the_flag(synthetic_store, tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    argv = ["detect", "--source", "mno", "--date", "2021-13-07", "--output", str(out)]
    assert main(argv + ["--store-root", str(synthetic_store)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad --date '2021-13-07': ")
    assert "month must be in 1..12" in err
    assert not out.exists()


def test_detect_p_zero_exits_one(synthetic_store, tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--p", "0", "--output", str(out)]
    assert main(argv + ["--store-root", str(synthetic_store)]) == 1
    assert capsys.readouterr().err == "error: p must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--areas", "10", "--nonzeros", "40", "--windows", "1", "--p", "-1"],
        ["bench", "--areas", "10", "--nonzeros", "40", "--windows", "1", "--p", "0"],
        ["ingest", "in.csv", "--source", "mno", "--p", "0", "--store-root", "store"],
    ],
    ids=["bench-minus-one", "bench-zero", "ingest-zero"],
)
def test_p_below_one_exits_one(tmp_path, capsys, argv):
    # p is checked with the other detection parameters before a command
    # does any work: bench times nothing and ingest stores nothing.
    day_csv(tmp_path, MONDAY, per_day=1, name="in.csv")
    argv = [str(tmp_path / a) if a in ("in.csv", "store") else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: p must be >= 1\n")
    assert not (tmp_path / "store").exists()


def first_generated_pair(n_areas, density, base_volume, seed):
    from odmwatch import SynthSpec, generate

    spec = SynthSpec(n_areas=n_areas, density=density, base_volume=base_volume, seed=seed)
    snapshots, _ = generate(spec, MONDAY, days=1, warmup_days=0)
    return sorted(dict(snapshots[0].cells()))[0]


def test_generate_command(tmp_path, capsys):
    origin, destination = first_generated_pair(8, 0.5, 60, 9)
    spec = {
        "n_areas": 8,
        "density": 0.5,
        "base_volume": 60,
        "seed": 9,
        "start_date": "2021-06-07",
        "days": 30,
        "warmup": {"p": 4, "stride": "weekly"},
        "anomalies": [
            {
                "kind": "cell",
                "origin": origin,
                "destination": destination,
                "date": "2021-07-05",
                "anomaly": "spike",
                "magnitude": 3.0,
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_dir = tmp_path / "generated"
    assert main(["generate", str(spec_path), str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "labels.json" in files
    assert len(files) == 31  # 30 days + labels


def test_generate_rejects_warmup_anomaly(tmp_path, capsys):
    spec = {
        "n_areas": 8,
        "density": 0.5,
        "base_volume": 60,
        "start_date": "2021-06-07",
        "days": 30,
        "anomalies": [
            {
                "kind": "cell",
                "origin": "A0",
                "destination": "A1",
                "date": "2021-06-10",
                "anomaly": "spike",
                "magnitude": 3.0,
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["generate", str(spec_path), str(tmp_path / "out")]) == 1
    assert "warm-up" in capsys.readouterr().err


def test_generate_rejects_unknown_warmup_stride(tmp_path, capsys):
    spec = {
        "n_areas": 8,
        "density": 0.5,
        "base_volume": 60,
        "start_date": "2021-06-07",
        "days": 30,
        "warmup": {"p": 4, "stride": "monthly"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["generate", str(spec_path), str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: bad spec file {spec_path}: "
        "warmup stride must be one of ['daily', 'weekly'], got 'monthly'\n"
    )
    assert not out_dir.exists()


def test_generate_deterministic(tmp_path, capsys):
    spec = {
        "n_areas": 6,
        "density": 0.6,
        "base_volume": 40,
        "noise": 0.1,
        "seed": 4,
        "start_date": "2021-06-07",
        "days": 3,
        "warmup": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["generate", str(spec_path), str(tmp_path / "one")]) == 0
    assert main(["generate", str(spec_path), str(tmp_path / "two")]) == 0
    for name in ("2021-06-07.csv", "2021-06-08.csv", "labels.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_bench_smoke(capsys):
    code = main(["bench", "--areas", "10", "--nonzeros", "40", "--windows", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stage stats" in out
    assert "detection total" in out


def test_end_to_end_generated_anomaly(tmp_path, capsys):
    origin, destination = first_generated_pair(8, 0.9, 100, 12)
    spec = {
        "n_areas": 8,
        "density": 0.9,
        "base_volume": 100,
        "seed": 12,
        "start_date": "2021-06-07",
        "days": 29,
        "warmup": {"p": 4, "stride": "weekly"},
        "anomalies": [
            {
                "kind": "cell",
                "origin": origin,
                "destination": destination,
                "date": "2021-07-05",
                "anomaly": "spike",
                "magnitude": 4.0,
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_dir = tmp_path / "generated"
    assert main(["generate", str(spec_path), str(out_dir)]) == 0

    store_root = tmp_path / "store"
    for csv_file in sorted(out_dir.glob("*.csv")):
        assert (
            main(["ingest", str(csv_file), "--source", "synth", "--store-root", str(store_root)])
            == 0
        )
    report_path = tmp_path / "report.jsonl"
    assert (
        main(
            [
                "detect",
                "--source",
                "synth",
                "--date",
                "2021-07-05",
                "--store-root",
                str(store_root),
                "--output",
                str(report_path),
            ]
        )
        == 0
    )
    lines = [json.loads(l) for l in report_path.read_text().splitlines()]
    cell_signals = [
        l for l in lines if l.get("status") == "signal" and l.get("kind") == "cell"
    ]
    assert [(s["origin"], s["destination"]) for s in cell_signals] == [(origin, destination)]
    assert cell_signals[0]["direction"] == "upper"
    assert cell_signals[0]["level"] == 3
