import argparse
import dataclasses
import datetime as dt
import json

import pytest

from odmwatch import DetectorConfig, HistoryStore, TimeWindow, cli
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


def test_detect_count_beyond_engine_limit_names_period(tmp_path, capsys):
    # 5e9 is within int64, so ingest keeps it, but above what the engine can
    # square exactly; detect must fail naming where the value is stored.
    store_root = tmp_path / "store"
    history = MONDAY - dt.timedelta(days=7)
    for date, count in ((history, 5_000_000_000), (MONDAY, 10)):
        path = tmp_path / f"{date}.csv"
        path.write_text(HEADER + f"{date},00:00:00,23:59:59,A,B,{count}\n", encoding="utf-8")
        assert main(["ingest", str(path), "--source", "mno", "--store-root", str(store_root)]) == 0
    capsys.readouterr()
    out = tmp_path / "r.jsonl"
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--store-root", str(store_root)]
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: source 'mno', window 00:00:00-23:59:59, ")
    assert f"period {history}: cell value 5000000000 exceeds" in err
    assert "Traceback" not in err
    assert not out.exists()


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


class _FailingRows(list):
    """Report rows whose iteration fails after the first row, as a full
    disk would fail a write partway through."""

    def __iter__(self):
        yield from self[:1]  # a slice is a plain list
        raise OSError("disk full")


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

    detect_day = cli.detect_day

    def detect_day_failing_write(*args, **kwargs):
        day = detect_day(*args, **kwargs)
        for window in day.window_reports:
            assert window.outcomes
            window.outcomes = _FailingRows(window.outcomes)
        return day

    monkeypatch.setattr(cli, "detect_day", detect_day_failing_write)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write report {report}: disk full\n"
    # The old report keeps its bytes and no temp file is left behind.
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


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
    detector_keys = {f.name for f in dataclasses.fields(DetectorConfig)}
    for key, text in values.items():
        got, base = (config.detector, default.detector) if key in detector_keys else (config, default)
        assert getattr(got, key) == cli._CONFIG_PARSERS[key](text) != getattr(base, key), key


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("th=20\np=abc\n", 2, "bad value 'abc' for p"),
        ("# tuned\nquantile=x\n", 2, "bad value 'x' for quantile"),
        ("th= 1.5 # comment\n", 1, "bad value '1.5' for th"),
    ],
    ids=["p", "quantile", "th"],
)
def test_config_file_bad_value_names_file_and_line(synthetic_store, tmp_path, capsys, text, line, message):
    config = tmp_path / "odmwatch.conf"
    config.write_text(text, encoding="utf-8")
    argv = ["detect", "--source", "mno", "--date", str(MONDAY), "--config", str(config)]
    assert main(argv + ["--store-root", str(synthetic_store)]) == 1
    assert capsys.readouterr().err == f"error: {config}:{line}: {message}\n"


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
