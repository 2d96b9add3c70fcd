"""The command line as a whole process: ``python -m odmwatch.cli``, which
ends through ``cli.run`` with ``os._exit``, and the modules each command
loads."""

import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import odmwatch

MONDAY = dt.date(2021, 6, 7)
HEADER = "date,start,end,origin,destination,count\n"
SRC = str(Path(odmwatch.__file__).resolve().parents[1])
# Without PYTHONUNBUFFERED, stdout into a pipe is block-buffered, so output
# survives ``os._exit`` only if ``run`` flushes it.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": SRC}
# What only detect, generate or bench runs; ingest must load none of it.
# No record is a dataclass (whose import pulls in ``inspect``), the store's
# temp names need no ``secrets``, and only a ``.gz`` input needs ``gzip``.
NOT_FOR_INGEST = (
    "odmwatch.detector",
    "odmwatch._engine",
    "odmwatch.synth",
    "odmwatch.bench",
    "fractions",
    "numpy",
    "_strptime",
    "logging",
    "dataclasses",
    "inspect",
    "secrets",
    "gzip",
)


def python(*args, cwd):
    """Run the interpreter with stdout and stderr as pipes."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120
    )


def odmwatch_cli(*argv, cwd):
    return python("-m", "odmwatch.cli", *argv, cwd=cwd)


def week_of_days(tmp_path, dates=7):
    """One file of ``dates`` whole-day windows, one a day from MONDAY."""
    lines = [HEADER]
    for k in range(dates):
        day = MONDAY + dt.timedelta(days=k)
        lines.append(f"{day},00:00:00,23:59:59,A,B,{30 + k}\n")
    path = tmp_path / "days.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def test_exit_codes_and_stdout_come_through_run(tmp_path):
    days = week_of_days(tmp_path)
    store = ["--source", "src", "--store-root", "store"]

    ingest = odmwatch_cli("ingest", days, *store, cwd=tmp_path)
    assert ingest.returncode == 0, ingest.stderr
    lines = ingest.stdout.splitlines()
    assert [json.loads(line)["date"] for line in lines] == [
        (MONDAY + dt.timedelta(days=k)).isoformat() for k in range(7)
    ]

    missing = odmwatch_cli("ingest", days, *store, "--expected-windows", "2", cwd=tmp_path)
    assert missing.returncode == 2, missing.stderr
    assert len(missing.stdout.splitlines()) == 7

    detect = odmwatch_cli("detect", *store, "--date", str(MONDAY), "--output", "r.jsonl", cwd=tmp_path)
    assert detect.returncode == 0, detect.stderr
    assert detect.stdout == "src 2021-06-07: 1 windows, 0 signals (upper 0, lower 0) -> r.jsonl\n"
    report = (tmp_path / "r.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(report[-1])["record"] == "summary"

    gone = odmwatch_cli("detect", *store, "--date", "2021-07-01", "--output", "r.jsonl", cwd=tmp_path)
    assert gone.returncode == 3
    assert gone.stdout.endswith("-> r.jsonl\n")
    assert gone.stderr == "warning: no stored windows for src on 2021-07-01\n"

    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + f"{MONDAY},00:00:00,23:59:59,A,B,oops\n", encoding="utf-8")
    error = odmwatch_cli("ingest", str(bad), *store, cwd=tmp_path)
    assert error.returncode == 1
    assert "bad.csv:2" in error.stderr


def test_argparse_exits_take_the_normal_path(tmp_path):
    usage = odmwatch_cli("ingest", cwd=tmp_path)
    assert usage.returncode == 2
    assert "the following arguments are required" in usage.stderr
    helped = odmwatch_cli("--help", cwd=tmp_path)
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: odmwatch")


def imported_modules(stderr):
    """Module names from ``-X importtime`` output."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")}


def test_ingest_loads_only_what_it_runs(tmp_path):
    days = week_of_days(tmp_path)
    store = ["--source", "src", "--store-root", "store"]
    ingest = python("-X", "importtime", "-m", "odmwatch.cli", "ingest", days, *store, cwd=tmp_path)
    assert ingest.returncode == 0, ingest.stderr
    loaded = imported_modules(ingest.stderr)
    assert {"odmwatch.core", "odmwatch.ingestion", "odmwatch.store"} <= loaded
    assert loaded.isdisjoint(NOT_FOR_INGEST), sorted(loaded & set(NOT_FOR_INGEST))

    detect = python(
        "-X", "importtime", "-m", "odmwatch.cli", "detect", *store, "--date", str(MONDAY), cwd=tmp_path
    )
    assert detect.returncode == 0, detect.stderr
    loaded = imported_modules(detect.stderr)
    assert {"odmwatch.detector", "odmwatch._engine"} <= loaded
    assert loaded.isdisjoint({"odmwatch.synth", "odmwatch.bench", "fractions", "logging"})
    assert loaded.isdisjoint({"dataclasses", "secrets"}), sorted(loaded & {"dataclasses", "secrets"})


def test_ingest_that_redelivers_a_stored_date_loads_no_numpy(tmp_path):
    # The put replaces every stored window, so it decodes none of them.
    days = week_of_days(tmp_path)
    store = ["--source", "src", "--store-root", "store"]
    first = odmwatch_cli("ingest", days, *store, cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    again = python("-X", "importtime", "-m", "odmwatch.cli", "ingest", days, *store, cwd=tmp_path)
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    loaded = imported_modules(again.stderr)
    assert loaded.isdisjoint(NOT_FOR_INGEST), sorted(loaded & set(NOT_FOR_INGEST))


def test_generate_loads_no_detection_engine(tmp_path):
    spec = {"n_areas": 3, "density": 1.0, "base_volume": 50, "start_date": str(MONDAY), "days": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    argv = ["-X", "importtime", "-m", "odmwatch.cli", "generate", "spec.json", "out"]
    generate = python(*argv, cwd=tmp_path)
    assert generate.returncode == 0, generate.stderr
    assert (tmp_path / "out" / f"{MONDAY}.csv").exists()
    loaded = imported_modules(generate.stderr)
    assert "odmwatch.synth" in loaded
    assert loaded.isdisjoint({"odmwatch._engine", "odmwatch.detector", "odmwatch.bench"})


# Runs ``cli.run`` with ``os._exit`` patched to print, just before the real
# exit, the process's OS threads and its OPENBLAS_NUM_THREADS.
THREADS_AT_EXIT = """
import os
from odmwatch import cli

def exit_(status, real=os._exit):
    print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"), flush=True)
    real(status)

os._exit = exit_
cli.run()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("setting", [None, "2"])
def test_run_holds_openblas_to_one_thread_unless_set(tmp_path, setting):
    days = week_of_days(tmp_path)
    store = ["--source", "src", "--store-root", "store"]
    assert odmwatch_cli("ingest", days, *store, cwd=tmp_path).returncode == 0
    env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    argv = ["-c", THREADS_AT_EXIT, "detect", *store, "--date", str(MONDAY)]
    child = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    seen_threads, seen_setting = child.stdout.splitlines()[-1].split()
    if setting is None:  # numpy was loaded, yet no BLAS worker started
        assert seen_threads == "1"
    assert seen_setting == (setting or "1")


def test_bare_import_loads_no_submodule(tmp_path):
    code = "import sys, odmwatch; print(sorted(m for m in sys.modules if m.startswith('odmwatch.')))"
    child = python("-c", code, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
