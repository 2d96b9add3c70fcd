"""End-to-end benchmark of odmwatch: ingest five day files, detect the target date.

One iteration generates the workload's CSV files from the seed into an
empty directory, runs ``odmwatch ingest`` once per day file in date order,
then ``odmwatch detect`` for the target date, and checks every output.
The untraced run repeats the set-up ``SETUP_REPEATS`` times per iteration
and times a fixed calibration child before the ingest children and before
each detect child (see ``CALIBRATION_CODE``). Iterations repeat until the
next one would end after ``--seconds``; since detect only reads the store,
more detect children on the last store fill the rest. Each metric is the
median over the run.

``--trace 0`` runs every command as its own child process, one at a time,
and reports the end-to-end metrics. ``--trace 1`` replays the same argv
lists through ``odmwatch.cli.main`` in this process, alternating an
untraced replay with one traced by ``spans.instrument``, and reports the
per-layer metrics. A command that exits non-zero or whose output fails a
check counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_ingest, check_report, read_report
from pipeline import argvs, run_child, tree_bytes
from spawner import Spawner
from spans import Recorder, instrument, layer_metrics
from workloads import DATES, WORKLOADS, Workload, generate

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
# Seeds whose report SHA-256 is recorded in DIGESTS; a run with one of them
# fails unless its report matches.
DIGEST_SEEDS = range(16)
# Host speed drifts over seconds, so each run spreads many samples over its
# whole length: every iteration repeats the set-up (into a scratch directory).
SETUP_REPEATS = 8
# The host's speed also drifts, between runs and within one. So before the
# ingest children of every iteration and before each detect child, the
# untraced run times this fixed child: a Python start, a numpy import and a
# CSV parse into a dict, the kind of work odmwatch does, without odmwatch.
# Each time sample is scaled by CALIBRATION_REF_S / the calibration time
# next to it, so the time metrics read as seconds on a host where the
# calibration child takes CALIBRATION_REF_S, about its median on the 2-core
# VM where the benchmark was defined. The unscaled wall times are printed too.
CALIBRATION_CODE = """import csv
import numpy
rows = (f"2021-07-05,00:00:00,23:59:59,A{i % 977},B{i % 613},{i % 151}" for i in range(25_000))
flows = {}
for row in csv.reader(rows):
    flows[row[3], row[4]] = flows.get((row[3], row[4]), 0) + int(row[5])
numpy.sort(numpy.random.default_rng(0).random(200_000))
"""
CALIBRATION_REF_S = 0.30

END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "detect_s": "s",
    "ingest_peak_rss_mb": "MiB",
    "detect_peak_rss_mb": "MiB",
    "store_bytes_per_input_byte": "ratio",
}

PER_LAYER = {
    "parse.s": "s",
    "parse.rows": "count",
    "parse.input_bytes": "bytes",
    "store_write.s": "s",
    "store_write.calls": "count",
    "store_write.bytes": "bytes",
    "store_write.bytes_per_input_byte": "ratio",
    "store_read.s": "s",
    "store_read.windows_for.s": "s",
    "store_read.get_snapshot.s": "s",
    "store_read.get_snapshot.calls": "count",
    "store_read.cells_returned": "count",
    "encode.s": "s",
    "encode.cells": "count",
    "engine.s": "s",
    "engine.stats_s": "s",
    "engine.threshold_s": "s",
    "engine.classify_s": "s",
    "engine.universe_cells": "count",
    "engine.current_cells": "count",
    "engine.keys": "count",
    "materialize.s": "s",
    "materialize.outcomes": "count",
    "serialize.s": "s",
    "serialize.rows": "count",
    "serialize.bytes": "bytes",
    "detect_day.self_s": "s",
    "detect_day.windows": "count",
    "detect_day.threads": "count",
    "keys.signal": "count",
    "keys.no_signal": "count",
    "ingest.wall_s": "s",
    "detect.wall_s": "s",
    "trace.overhead_s": "s",
}
# Printed with the traced run but left out of its JSON metrics: on some
# workloads they are 0 by construction (every cell eligible; every window
# has all p periods), which the check on each report already asserts.
PRINTED_ONLY = {"keys.below_eligibility": "count", "keys.missing_data": "count"}
# Printed with the untraced run: the unscaled wall times and the calibration.
PRINTED_RAW = {"calibration_s": "s", "setup_wall_s": "s", "ingest_wall_s": "s", "detect_wall_s": "s"}


@dataclass
class Result:
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    derived: dict[str, float] = field(default_factory=dict)  # reported instead of the median

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def value(self, metric: str) -> float:
        if metric in self.derived:
            return self.derived[metric]
        return statistics.median(self.samples[metric])


def load_digest(workload: str, seed: int) -> str | None:
    """The recorded report digest, or None for a seed outside ``DIGEST_SEEDS``."""
    if seed not in DIGEST_SEEDS:
        return None
    digest = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if digest is None:
        raise KeyError(f"{DIGESTS.name} has no digest for {workload} seed {seed}")
    return digest


def set_up(workload: Workload, seed: int, directory: Path):
    """Generate the inputs and create the empty store root; (inputs, seconds)."""
    start = time.perf_counter()
    inputs = generate(workload, seed, directory / "inputs")
    (directory / "store").mkdir()
    return inputs, time.perf_counter() - start


def measure(
    workload: Workload, seed: int, seconds: float, work: Path, src: Path, spawner: Spawner, digest
) -> Result:
    """Untraced run: every command is a child process."""
    result = Result()

    def calibrate(directory: Path) -> float:
        """Run the calibration child; the factor that scales the times next to it."""
        log = str(directory / "calibration.log")
        reply = spawner.run([sys.executable, "-c", CALIBRATION_CODE], dict(os.environ), log, log)
        if reply["exit_code"] != 0:
            raise RuntimeError(f"calibration child exited {reply['exit_code']}, see {log}")
        result.add("calibration_s", reply["wall_s"])
        return CALIBRATION_REF_S / reply["wall_s"]

    def detect(directory: Path, commands, inputs) -> float:
        """One calibration and detect child from the store to a fresh report; their seconds."""
        began = time.perf_counter()
        for output in commands.outputs:
            output.unlink(missing_ok=True)
        scale = calibrate(directory)
        child = run_child(spawner, commands.detect, src, directory)
        result.add("detect_wall_s", child.wall_s)
        result.add("detect_s", child.wall_s * scale)
        result.add("detect_peak_rss_mb", child.maxrss_mib)
        if child.exit_code != 0:
            result.operation([f"detect: exit code {child.exit_code}: {child.stderr.strip()[-500:]}"])
        else:
            result.operation(check_report(commands.outputs, workload, inputs, digest))
        return time.perf_counter() - began

    start = time.perf_counter()
    iteration = 0
    while True:
        began = time.perf_counter()
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            scratch = work / "setup"
            scratch.mkdir()
            setups.append(set_up(workload, seed, scratch)[1])
            shutil.rmtree(scratch)
        directory = work / f"iter{iteration}"
        directory.mkdir()
        inputs, setup_s = set_up(workload, seed, directory)
        setups.append(setup_s)
        commands = argvs(workload, inputs, directory / "store", directory)
        scale = calibrate(directory)
        for wall in setups:
            result.add("setup_wall_s", wall)
            result.add("setup_s", wall * scale)
        ingest_rss = 0.0
        for k, (date, argv) in enumerate(zip(DATES, commands.ingest)):
            child = run_child(spawner, argv, src, directory)
            ingest_rss = max(ingest_rss, child.maxrss_mib)
            result.add(f"ingest_wall_day{k}_s", child.wall_s)
            result.add(f"ingest_day{k}_s", child.wall_s * scale)
            result.operation(check_ingest(child.exit_code, child.stdout, inputs, date.isoformat()))
        result.add("ingest_peak_rss_mb", ingest_rss)
        result.add("store_bytes_per_input_byte", tree_bytes(directory / "store") / inputs.input_bytes)
        last_detect = detect(directory, commands, inputs)
        iteration += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
        shutil.rmtree(directory)
    # What is left of the run is too short for an iteration: fill it with
    # more detect children on the last store.
    while time.perf_counter() - start + last_detect <= seconds:
        last_detect = detect(directory, commands, inputs)
    shutil.rmtree(directory)
    result.iterations = iteration
    # The sum of each day's median child is steadier than the median of the
    # per-iteration sums when a slow spell hits one child.
    for metric, day in (("ingest_s", "ingest_day{}_s"), ("ingest_wall_s", "ingest_wall_day{}_s")):
        result.derived[metric] = sum(
            statistics.median(result.samples[day.format(k)]) for k in range(len(DATES))
        )
    return result


def replay(cli, workload, inputs, commands, result: Result, recorder: Recorder | None, run: str, digest) -> float:
    """Run the commands through ``cli.main`` in-process; their total wall seconds."""

    def call(kind: str, argv: list[str]) -> tuple[int | None, str]:
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                if recorder is None:
                    code = cli.main(argv)
                else:
                    code = recorder.call(f"command.{kind}", cli.main, argv)
        except Exception:  # a crash is one failed operation; the run goes on
            result.problems.append(f"{kind} raised:\n{traceback.format_exc(limit=3)}")
            code = None
        return code, captured.getvalue()

    wall = 0.0
    for k, (date, argv) in enumerate(zip(DATES, commands.ingest)):
        if recorder is not None:
            recorder.run = f"{run}/ingest{k}"
        start = time.perf_counter()
        code, stdout = call("ingest", argv)
        wall += time.perf_counter() - start
        result.operation(check_ingest(-1 if code is None else code, stdout, inputs, date.isoformat()))
    if recorder is not None:
        recorder.run = f"{run}/detect"
    start = time.perf_counter()
    code, _ = call("detect", commands.detect)
    wall += time.perf_counter() - start
    if code != 0:
        result.operation([f"detect: exit code {code}"])
    else:
        result.operation(check_report(commands.outputs, workload, inputs, digest))
    return wall


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path, digest) -> Result:
    """Traced run: in-process replays, alternately untraced and traced."""
    from odmwatch import cli

    result = Result()
    recorder = Recorder()
    walls: dict[str, list[float]] = {"plain": [], "traced": []}
    start = time.perf_counter()
    iteration = 0
    while True:
        began = time.perf_counter()
        directory = work / f"iter{iteration}"
        directory.mkdir()
        inputs = generate(workload, seed, directory / "inputs")
        order = ("plain", "traced") if iteration % 2 == 0 else ("traced", "plain")
        for mode in order:
            (directory / mode / "store").mkdir(parents=True)
            commands = argvs(workload, inputs, directory / mode / "store", directory / mode)
            if mode == "plain":
                walls[mode].append(replay(cli, workload, inputs, commands, result, None, "", digest))
                continue
            first = len(recorder.spans)
            restore = instrument(recorder)
            try:
                run = f"{workload.name}/seed{seed}/iter{iteration}"
                walls[mode].append(replay(cli, workload, inputs, commands, result, recorder, run, digest))
            finally:
                restore()
            for name, value in layer_metrics(recorder.spans[first:]).items():
                result.add(name, value)
            result.add("serialize.bytes", sum(p.stat().st_size for p in commands.outputs if p.exists()))
            try:
                _, _, summary = read_report(commands.outputs, workload.report_format)
            except (OSError, ValueError, KeyError, TypeError, csv.Error):
                summary = {}  # already counted as a failed operation
            for status in ("signal", "no_signal", "below_eligibility", "missing_data"):
                result.add(f"keys.{status}", summary.get(status, 0))
        shutil.rmtree(directory)
        iteration += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    result.iterations = iteration
    recorder.write(WORK / f"spans-{workload.name}-seed{seed}.jsonl")
    result.derived["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(
        walls["plain"]
    )
    return result


def report_lines(name: str, seed: int, result: Result, units: dict[str, str]) -> list[str]:
    lines = [
        f"{name} seed {seed}: {result.iterations} iterations, {result.attempted} operations attempted, "
        f"{result.failed} failed"
    ]
    for metric, unit in units.items():
        values = result.samples.get(metric, [])
        if metric in result.derived:
            lines.append(f"  {metric:34s} {result.derived[metric]:14.6f} {unit}")
            continue
        if not values:
            lines.append(f"  {metric:34s} (not measured) {unit}")
            continue
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        lines.append(
            f"  {metric:34s} {statistics.median(values):14.6f} {unit:6s} "
            f"q1 {quartiles[0]:.6f} q3 {quartiles[2]:.6f} n={len(values)}"
        )
    lines.extend(f"  problem: {p}" for p in result.problems[:20])
    return lines


def main(args, src: Path, spawner: Spawner) -> int:
    """Run ``args.workload`` (or all) and print the result; ``run.py`` parses args."""
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import odmwatch.cli  # noqa: F401  fails fast on a broken program; leaves bytecode for the children

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    correct = True
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        work = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        digest = load_digest(name, args.seed)
        try:
            if args.trace:
                result = measure_traced(WORKLOADS[name], args.seed, args.seconds, work, digest)
            else:
                result = measure(WORKLOADS[name], args.seed, args.seconds, work, src, spawner, digest)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        printed = {**units, **(PRINTED_ONLY if args.trace else PRINTED_RAW)}
        print("\n".join(report_lines(name, args.seed, result, printed)), flush=True)
        correct = correct and result.failed == 0 and not result.problems
        attempted += result.attempted
        failed += result.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": result.value(metric), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
