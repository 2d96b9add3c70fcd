"""The benchmark's unit of work: ingest every day file, then detect the target date.

``argvs`` builds the exact ``odmwatch`` command lines. The untraced run
executes each as its own child process, one at a time, through the
``spawner`` helper; the traced run
passes the same argv lists to ``odmwatch.cli.main`` in-process. Every
command uses the program's defaults (th=20, p=4, quantile=0.75, weekly
stride, default worker pool).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

from spawner import Spawner
from workloads import SOURCE, TARGET, Inputs, Workload


@dataclass(frozen=True)
class Commands:
    ingest: tuple[list[str], ...]  # one per day file, in date order
    detect: list[str]
    outputs: tuple[Path, ...]  # files the detect command writes


def argvs(workload: Workload, inputs: Inputs, store: Path, report_dir: Path) -> Commands:
    report = report_dir / f"report.{workload.report_format}"
    ingest = tuple(
        [
            "ingest",
            str(path),
            "--source",
            SOURCE,
            "--store-root",
            str(store),
            "--expected-windows",
            str(workload.windows),
        ]
        for path in inputs.files
    )
    detect = [
        "detect",
        "--source",
        SOURCE,
        "--date",
        TARGET.isoformat(),
        "--store-root",
        str(store),
        "--output",
        str(report),
        "--format",
        workload.report_format,
    ]
    outputs = (report,)
    if workload.report_format == "csv":
        outputs += (report.with_name(report.name + ".meta.json"),)
    return Commands(ingest, detect, outputs)


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    maxrss_mib: float
    stdout: str
    stderr: str


def run_child(spawner: Spawner, argv: list[str], src_dir: Path, log_dir: Path) -> ChildResult:
    """Run ``python -m odmwatch.cli <argv>`` to completion; rusage from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out_path = log_dir / "child.stdout"
    err_path = log_dir / "child.stderr"
    reply = spawner.run(
        [sys.executable, "-m", "odmwatch.cli", *argv], env, str(out_path), str(err_path)
    )
    return ChildResult(
        exit_code=reply["exit_code"],
        wall_s=reply["wall_s"],
        maxrss_mib=reply["maxrss_kib"] / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
