"""Batch pipeline commands: ingest, detect, generate, bench.

Exit codes: 0 success; 1 parse or storage error; 2 ingest finished but
validation found missing/extra windows; 3 the detected date has no stored
windows at all. Configuration precedence is flags > config file > defaults,
with defaults matching the reference parameterization (th=20, p=4,
quantile=0.75).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from .bench import run_bench
from .detector import (
    DetectorConfig,
    detect_day,
    write_day_report_csv,
    write_day_report_jsonl,
)
from .ingestion import (
    OdmIntegrityError,
    OdmParseError,
    SourceProfile,
    parse_file,
    validate_day,
)
from .store import HistoryStore, StoreError, atomic_open, retention_for
from .synth import SynthSpecError, generate, load_spec_file, write_generated

logger = logging.getLogger("odmwatch")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_MISSING_DATE = 3


@dataclass
class RunConfig:
    th: int = 20
    p: int = 4
    quantile: float = 0.75
    stride: str = "weekly"
    bounds_mode: str = "clamped"
    store_root: Path = Path("odmwatch-store")
    output: Path = Path("report.jsonl")
    format: str = "jsonl"

    def detector(self) -> DetectorConfig:
        return DetectorConfig(th=self.th, quantile=self.quantile, bounds_mode=self.bounds_mode)

    def open_store(self) -> HistoryStore:
        return HistoryStore(self.store_root, retention_days=retention_for(self.p, self.stride))


_CONFIG_PARSERS = {
    "th": int,
    "p": int,
    "quantile": float,
    "stride": str,
    "bounds_mode": str,
    "store_root": Path,
    "output": Path,
    "format": str,
}


def load_config_file(path: Path) -> dict:
    """Flat key=value config file; # starts a comment."""
    values: dict = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read config {path}: {reason}") from None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _CONFIG_PARSERS[key](value.strip())
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(Path(args.config)).items():
            setattr(config, key, value)
    for field in dataclasses.fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            setattr(config, field.name, flag)
    if config.stride not in ("daily", "weekly"):
        raise ValueError(f"stride must be daily or weekly, got {config.stride!r}")
    if config.format not in ("jsonl", "csv"):
        raise ValueError(f"format must be jsonl or csv, got {config.format!r}")
    config.detector()  # validates th / quantile / bounds_mode
    return config


def cmd_ingest(args: argparse.Namespace) -> int:
    config = build_config(args)
    profile = SourceProfile(
        source_id=args.source,
        expected_windows_per_day=args.expected_windows,
    )
    store = config.open_store()
    by_window = {}  # same window in two files: the later file wins
    try:
        for path in args.files:
            for snapshot in parse_file(path):
                by_window[snapshot.window] = snapshot
    except (OdmParseError, OdmIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        return EXIT_ERROR
    snapshots = list(by_window.values())

    try:
        store.put_profile(profile)
        for snapshot in snapshots:
            store.put_snapshot(args.source, snapshot)
    except (StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    status = EXIT_OK
    dates = sorted({m.window.date for m in snapshots})
    for date in dates:
        day = [m for m in snapshots if m.window.date == date]
        report = validate_day(day, profile, date)
        print(report.to_json())
        if not report.clean:
            status = EXIT_VALIDATION
    if not dates:
        logger.warning("no rows ingested from %s", ", ".join(map(str, args.files)))
    return status


def cmd_detect(args: argparse.Namespace) -> int:
    config = build_config(args)
    date = dt.date.fromisoformat(args.date)
    store = config.open_store()
    try:
        report = detect_day(
            store,
            args.source,
            date,
            config.detector(),
            p=config.p,
            stride=config.stride,
        )
    except (StoreError, OdmParseError, OdmIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    output = Path(config.output)
    try:
        if config.format == "csv":
            write_day_report_csv(report, output)
        else:
            with atomic_open(output, "w", encoding="utf-8", newline="") as handle:
                write_day_report_jsonl(report, handle)
    except OSError as exc:
        print(f"error: cannot write report {output}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_ERROR

    totals = report.summary()
    print(
        f"{args.source} {date}: {totals['windows_present']} windows, "
        f"{totals.get('signal', 0)} signals "
        f"(upper {totals.get('upper', 0)}, lower {totals.get('lower', 0)}) -> {output}"
    )
    if report.fully_missing:
        print(f"warning: no stored windows for {args.source} on {date}", file=sys.stderr)
        return EXIT_MISSING_DATE
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec, start, days, warmup_days = load_spec_file(args.spec_file)
        snapshots, ground_truth = generate(spec, start, days, warmup_days)
        write_generated(args.out_dir, snapshots, ground_truth)
    except (SynthSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(
        f"wrote {len(snapshots)} windows over {days} days "
        f"({len(ground_truth)} anomalies) to {args.out_dir}"
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config = build_config(args)
    nonzeros = args.nonzeros
    if nonzeros is None:
        density = args.density if args.density is not None else 0.05
        nonzeros = max(1, round(density * args.areas * args.areas))
    result = run_bench(
        areas=args.areas,
        nonzeros=nonzeros,
        windows=args.windows,
        p=config.p,
        th=config.th,
        quantile=config.quantile,
        bounds_mode=config.bounds_mode,
        seed=args.seed,
    )
    for line in result.lines():
        print(line)
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--th", type=int, help="eligibility threshold (default 20)")
    parser.add_argument("--p", type=int, help="rolling window length (default 4)")
    parser.add_argument("--quantile", type=float, help="daily quantile level (default 0.75)")
    parser.add_argument("--stride", choices=("daily", "weekly"), help="history stride (default weekly)")
    parser.add_argument(
        "--bounds-mode",
        dest="bounds_mode",
        choices=("clamped", "paper_literal"),
        help="lower-bound handling (default clamped)",
    )
    parser.add_argument("--store-root", dest="store_root", type=Path, help="snapshot store directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odmwatch",
        description="Anomaly detection for origin-destination mobility matrices",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="verbose logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse, validate and store ODM files")
    p_ingest.add_argument("files", nargs="+", type=Path, help="CSV or CSV.gz input files")
    p_ingest.add_argument("--source", required=True, help="source identifier")
    p_ingest.add_argument(
        "--expected-windows",
        dest="expected_windows",
        type=int,
        default=1,
        help="expected windows per day (default 1 = whole-day)",
    )
    _add_config_flags(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_detect = sub.add_parser("detect", help="run detection for one source and date")
    p_detect.add_argument("--source", required=True)
    p_detect.add_argument("--date", required=True, help="YYYY-MM-DD")
    p_detect.add_argument("--output", type=Path, help="report file (default report.jsonl)")
    p_detect.add_argument("--format", choices=("jsonl", "csv"), help="report format")
    _add_config_flags(p_detect)
    p_detect.set_defaults(func=cmd_detect)

    p_generate = sub.add_parser("generate", help="emit synthetic ODM days with labelled anomalies")
    p_generate.add_argument("spec_file", type=Path)
    p_generate.add_argument("out_dir", type=Path)
    p_generate.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="time detection on an in-memory workload")
    p_bench.add_argument("--areas", type=int, default=1000)
    p_bench.add_argument("--nonzeros", type=int, help="nonzero cells per window")
    p_bench.add_argument("--density", type=float, help="alternative to --nonzeros")
    p_bench.add_argument("--windows", type=int, default=25)
    p_bench.add_argument("--seed", type=int, default=0)
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
