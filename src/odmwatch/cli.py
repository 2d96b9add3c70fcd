"""Batch pipeline commands: ingest, detect, generate, bench.

Exit codes: 0 success; 1 parse or storage error; 2 ingest finished but
validation found missing/extra windows; 3 the detected date has no stored
windows at all. Configuration precedence is flags > config file > the
defaults of ``DetectorConfig`` and ``RunConfig``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .bench import run_bench
from .detector import (
    BOUNDS_MODES,
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
from .store import STRIDE_DAYS, HistoryStore, StoreError, atomic_open, retention_for
from .synth import SynthSpecError, generate, load_spec_file, write_generated

logger = logging.getLogger("odmwatch")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_MISSING_DATE = 3

REPORT_FORMATS = ("jsonl", "csv")
_DETECTOR_KEYS = {f.name for f in fields(DetectorConfig)}


@dataclass(frozen=True)
class RunConfig:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    store_root: Path = Path("odmwatch-store")
    output: Path = Path("report.jsonl")
    format: str = "jsonl"

    def __post_init__(self) -> None:
        if self.format not in REPORT_FORMATS:
            raise ValueError(f"format must be one of {REPORT_FORMATS}, got {self.format!r}")

    def open_store(self) -> HistoryStore:
        retention = retention_for(self.detector.p, self.detector.stride)
        return HistoryStore(self.store_root, retention_days=retention)


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
        value = value.strip()
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(Path(args.config)) if getattr(args, "config", None) else {}
    for key in _CONFIG_PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    detector = DetectorConfig(**{k: values.pop(k) for k in _DETECTOR_KEYS & values.keys()})
    return RunConfig(detector=detector, **values)


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
    days: dict[dt.date, list] = {}
    for snapshot in by_window.values():
        days.setdefault(snapshot.window.date, []).append(snapshot)
    dates = sorted(days)

    try:
        store.put_profile(profile)
        for date in dates:  # one commit per date
            store.put_snapshot(args.source, *days[date])
    except (StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    status = EXIT_OK
    for date in dates:
        report = validate_day(days[date], profile, date)
        print(report.to_json())
        if not report.clean:
            status = EXIT_VALIDATION
    if not dates:
        logger.warning("no rows ingested from %s", ", ".join(map(str, args.files)))
    return status


def cmd_detect(args: argparse.Namespace) -> int:
    config = build_config(args)
    try:
        date = dt.date.fromisoformat(args.date)
    except ValueError as exc:
        raise ValueError(f"bad --date {args.date!r}: {exc}") from None
    store = config.open_store()
    try:
        report = detect_day(store, args.source, date, config.detector)
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
        nonzeros = max(1, round(0.05 * args.areas * args.areas))
    result = run_bench(args.areas, nonzeros, args.windows, config.detector, args.seed)
    for line in result.lines():
        print(line)
    return EXIT_OK


def _add_config_flags(
    parser: argparse.ArgumentParser, detector: bool = True, store: bool = True
) -> None:
    """The config-file flag, --p, and the flags of the detector parameters
    and of the store that a command uses."""
    parser.add_argument("--config", help="flat key=value config file")
    defaults = DetectorConfig()
    parser.add_argument("--p", type=int, help=f"rolling window length (default {defaults.p})")
    if detector:
        parser.add_argument("--th", type=int, help=f"eligibility threshold (default {defaults.th})")
        parser.add_argument(
            "--quantile", type=float, help=f"daily quantile level (default {defaults.quantile})"
        )
        parser.add_argument(
            "--bounds-mode",
            dest="bounds_mode",
            choices=BOUNDS_MODES,
            help=f"lower-bound handling (default {defaults.bounds_mode})",
        )
    if store:
        parser.add_argument(
            "--stride", choices=STRIDE_DAYS, help=f"history stride (default {defaults.stride})"
        )
        parser.add_argument(
            "--store-root", dest="store_root", type=Path, help="snapshot store directory"
        )


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
    _add_config_flags(p_ingest, detector=False)
    p_ingest.set_defaults(func=cmd_ingest)

    p_detect = sub.add_parser("detect", help="run detection for one source and date")
    p_detect.add_argument("--source", required=True)
    p_detect.add_argument("--date", required=True, help="YYYY-MM-DD")
    p_detect.add_argument("--output", type=Path, help="report file (default report.jsonl)")
    p_detect.add_argument("--format", choices=REPORT_FORMATS, help="report format")
    _add_config_flags(p_detect)
    p_detect.set_defaults(func=cmd_detect)

    p_generate = sub.add_parser("generate", help="emit synthetic ODM days with labelled anomalies")
    p_generate.add_argument("spec_file", type=Path)
    p_generate.add_argument("out_dir", type=Path)
    p_generate.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="time detection on an in-memory workload")
    p_bench.add_argument("--areas", type=int, default=1000)
    p_bench.add_argument(
        "--nonzeros", type=int, help="nonzero cells per window (default 5%% of areas squared)"
    )
    p_bench.add_argument("--windows", type=int, default=25)
    p_bench.add_argument("--seed", type=int, default=0)
    _add_config_flags(p_bench, store=False)
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
