"""Command line of the end-to-end benchmark (the measurement itself is in bench.py).

Run from the root of an odmwatch checkout; the program is loaded from ``src/``::

    python3 e2ebench/run.py --workload heavytail-daily --seed 3 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --seed 3 --seconds 40 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 whenever a
result is printed, and 2 when the benchmark cannot run at all (no
``src/odmwatch`` here, or an unknown workload). ``--trace 1`` stops with a
traceback, printing no result, when the program lacks a function the trace
wraps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from spawner import Spawner


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "odmwatch" / "cli.py").is_file():
        print(f"error: {src / 'odmwatch' / 'cli.py'} not found; run from an odmwatch checkout", file=sys.stderr)
        return 2
    # The helper must start while this process is still small: see spawner.py.
    with Spawner() as spawner:
        import bench

        return bench.main(args, src, spawner)


if __name__ == "__main__":
    sys.exit(main())
