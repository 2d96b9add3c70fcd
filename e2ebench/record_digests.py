"""Record the SHA-256 of each workload's report for every seed in ``DIGEST_SEEDS``.

Run from the root of an odmwatch checkout, once, when the expected report
bytes change on purpose::

    python3 e2ebench/record_digests.py

Each seed's pipeline runs in-process (reports are byte-identical to the
child-process ones) and must pass every other check before its digest is
written to ``digests.json``. ``run.py`` checks the digest on every run whose
seed is in ``DIGEST_SEEDS`` (0-15).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from bench import DIGEST_SEEDS, DIGESTS, WORK, Result, replay
from checks import report_digest
from pipeline import argvs
from workloads import WORKLOADS, generate


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from odmwatch import cli

    digests: dict[str, dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in DIGEST_SEEDS:
            directory = WORK / f"record-{name}-{seed}"
            shutil.rmtree(directory, ignore_errors=True)
            try:
                inputs = generate(workload, seed, directory / "inputs")
                commands = argvs(workload, inputs, directory / "store", directory)
                result = Result()
                replay(cli, workload, inputs, commands, result, None, "", None)
                if result.failed or result.problems:
                    print(f"{name} seed {seed}: {result.problems}", file=sys.stderr)
                    return 1
                digests[name][str(seed)] = report_digest(commands.outputs)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            print(name, seed, digests[name][str(seed)], flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
