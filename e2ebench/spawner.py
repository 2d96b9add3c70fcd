"""Start benchmark children from a small helper process and reap them with wait4.

Linux starts a child's ``ru_maxrss`` at the resident size of the process it
was forked from. The benchmark itself holds numpy and the generated inputs,
so children forked from it would report the benchmark's memory, not their
own. The helper imports only the standard library and is started before
the benchmark imports numpy; its own size (about 10 MiB) is far below any
child's.

Protocol: one JSON request per line on the helper's stdin
(``argv``, ``env``, ``stdout``, ``stderr`` paths), one JSON reply per line
on its stdout (``exit_code``, ``wall_s``, ``maxrss_kib``). The helper exits
when its stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


class Spawner:
    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], env: dict, stdout: str, stderr: str) -> dict:
        request = {"argv": argv, "env": env, "stdout": stdout, "stderr": stderr}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self._proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=request["env"]
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"exit_code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
