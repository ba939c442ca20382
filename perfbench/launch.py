"""Child launcher for the cli-cold workload.

A child's ru_maxrss also counts the memory of the process it was forked
from, so CLI children are started from this small process rather than
from the benchmark itself.  Protocol: one JSON argv list per stdin line;
one JSON reply per stdout line with exit code, stdout, stderr (base64)
and the child's own peak RSS in KiB from wait4.  EOF on stdin ends it.
"""

import base64
import json
import os
import subprocess
import sys
import tempfile
import threading

TIMEOUT_S = 60.0


def run(argv: list[str]) -> dict:
    with tempfile.TemporaryFile(dir=".") as out, tempfile.TemporaryFile(dir=".") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "code": proc.returncode,
            "out": base64.b64encode(out.read()).decode(),
            "err": base64.b64encode(err.read()).decode(),
            "maxrss_kb": usage.ru_maxrss,
        }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
