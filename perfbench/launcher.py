"""Runs the cli-files commands one at a time, apart from the worker.

Linux starts a child's ru_maxrss at the high-water mark of the process that
spawned it.  CLI commands started straight from the worker would report the
worker's own peak: the `import wtc` of its set-up and the checks' reference
data.  This process stays small, so the peak it reports belongs to the
commands.

It reads one JSON request per line, {"argv": [...], "cwd": ..., "timeout": ...},
runs it, and answers with one JSON line: {"returncode", "stdout", "stderr",
"seconds", "children_cpu_s", "children_maxrss_kb"}, the last two summed and
maxed over every command so far.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = perf_counter()
        proc = subprocess.run(req["argv"], cwd=req["cwd"], capture_output=True,
                              text=True, timeout=req["timeout"])
        seconds = perf_counter() - t0
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        print(json.dumps({"returncode": proc.returncode, "stdout": proc.stdout,
                          "stderr": proc.stderr, "seconds": seconds,
                          "children_cpu_s": ru.ru_utime + ru.ru_stime,
                          "children_maxrss_kb": ru.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
