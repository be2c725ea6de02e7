"""Run one `wtc` CLI command with the per-layer tracer installed.

    python cli_shim.py TRACE_PREFIX -- ARGS...

behaves like `python -m wtc.cli ARGS...` (same output and exit code) and
writes the command's spans to TRACE_PREFIX.json / TRACE_PREFIX.spans; the
JSON also holds `import_s`, the time `import wtc.cli` took.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import wtc.cli  # noqa: E402
import_s = perf_counter() - t0

import tracer  # noqa: E402


def main() -> int:
    prefix, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py TRACE_PREFIX -- ARGS...")
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        return wtc.cli.main(args)
    finally:
        tr.dump(prefix, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
