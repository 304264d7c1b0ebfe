"""Traced stand-in for `python -m ordcalc.cli ARGS...`.

Times `import ordcalc.cli`, wraps the public functions (see layers.py) and
calls `cli.main(argv)`.  Before exiting it writes one line to stderr:
the marker, then JSON with its start time on the system-wide monotonic
clock, the import and main times, and the per-layer aggregates.
"""

import time

T0 = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t = time.perf_counter()
    from ordcalc import cli

    import_ms = (time.perf_counter() - t) * 1000.0
    from clicmds import TRACE_MARK
    from layers import trace_spec
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(trace_spec())
    t = time.perf_counter()
    code = None
    try:
        code = cli.main(sys.argv[1:])
    finally:
        main_ms = (time.perf_counter() - t) * 1000.0
        sys.stdout.flush()
        record = {
            "t0": T0,
            "import_ms": import_ms,
            "main_ms": main_ms,
            "layers": tracer.snapshot(),
        }
        print(TRACE_MARK + json.dumps(record), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
