"""In-process runs of `toric-exc` commands, one mode per invocation.

    python3 perfbench/child.py warm
        Reads one JSON list of argvs per line on stdin and runs them in
        this same process, until end of input; the first line is the cold
        pass that fills the caches. Prints one JSON line per pass.
    python3 perfbench/child.py trace ARGV_JSON
        One command under the tracer; prints one JSON object.

The commands' own output is captured and returned inside the JSON.
toric_exc must be importable.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

CRASHED = -1


def run_command(main, argv):
    """(exit code, stdout) of `toric-exc argv`, with CRASHED for an exception."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = CRASHED
    return code, out.getvalue()


def timed_pass(main, argvs):
    results = []
    total = 0.0
    for argv in argvs:
        start = perf_counter()
        code, out = run_command(main, argv)
        total += perf_counter() - start
        results.append([code, out])
    return total, results


def warm(requests, out) -> None:
    from toric_exc.cli import main

    for line in requests:
        total, results = timed_pass(main, json.loads(line))
        out.write(json.dumps({"total": total, "results": results}) + "\n")
        out.flush()


def trace(argv) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        from toric_exc.cli import main  # the wrapper, bound after install

        code, out = run_command(main, argv)
    finally:
        tracer.restore()
    return {"code": code, "stdout": out, "summary": tracer.summary()}


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "warm":
        warm(sys.stdin, sys.stdout)
    elif mode == "trace":
        sys.stdout.write(json.dumps(trace(json.loads(sys.argv[2]))))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
