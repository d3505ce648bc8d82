"""Run one trianglecf CLI command in this interpreter with a span around
`cli.main` and around every call into the library layers.

Prints two lines of JSON.  The first holds the exit code, the command's
stdout, the seconds spent in `main` and the spans.  The second holds
`tracer_s`, the seconds the tracer itself spent outside `main`: patching
the layers and encoding and writing the first line.

Usage: python3 perfbench/trace_cli.py <trianglecf arguments...>
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

from tracing import Tracer


def main(argv):
    from trianglecf import cli

    t0 = perf_counter()
    tracer = Tracer()
    tracer.patch_layers()
    patch_s = perf_counter() - t0
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), tracer.span("cli.main") as span:
            code = cli.main(argv)
    finally:
        tracer.restore()
    t0 = perf_counter()
    json.dump({"exit": code, "stdout": out.getvalue(), "main_s": span.seconds,
               "spans": tracer.spans}, sys.stdout)
    sys.stdout.write("\n")
    sys.stdout.flush()
    json.dump({"tracer_s": patch_s + perf_counter() - t0}, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
