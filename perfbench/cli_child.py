"""Traced CLI process: install the tracer, then call iwalambda.cli.main(argv).

Usage (from the root of a checkout, src on PYTHONPATH):

    python3 perfbench/cli_child.py OUT.json ARGV...

Behaves like ``python -m iwalambda.cli ARGV...`` (same stdout, same exit
code, a traceback if main raises) and writes the process's spans, counters,
cache counters, import time and stdout byte count to OUT.json.
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer, cache_infos, write_json


class _CountingStdout:
    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return self.inner.write(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import iwalambda.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    stdout = sys.stdout = _CountingStdout(sys.stdout)
    try:
        with tracer.span("bench.op"):
            return cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout = stdout.inner
        # process wall times are measured by the parent
        agg = tracer.aggregate(cache_infos(), import_s=import_s, stdout_bytes=stdout.bytes)
        write_json(out_path, {"agg": agg, "spans": tracer.dump()})


if __name__ == "__main__":
    sys.exit(main())
