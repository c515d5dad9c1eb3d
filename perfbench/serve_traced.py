"""``repro serve`` with the benchmark's call-site tracing installed.

Usage: ``python perfbench/serve_traced.py SPANS_PATH [repro serve options]``
(with the checkout's ``src`` on ``PYTHONPATH``).  The spans are written to
``SPANS_PATH`` when the server exits after SIGTERM's graceful drain.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main() -> int:
    spans_path, options = sys.argv[1], sys.argv[2:]
    from repro.cli import main as repro_main

    tracer = tracing.Tracer()
    tracing.install(tracer, serve=True)
    try:
        return repro_main(["serve", *options])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
