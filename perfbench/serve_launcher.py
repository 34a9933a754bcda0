"""Start ``serve-http`` with the layer wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py SPANS.json serve-http --store ... --port 0

Installs the span-recording wrappers of ``tracing.py``, then runs
``repro.cli.main`` with the remaining arguments.  When the server exits
(SIGTERM drains it gracefully) the spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    spans_path, arguments = argv[0], argv[1:]
    tracer = tracing.install(tracing.Tracer())
    from repro.cli import main as cli_main

    try:
        return cli_main(arguments)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
