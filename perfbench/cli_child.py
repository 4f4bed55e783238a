"""Run the ``semicoh`` command line with layer spans recorded.

Usage: python cli_child.py SPANS_FILE ARGS...

Behaves like ``python -m semicoh.cli ARGS...`` (same stdout, stderr and
exit code) and, at exit, writes the spans of the import, of ``main`` and
of every traced call site to SPANS_FILE as one JSON document.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    code = 1
    try:
        with tracer.span("cli.import"):
            import semicoh.cli
        with tracer.installed():
            with tracer.span("cli.main"):
                code = semicoh.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as out:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
