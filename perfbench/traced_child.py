"""Run the ``entdist`` command with spans on, for the benchmark's traced run.

Usage: ``python traced_child.py SPANS_FILE ARG...`` with ``src/`` on
PYTHONPATH.  Runs ``entdist ARG...`` exactly as the console script does,
with the tracer's wrappers installed and tracemalloc on, and writes the
spans to SPANS_FILE as JSON before exiting with the command's code.
"""
from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import entdist.cli

from tracing import Tracer


def main() -> int:
    spans_file, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    tracemalloc.start()
    try:
        return entdist.cli.main(args)
    finally:
        tracemalloc.stop()
        tracer.active = False
        spans_file.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
