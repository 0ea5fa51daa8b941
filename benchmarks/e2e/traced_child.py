"""Run one ``repro`` command with the layer table installed.

Usage::

    python benchmarks/e2e/traced_child.py TOTALS.json -- COMMAND [ARGS...]

The traced runs of the workloads whose program is a child process —
``repro all`` and ``repro serve`` — start it through this script.  It
wraps every layer (:mod:`layers`), runs the command in-process exactly
as ``python -m repro COMMAND ARGS...`` would, and when the command
returns (for ``serve``: after a ``shutdown`` request) writes the layer
totals and the command's wall time to ``TOTALS.json``.  The exit code
is the command's.
"""

from __future__ import annotations

import json
import sys
import time

from layers import SpanRecorder, install


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    totals_path, command = argv[0], argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    start = time.perf_counter()
    try:
        return repro_main(command)
    finally:
        wall = time.perf_counter() - start
        with open(totals_path, "w", encoding="utf-8") as handle:
            json.dump({"wall_s": wall, "layers": recorder.totals()}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
