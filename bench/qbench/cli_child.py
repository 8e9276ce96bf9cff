"""Run the ``qdeconv`` command with the benchmark's tracing wrappers.

Usage: ``python -m qbench.cli_child SPANS_FILE ARGS...``.  Behaves like
``python -m qdeconv.cli ARGS...`` (same output and exit code) and writes the
spans of the command to SPANS_FILE when it ends.
"""

import json
import sys

import qdeconv.cli

from qbench import tracing


def main() -> None:
    spans_file, args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer), tracer.job(0):
            qdeconv.cli.main.main(args=args, prog_name="qdeconv")
    finally:
        with open(spans_file, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    main()
