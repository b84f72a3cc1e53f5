"""Run ``copekit.cli`` under the layer tracer, for traced runs of the cli workload.

Usage: python3 perfbench/traced_cli.py certify < document

Behaves as ``python -m copekit.cli`` and then writes the layer statistics as
one line on stderr, prefixed with ``perfbench-trace: ``.
"""

import json
import sys

import corpus
import tracer as tracing

TRACE_PREFIX = "perfbench-trace: "


def main() -> int:
    corpus.load_program()
    import copekit.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return copekit.cli.run_cli(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.stats) + "\n")


if __name__ == "__main__":
    sys.exit(main())
