"""Run one diracorbits command with the benchmark's spans installed.

    python3 bench/cli_child.py SPANS.json <diracorbits arguments...>

The spans of the command, with ``cli.main`` as the root, are written to
SPANS.json when it ends; the exit code is the command's.
"""

import sys

import diracorbits.cli as cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    span = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(span)
        tracing.restore(undo)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
