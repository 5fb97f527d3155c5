"""Run ``repro`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/launch.py TRACE_FILE OP -- <repro arguments>``

Installs the wrappers of :mod:`tracer` for the given subcommand, calls
``repro.cli.main`` with the arguments, and writes the recorded spans to
``TRACE_FILE`` as JSON when the command returns (for ``repro serve``,
after SIGTERM has drained and stopped it).  ``OP`` is the operation id
given to the process's root spans.
"""

from __future__ import annotations

import sys

from tracer import Recorder, install


def main(argv):
    trace_file, op, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: launch.py TRACE_FILE OP -- ARGS...")
    recorder = Recorder(op)
    from repro import cli

    install(recorder, args[0] if args else "")
    try:
        return cli.main(args)
    finally:
        recorder.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
