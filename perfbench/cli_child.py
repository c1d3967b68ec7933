"""Traced stand-in for ``python -m gnyamabe``, used by the traced run of
the cli_cold workload.

    python3 perfbench/cli_child.py JOB_ID SUBCOMMAND [ARGS...]

Installs the span wrappers, runs the command-line entry point with the
given arguments, and reports the spans on the last line of stderr after
``tracing.SPAN_MARKER``. Standard output and the exit code are the
command's own.
"""

import json
import sys

import tracing

import gnyamabe.cli


def main() -> int:
    tracer = tracing.Tracer()
    tracer.job = int(sys.argv[1])
    tracer.install()
    try:
        code = gnyamabe.cli.main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    sys.stderr.write(tracing.SPAN_MARKER + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
