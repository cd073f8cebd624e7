"""Run one pdhglab command in this process with span hooks installed.

    python3 perfbench/trace_cli.py SPANS_JSON COMMAND CONFIG

Behaves like ``pdhglab COMMAND CONFIG`` (same output, same exit status) and
writes the recorded spans and any hook that could not be installed to
SPANS_JSON when the command ends.
"""

import json
import sys

from spans import ROOT, Tracer


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import pdhglab.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap(pdhglab.cli.main, ROOT)(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"missing": tracer.missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
