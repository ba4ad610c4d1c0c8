"""Traced stand-in for `python -m multiseg.cli` in cli_session traced runs.

    python perfbench/shim.py <cli arguments>

Environment: PYTHONPATH holds the checkout's src/, PERFBENCH_TRACE_OUT
names the JSON file the spans are written to.  Behaves like the CLI
(stdout, stderr, exit code); the tracer is installed after the import.
"""

import json
import os
import sys

from tracer import Tracer

import multiseg.cli  # noqa: E402  (after the tracer, which must not be traced)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        rc = multiseg.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
