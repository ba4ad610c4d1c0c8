"""One set-up, timed from outside by run.py as setup_s.

    python perfbench/setup_probe.py <workload> <seed>

A fresh interpreter imports multiseg.cli, generates the workload's inputs
and parses them (parameter files and multisegments), which is everything a
run does before its first timed item.  PYTHONPATH must hold src/.
"""

import sys

import multiseg.cli  # noqa: F401
from multiseg.core import parse_multisegment
from multiseg.paramfile import parse_parameter_file

import corpus


def main(workload: str, seed: int) -> None:
    for item in corpus.generate(workload, seed):
        try:
            if item.text is not None:
                parse_parameter_file(item.text)
            if item.argv[0] == "dual":
                parse_multisegment(item.argv[-1])
        except ValueError:
            if item.check != "malformed":
                raise


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
