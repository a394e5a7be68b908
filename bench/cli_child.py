"""Traced stand-in for ``python -m vdcorput.experiments``.

Runs the CLI with spans on every layer boundary and writes them to the file
named by VDBENCH_SPANS, tagged with the op id in VDBENCH_OP.
"""

import os
import sys

from vdbench.tracing import Tracer

import vdcorput.experiments as experiments


def main() -> int:
    tracer = Tracer()
    tracer.op = os.environ["VDBENCH_OP"]
    tracer.install()
    try:
        return experiments.cli_main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["VDBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
