"""Retake bench/goldens.json: one pass over each workload's default-seed op set.

    python3 bench/make_goldens.py

Goldens pin the values the program produced when they were taken; a run on
the default seed fails any op whose direct or dual value moves by more than
1e-9 of its term scale, or whose budget total moves by more than 1e-6
relative.  Retake them only when the op sets change, never to absorb a
changed answer.
"""

import json
import math
import shutil
import sys
import warnings

from vdbench import runner
from vdbench.workloads import DEFAULT_SEED, WORKLOADS, make_ops


def _clean(rec):
    return {k: (v if not isinstance(v, float) or math.isfinite(v) else None)
            for k, v in runner.golden_subset(rec).items()}


def main() -> int:
    warnings.simplefilter("ignore")
    out = {}
    for workload in WORKLOADS:
        ops = make_ops(workload, DEFAULT_SEED)
        records = []
        if workload == "cli":
            cli = runner.CliRunner(runner.OUT / "tmp-goldens")
            cli.setup_once()
            try:
                for i, op in enumerate(ops):
                    _, _, proc, out_dir = cli.run(op, i)
                    records.append(runner.cli_record(op, proc, out_dir))
            finally:
                shutil.rmtree(cli.tmp, ignore_errors=True)
        else:
            ctx = runner.setup_in_process(ops)
            records = [runner.record(op, runner.execute(op, ctx)) for op in ops]
        out[workload] = {"ops": ops, "records": [_clean(r) for r in records]}
    runner.GOLDENS.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
