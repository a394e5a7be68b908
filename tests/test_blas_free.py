"""The quadrature and the error budget take no BLAS call, so their goldens
hold bit for bit whatever BLAS kernel or thread count the machine has.

``tests/test_quad_golden.py`` and ``tests/test_budget_golden.py`` run again
in child processes: with ``OPENBLAS_CORETYPE`` set to Haswell (AVX2 kernels)
and to Prescott (SSE3 kernels), the kernel sets that OpenBLAS picks on other
CPUs, and with ``OPENBLAS_NUM_THREADS=2``, which splits a product between
two threads.  A matrix product in the panel sums moves low bits under each
of them.  These settings imitate other machines' BLAS only; a different libm
or numpy build is not covered.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_TESTS = ("tests/test_quad_golden.py", "tests/test_budget_golden.py")
SETTINGS = ({"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"},
            {"OPENBLAS_NUM_THREADS": "2"})


def test_goldens_hold_under_other_blas_kernels_and_threads():
    children = []
    for setting in SETTINGS:
        env = dict(os.environ, **setting)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        children.append(subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *GOLDEN_TESTS],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True))
    for setting, child in zip(SETTINGS, children):
        out, _ = child.communicate(timeout=600)
        assert child.returncode == 0, (setting, out[-3000:])
