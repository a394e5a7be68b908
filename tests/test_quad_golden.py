"""Bit-identity goldens for the oscillatory-integral oracle.

The recorded results live in ``quad_golden.json`` next to this file, as
float hex: value, error estimate, panel count and convergence flag of

* the 65 integrals of a quadratic Poisson sum (R = 32) of the bench's seed-0
  audit op set;
* power_phase with r = 1 on [6, 18];
* the modified Fresnel integral at 1.6, 4 and 20 (value only).

A change to the pre-split or the panel engine that claims to move no value is
held to exact equality here.  Re-record (only when a value is meant to move,
and say why) with

    PYTHONPATH=src python tests/test_quad_golden.py
"""

import json
from pathlib import Path

import pytest

from vdcorput.phase import builtin_family
from vdcorput.quad import oscillatory_integral

from helpers import fresnel_modified

GOLDEN = Path(__file__).with_name("quad_golden.json")

# the first quadratic op with poisson_R = 32 of audit_ops(0) in bench/vdbench
POISSON_OP = {"params": [0.3699, 29.880100000000002],
              "domain": [-28.230800000000002, 63.40950000000001],
              "a": 2.6493, "b": 32.5294, "R": 32, "tol": 1e-9}
FRESNEL_U = (1.6, 4.0, 20.0)


def _quad_record(res):
    return {"re": float(res.value.real).hex(), "im": float(res.value.imag).hex(),
            "err": float(res.abs_error_estimate).hex(), "panels": res.panels,
            "converged": res.converged}


def poisson_records():
    op = POISSON_OP
    model, _ = builtin_family("quadratic", op["params"], domain=tuple(op["domain"]))
    return [_quad_record(oscillatory_integral(model, float(r), op["a"], op["b"], op["tol"]))
            for r in range(-op["R"], op["R"] + 1)]


def power_phase_record():
    model, _ = builtin_family("power_phase")
    return _quad_record(oscillatory_integral(model, 1.0, 6.0, 18.0, 1e-10))


def fresnel_records():
    return {repr(u): [fresnel_modified(u).real.hex(), fresnel_modified(u).imag.hex()]
            for u in FRESNEL_U}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_poisson_integrals_bit_identical():
    want = _golden()["poisson"]
    got = poisson_records()
    assert len(got) == len(want) == 2 * POISSON_OP["R"] + 1
    for r, (g, w) in zip(range(-POISSON_OP["R"], POISSON_OP["R"] + 1), zip(got, want)):
        assert g == w, r


def test_power_phase_integral_bit_identical():
    assert power_phase_record() == _golden()["power_phase"]


@pytest.mark.parametrize("u", FRESNEL_U)
def test_fresnel_bit_identical(u):
    assert fresnel_records()[repr(u)] == _golden()["fresnel"][repr(u)]


def record() -> None:
    data = {"poisson": poisson_records(), "power_phase": power_phase_record(),
            "fresnel": fresnel_records()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
