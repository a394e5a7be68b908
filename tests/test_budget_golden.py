"""Bit-identity goldens for the error budget.

The recorded results live in ``budget_golden.json`` next to this file: every
field of ``compute_budget(...).to_json()``, floats as float hex, on the 22
inputs of the bench's seed-0 audit op set listed below (the sine_amplitude
(0.01) input is the known non-finite K functional, recorded as it is).

A change to the budget's arithmetic that claims to move no value is held to
exact equality here.  Re-record (only when a value is meant to move, and say
why) with

    PYTHONPATH=src python tests/test_budget_golden.py
"""

import json
import warnings
from pathlib import Path

import pytest

from vdcorput.errbudget import compute_budget
from vdcorput.phase import builtin_family

GOLDEN = Path(__file__).with_name("budget_golden.json")

# (family, params, domain, a, b) of audit_ops(0) in bench/vdbench, in order
INPUTS = [
    ("power_phase", [], None, 1.0, 20126.0),
    ("power_phase", [], None, 4.2056, 23216.1442),
    ("power_phase", [], None, 3.3255, 20656.3399),
    ("power_phase", [], None, 4.4284, 24887.5158),
    ("power_phase", [], None, 3.8374, 19873.655),
    ("quadratic", [0.3699, 29.880100000000002], [-28.230800000000002, 63.40950000000001],
     2.6493, 32.5294),
    ("quadratic", [0.3977, 29.9856], [-29.2814, 62.6754], 1.7042, 31.6898),
    ("quadratic", [0.3895, 29.530899999999995], [-25.839499999999994, 64.75319999999999],
     4.6914, 34.2223),
    ("quadratic", [0.365, 30.3892], [-27.8938, 65.2738], 3.4954, 33.8846),
    ("ik_monomial", [2.0, 100.0, 10156], None, 100.0, 200.0),
    ("ik_monomial", [1.5, 104.0, 10198], None, 104.0, 312.0),
    ("ik_monomial", [2.5, 103.0, 10128], None, 103.0, 206.0),
    ("exponential", [1.0, 2.0], None, 4.398, 8.398),
    ("exponential", [1.0, 1.7], None, 5.973, 10.472999999999999),
    ("exponential", [1.3, 2.0], None, 3.992, 7.992),
    ("zeta_log", [0.53, 10073], None, 49.8688, 498.7412),
    ("zeta_log", [0.5, 988], None, 19.8583, 197.5224),
    ("sine_amplitude", [0.00417], None, 124.2527, 316.7189),
    ("sine_amplitude", [0.00606], None, 100.3815, 303.1911),
    ("oscillatory", [1.0, 1.0, 1.0], None, 119.7268, 168.6761),
    ("sine_amplitude", [0.01], None, 200.0, 400.0),
    ("oscillatory", [1.0, 1.0, 1.0], None, 1000.0, 2000.0),
]


def _hex(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex(v) for k, v in obj.items()}
    return obj


def budget_record(case) -> dict:
    family, params, domain, a, b = case
    model, profile = builtin_family(family, params, domain=tuple(domain) if domain else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _hex(compute_budget(model, profile, a, b).to_json())


@pytest.mark.parametrize("i", range(len(INPUTS)))
def test_budget_bit_identical(i):
    want = json.loads(GOLDEN.read_text())
    assert len(want) == len(INPUTS)
    assert budget_record(INPUTS[i]) == want[i]


def record() -> None:
    data = [budget_record(case) for case in INPUTS]
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
