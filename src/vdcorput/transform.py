"""The transformed sum (dual side) and the explicit endpoint terms.

The identity evaluated here trades the sum of g(n) e(f(n)) over integers n in
[a, b] for a sum over the integers r in [f'(a), f'(b)], with weights

    g(x_r) e(f(x_r) - r x_r + 1/8) / sqrt(f''(x_r)),     f'(x_r) = r,

plus endpoint corrections D(a), D(b) and a residual Delta controlled by the
error budget.  Endpoint corrections are explicit in the small-f'' regimes and
magnitude-only bounds otherwise; the two kinds are kept apart by a tagged
value so bounds can never leak into complex arithmetic.

Note on the explicit endpoint phase: the first-order contribution carries
e(f(x) - [[f'(x)]] x), with a minus sign on the nearest-integer multiple.
Deriving the Fourier-completion step from scratch (and brute-forcing the
bilateral sum at non-integer endpoints) confirms the minus sign; at integer
endpoints the sign is immaterial since e(k x) = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import errbudget
from .errbudget import ConditionMReport, Endpoint, ErrorBudget, fprime_nearest
from .expsum import direct_starred_sum
from .numutil import TWO_PI_I, amplitude_e, check_interval, csum, integer_range, modified_sawtooth
from .phase import ConditionMProfile, PhaseAmplitudeModel, invert_fprime


@dataclass(frozen=True)
class EndpointTerm:
    """Endpoint correction D = D_circ + D_star as (explicit value, bound).

    ``explicit`` is exact modulo the budget; ``bound`` is the magnitude of
    whatever part of the correction is only controlled, not evaluated.
    ``regime`` records which case of the table fired.
    """

    explicit: complex
    bound: float
    regime: str

    def to_json(self) -> dict:
        return {"re": self.explicit.real, "im": self.explicit.imag,
                "bound": self.bound, "regime": self.regime}


@dataclass
class TransformResult:
    """The dual-side sum with its terms as arrays: index r (int), stationary
    point x_r and weighted value, the limit terms already halved."""

    rhs_main: complex
    d_a: Optional[EndpointTerm]
    d_b: Optional[EndpointTerm]
    r_range: Tuple[int, int]
    r: np.ndarray
    xr: np.ndarray
    values: np.ndarray
    measured_delta: Optional[complex] = None
    direct_value: Optional[complex] = None
    flags: List[str] = field(default_factory=list)
    condition_report: Optional[ConditionMReport] = None

    @property
    def terms(self) -> List[Tuple[int, float, complex]]:
        """The terms as (r, x_r, value) tuples, built on each access."""
        return list(zip(self.r.tolist(), self.xr.tolist(), self.values.tolist()))

    def to_json(self) -> dict:
        out = {
            "schema": "transform-result/1",
            "rhsMain": {"re": self.rhs_main.real, "im": self.rhs_main.imag},
            "rRange": list(self.r_range),
            "terms": [{"r": r, "xr": xr, "re": v.real, "im": v.imag}
                      for r, xr, v in self.terms],
            "flags": self.flags,
        }
        out["dA"] = self.d_a.to_json() if self.d_a else None
        out["dB"] = self.d_b.to_json() if self.d_b else None
        if self.measured_delta is not None:
            out["measuredDelta"] = {"re": self.measured_delta.real,
                                    "im": self.measured_delta.imag}
        return out


def _phase_f_minus_rx(fx, x, r):
    """(f(x) - r x) mod 1 from fx = f(x) at integer multipliers (arrays or
    scalars), losing as little as the float format allows."""
    return (np.fmod(fx, 1.0) - np.fmod(r * x, 1.0)) % 1.0


# ---------------------------------------------------------------------------
# main dual-side sum
# ---------------------------------------------------------------------------

def rhs_main_sum(model: PhaseAmplitudeModel, a: float, b: float) -> TransformResult:
    """Sum the dual-side weights over integer r in [f'(a), f'(b)].

    A weight is halved when the corresponding limit f'(a) or f'(b) is an
    integer (family-exact detection when available).  All x_r come from one
    inversion call, which raises rather than drop a term it cannot solve, and
    f and f'' at them from one jet; phases, weights and terms are then
    computed as arrays.  The terms are summed correctly rounded, so reruns
    are bit-identical.
    """
    r_lo, r_hi, half_lo, half_hi = integer_range(fprime_nearest(model, a), fprime_nearest(model, b))
    r = np.arange(r_lo, r_hi + 1)
    rf = r.astype(float)
    xr = invert_fprime(model, rf)
    if model.rhs_phase is not None:
        (f2,) = model.fjet(xr, 2, 2)
        ph = model.rhs_phase(rf, xr)
    else:
        fx, _, f2 = model.fjet(xr, 0, 2)
        ph = _phase_f_minus_rx(fx, xr, rf)
    w = model.g(xr) / np.sqrt(f2)
    values = amplitude_e(w, ph + 0.125)
    if r.size and half_lo:
        values[0] *= 0.5
    if r.size and half_hi:
        values[-1] *= 0.5
    return TransformResult(csum(values), None, None, (r_lo, r_hi), r, xr, values)


# ---------------------------------------------------------------------------
# endpoint corrections
# ---------------------------------------------------------------------------

def endpoint_term(ep: Endpoint) -> EndpointTerm:
    """D(mu) = D_circ(mu) + D_star(mu) at the limit mu of the record ep,
    case-selected on f'' against ||f'||.

    Explicit in the two small-f'' regimes and when f'(mu) is an integer;
    bound-only once f'' reaches 1 - ||f'(mu)||.  The tie f'' = ||f'|| takes
    the offset-plus-sawtooth case.
    """
    mu, fpp, U, M = ep.x, ep.f2, ep.U, ep.M
    nearest, eps_p, dist = ep.slope

    star = 0j
    if dist == 0.0:
        e_f = amplitude_e(1.0, ep.f)
        star = complex(ep.g * ep.f3 * e_f / (6j * math.pi * fpp ** 2)
                       - ep.g1 * e_f / (TWO_PI_I * fpp))

    phase = amplitude_e(1.0, _phase_f_minus_rx(ep.f, mu, nearest))
    if dist > 0.0 and fpp <= dist:
        psi = modified_sawtooth(mu, eps_p)
        circ = complex(ep.g * phase * (-1.0 / (TWO_PI_I * eps_p) + psi))
        return EndpointTerm(circ + star, 0.0, "explicit-offset")
    if fpp < 1.0 - dist:
        psi = modified_sawtooth(mu, eps_p)
        circ = complex(ep.g * phase * psi)
        return EndpointTerm(circ + star, 0.0, "explicit-sawtooth")
    if fpp < 1.0:
        return EndpointTerm(star, U, "bound-subunit")
    bound = U * (1.0 + 1.0 / M + 1.0 / (math.sqrt(fpp) * M))
    return EndpointTerm(star, bound, "bound-large")


# ---------------------------------------------------------------------------
# the assembled transform
# ---------------------------------------------------------------------------

@dataclass
class TransformOptions:
    measure: bool = True
    budget: bool = True


def full_transform(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                   a: float, b: float,
                   options: Optional[TransformOptions] = None,
                   ) -> Tuple[TransformResult, Optional[ErrorBudget]]:
    """Dual-side sum, endpoint corrections, budget, and the measured residual.

    measured_delta = direct - rhs_main + D(b) - D(a), using the explicit
    parts of the endpoint corrections; their bound parts are additional
    budget and are surfaced via ``budget_with_endpoints``.  Raises
    ValueError when a limit is not finite or b < a, and with the budget on
    when b = a, before any work.
    """
    opts = options or TransformOptions()
    (errbudget.check_span if opts.budget else check_interval)(a, b)
    report = errbudget.check_condition_M(model, profile, a, b)
    if not report.passed:
        checks = (("part I", report.part1_ok), ("part III", report.part3_ok),
                  (f"{len(report.violations)} violations", not report.violations))
        failed = ", ".join(name for name, ok in checks if not ok)
        warnings.warn(f"regularity sweep failed on [{a}, {b}]: {failed}")
    result = rhs_main_sum(model, a, b)
    result.condition_report = report
    result.d_a, result.d_b = (endpoint_term(ep) for ep in report.ends)
    budget = errbudget.compute_budget(model, profile, a, b, report=report) if opts.budget else None
    if opts.measure:
        direct = direct_starred_sum(model, a, b)
        result.direct_value = direct
        result.measured_delta = (direct - result.rhs_main
                                 + result.d_b.explicit - result.d_a.explicit)
    return result, budget


def budget_with_endpoints(result: TransformResult, budget: ErrorBudget) -> float:
    """Budget total plus the bound parts of both endpoint corrections."""
    return budget.total + (result.d_a.bound + result.d_b.bound)
