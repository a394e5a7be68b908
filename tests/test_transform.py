import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from vdcorput.errbudget import compute_budget
from vdcorput.expsum import direct_starred_sum
from vdcorput.numutil import modified_sawtooth, nearest_decomp
from vdcorput.phase import builtin_family
from vdcorput.transform import (EndpointTerm, RefinementParameterError,
                                TransformOptions, budget_with_endpoints,
                                endpoint_term, full_transform,
                                optimized_refinement_params,
                                refined_endpoint_term, rhs_main_sum)


def e(x):
    return cmath.exp(2j * math.pi * x)


# ---------------------------------------------------------------------------
# dual-side sum
# ---------------------------------------------------------------------------

def test_power_phase_terms_are_exact():
    model, _ = builtin_family("power_phase")
    res = rhs_main_sum(model, 1.0, 1200.0)
    assert res.r_range == (1, 10)
    for r, xr, val in res.terms:
        assert xr == 12.0 * r * r
        want = math.sqrt(24.0 * r) * e(0.125)
        if r == 10:  # f'(1200) = 10 exactly, so the top weight is halved
            want *= 0.5
        assert val == pytest.approx(want, rel=1e-14)


def test_halving_at_integer_slope_limit():
    model, _ = builtin_family("power_phase")
    res = rhs_main_sum(model, 1.0, 12.0)
    assert res.r_range == (1, 1)
    assert res.terms[0][2] == pytest.approx(0.5 * math.sqrt(24.0) * e(0.125), rel=1e-14)


def test_term_count():
    model, _ = builtin_family("power_phase")
    for b in (147.0, 1200.0, 4321.0):
        res = rhs_main_sum(model, 1.0, b)
        fa, fb = float(model.f1(1.0)), float(model.f1(b))
        assert len(res.terms) == math.floor(fb) - math.ceil(fa) + 1


def test_exact_identities_large_r():
    model, _ = builtin_family("power_phase")
    for r in (10.0, 100.0, 1000.0, 10000.0):
        xr = float(model.fprime_inverse(r))
        assert xr == 12.0 * r * r
        assert model.rhs_phase(r, xr) == 0.0  # f - r x = -4 r^3, an integer
        w = 1.0 / math.sqrt(float(model.f2(xr)))
        assert w == pytest.approx(math.sqrt(24.0 * r), rel=1e-12)


def test_inversion_stall_raises_instead_of_dropping_the_term():
    # f' jumps from 5.5 to 6.5 at x = 5.5, so f'(x) = 6 has no solution: the
    # bisection ends at the jump and the residual 1/2 fails the inversion
    model, _ = builtin_family("quadratic", [1.0], domain=(0.0, 10.0))
    jump = lambda x: np.asarray(x, dtype=float) + (np.asarray(x) > 5.5)
    model = dataclasses.replace(model, f1=jump, fprime_inverse=None, rhs_phase=None)
    with pytest.raises(RuntimeError, match="for r=6.0"):
        rhs_main_sum(model, 0.0, 10.0)


def test_conjugation_symmetry():
    model, _ = builtin_family("power_phase")
    conj_model = model.conjugate_phase()
    a, b = 1.0, 500.0
    assert direct_starred_sum(conj_model, a, b) == pytest.approx(
        direct_starred_sum(model, a, b).conjugate(), abs=1e-12)
    assert rhs_main_sum(model, a, b, conjugate=True).rhs_main == pytest.approx(
        rhs_main_sum(model, a, b).rhs_main.conjugate(), abs=1e-14)


# ---------------------------------------------------------------------------
# endpoint corrections against a brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_endpoint_sum(model, mu, r_cap=2_000_000):
    """lim over the bilateral sum excluded near the slope: the quantity the
    first two endpoint cases evaluate in closed form."""
    fp = float(model.f1(mu))
    fpp = float(model.f2(mu))
    g = float(model.g(mu))
    f_mu = float(model.f(mu))
    total = 0j
    for r in range(-r_cap, r_cap + 1):
        d = fp - r
        if abs(d) > fpp:
            total += cmath.exp(-2j * math.pi * math.fmod(r * mu, 1.0)) / d
    return -g * e(math.fmod(f_mu, 1.0)) / (2j * math.pi) * total


def test_endpoint_offset_case_against_brute_force():
    model, profile = builtin_family("quadratic", [0.37, 100.0], domain=(0.0, 200.0))
    mu = 2.45 / 0.37  # f'(mu) = 2.45, distance 0.45 > f'' = 0.37
    term = endpoint_term(model, profile, mu, "a", tol=1e-9)
    assert term.regime == "explicit-offset"
    assert term.bound == 0.0
    oracle = brute_force_endpoint_sum(model, mu)
    assert term.explicit == pytest.approx(oracle, abs=2e-6)


def test_endpoint_sawtooth_case_against_brute_force():
    model, profile = builtin_family("quadratic", [0.45, 100.0], domain=(0.0, 200.0))
    mu = 3.3 / 0.45  # f'(mu) = 3.3: distance 0.3 <= f'' = 0.45 < 0.7
    term = endpoint_term(model, profile, mu, "a", tol=1e-9)
    assert term.regime == "explicit-sawtooth"
    oracle = brute_force_endpoint_sum(model, mu)
    assert term.explicit == pytest.approx(oracle, abs=2e-6)


def test_endpoint_power_phase_nonintegral_slope():
    # f'(1083) = 9.5, f''(1083) ~ 0.0044: offset case, with the printed value
    model, profile = builtin_family("power_phase")
    mu = 1083.0
    dec = nearest_decomp(float(model.f1(mu)))
    assert dec.dist == 0.5 and float(model.f2(mu)) < 0.5
    term = endpoint_term(model, profile, mu, "b", tol=1e-10)
    psi = modified_sawtooth(mu, dec.signed_frac, 1e-10)
    want = e(math.fmod(float(model.f(mu)), 1.0) - math.fmod(dec.nearest * mu, 1.0)) \
        * (-1.0 / (2j * math.pi * dec.signed_frac) + psi)
    assert term.explicit == pytest.approx(complex(want), rel=1e-9)


def test_endpoint_power_phase_integral_slope():
    # f'(1200) = 10: the sawtooth part vanishes at an integer endpoint and
    # only the curvature piece of the star term survives (g' = 0)
    model, profile = builtin_family("power_phase")
    mu = 1200.0
    term = endpoint_term(model, profile, mu, "b")
    fpp = float(model.f2(mu))
    want = float(model.f3(mu)) * e(math.fmod(float(model.f(mu)), 1.0)) \
        / (6j * math.pi * fpp * fpp)
    assert term.explicit == pytest.approx(complex(want), rel=1e-12)
    assert term.regime == "explicit-sawtooth"


def test_endpoint_large_curvature_bound():
    model, profile = builtin_family("quadratic", [4.0, 10.0], domain=(0.0, 50.0))
    mu = 3.3
    term = endpoint_term(model, profile, mu, "a")
    assert term.regime == "bound-large"
    M = 10.0
    assert term.bound == pytest.approx(1.0 + 1.0 / M + 1.0 / (2.0 * M), rel=1e-12)
    assert term.explicit == 0j


def test_endpoint_tie_takes_offset_case():
    # f'' = ||f'|| exactly: the tie goes to the offset case by convention
    model, profile = builtin_family("quadratic", [0.3, 100.0], domain=(0.0, 100.0))
    mu = 1.3 / 0.3
    assert nearest_decomp(float(model.f1(mu))).dist == pytest.approx(0.3)
    term = endpoint_term(model, profile, mu, "a")
    assert term.regime == "explicit-offset"


# ---------------------------------------------------------------------------
# refined endpoint estimates
# ---------------------------------------------------------------------------

def test_refined_integer_slope_integer_endpoint():
    model, profile = builtin_family("quadratic", [50.0, 4.0], domain=(0.0, 10.0))
    mu = 2.0  # f' = 100, eps = eps' = 0
    C, L = optimized_refinement_params(model, profile, mu)
    assert C == pytest.approx(50.0 ** -0.4 * 4.0 ** 0.2)
    assert L == pytest.approx(50.0 ** (8.0 / 15.0) * 4.0 ** (1.0 / 15.0))
    term = refined_endpoint_term(model, profile, mu, C, L)
    assert term.explicit == 0j  # the sawtooth vanishes at an integer
    assert term.regime == "refined-sawtooth"
    assert term.bound > 0


def test_refined_far_endpoint_bound_value():
    model, profile = builtin_family("quadratic", [50.0, 4.0], domain=(0.0, 10.0))
    mu = 2.3  # f' = 115 integral, eps = 0.3
    C = 0.2
    L = 8.0
    term = refined_endpoint_term(model, profile, mu, C, L)
    assert term.regime == "refined-far-endpoint"
    base = (50.0 * C ** 4 * L / 4.0 + L / (50.0 * C) + 50.0 / L ** 2
            + 1.0 / (50.0 * C ** 2) + 1.0 / 4.0)
    want = base + 1.0 / ((0.3 - C) * math.sqrt(50.0))
    assert term.bound == pytest.approx(want, rel=1e-12)


def test_refined_integer_endpoint_bound():
    model, profile = builtin_family("quadratic", [50.0, 4.0], domain=(0.0, 10.0))
    mu = 3.0  # eps = 0; f'(3) = 150 integral too, so nudge omega
    model2, profile2 = builtin_family("quadratic", [50.2, 4.0], domain=(0.0, 10.0))
    assert float(model2.f1(mu)) == pytest.approx(150.6)
    term = refined_endpoint_term(model2, profile2, mu, 0.2, 8.0)
    assert term.regime == "refined-integer-endpoint"
    assert term.explicit == 0j and term.bound > 0


def test_refined_parameter_validation():
    model, profile = builtin_family("quadratic", [50.0, 4.0], domain=(0.0, 10.0))
    with pytest.raises(RefinementParameterError):
        refined_endpoint_term(model, profile, 2.0, 5.0, 8.0)   # C >= M
    with pytest.raises(RefinementParameterError):
        refined_endpoint_term(model, profile, 2.0, 0.2, 1.0)   # L < sqrt(f'')
    small, smallp = builtin_family("quadratic", [0.3, 4.0], domain=(0.0, 10.0))
    with pytest.raises(RefinementParameterError):
        refined_endpoint_term(small, smallp, 2.0, 0.2, 8.0)    # f'' < 1
    with pytest.raises(RefinementParameterError):
        # neither an integer endpoint nor an integer slope
        refined_endpoint_term(model, profile, 2.31416, 0.2, 8.0)


def test_refinement_beats_unrefined_bound():
    # the refinement undercuts the large-curvature endpoint bound once the
    # balanced residual scale U/(M^(2/15) f''^(1/15)) drops below U; each of
    # its five terms is ~1/5 there, so big curvature and radius are needed
    model, profile = builtin_family("quadratic", [2000.0, 1e5], domain=(0.0, 2e5))
    mu = 2.0
    coarse = endpoint_term(model, profile, mu, "a")
    C, L = optimized_refinement_params(model, profile, mu)
    fine = refined_endpoint_term(model, profile, mu, C, L)
    assert fine.bound < coarse.bound


# ---------------------------------------------------------------------------
# assembled transform
# ---------------------------------------------------------------------------

def test_quadratic_identity_within_budget():
    model, profile = builtin_family("quadratic", [0.37, 100.0], domain=(0.0, 100.0))
    res, budget = full_transform(model, profile, 0.0, 100.0)
    assert res.measured_delta is not None
    assert abs(res.measured_delta) <= budget_with_endpoints(res, budget)
    # integer endpoints and integer slopes: the identity is essentially exact
    assert abs(res.measured_delta) < 1e-9


def test_quadratic_identity_generic_endpoints():
    a, b = 3.7, 141.2
    model, profile = builtin_family("quadratic", [0.2709, b - a],
                                    domain=(a - (b - a) - 1, b + (b - a) + 1))
    res, budget = full_transform(model, profile, a, b)
    assert res.condition_report.passed
    assert abs(res.measured_delta) <= budget_with_endpoints(res, budget)


def test_example_family_budget_sweep():
    # near-square sweep: one fitted constant controls the measured residual
    # against the budget across upper limits 12 k^2 + j
    model, profile = builtin_family("power_phase")
    ratios = []
    for k in (40, 60):
        for j in (-5, -1, 0, 2, 5):
            n = 12 * k * k + j
            res, budget = full_transform(model, profile, 1.0, float(n),
                                         TransformOptions(psi_tol=1e-7))
            ratios.append(abs(res.measured_delta) / budget_with_endpoints(res, budget))
    fitted = max(ratios)
    assert math.isfinite(fitted) and fitted <= 10.0
    assert all(r <= 2.0 * fitted for r in ratios)


def test_empty_tiny_range():
    model, profile = builtin_family("quadratic", [0.37, 0.5], domain=(0.0, 10.0))
    # no integer n in [4.1, 4.6] and no integer r in [f'(4.1), f'(4.6)]
    a, b = 4.1, 4.6
    assert math.ceil(a) > math.floor(b)
    assert math.ceil(float(model.f1(a))) > math.floor(float(model.f1(b)))
    res = rhs_main_sum(model, a, b)
    assert res.rhs_main == 0j and res.terms == []
    assert direct_starred_sum(model, a, b) == 0j


def test_transform_json_schema():
    model, profile = builtin_family("power_phase")
    res, _ = full_transform(model, profile, 1.0, 1200.0,
                            TransformOptions(budget=False))
    payload = res.to_json()
    text = json.dumps(payload, sort_keys=True)
    back = json.loads(text)
    assert back["schema"] == "transform-result/1"
    assert {"rhsMain", "rRange", "terms", "dA", "dB", "measuredDelta"} <= set(back)
    assert len(back["terms"]) == len(res.terms)


def test_measured_delta_regression_power_phase():
    # frozen from an mpmath-verified direct computation (2.4e-8 agreement
    # at N = 30000); guards the sign and halving conventions end to end
    model, profile = builtin_family("power_phase")
    res = rhs_main_sum(model, 1.0, 120000.0)
    delta = direct_starred_sum(model, 1.0, 120000.0) - res.rhs_main
    assert delta == pytest.approx(-0.2800577827970301 + 0.18571130035434187j, abs=1e-7)
