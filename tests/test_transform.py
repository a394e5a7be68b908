import cmath
import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from vdcorput import errbudget
from vdcorput.errbudget import compute_budget, endpoint, fprime_nearest
from vdcorput.expsum import direct_starred_sum
from vdcorput.numutil import amplitude_e, csum, modified_sawtooth, nearest_decomp
from vdcorput.phase import ConditionMProfile, builtin_family, invert_fprime
from vdcorput.transform import (TransformOptions, _phase_f_minus_rx, budget_with_endpoints,
                                endpoint_term, full_transform, rhs_main_sum)

from helpers import (RefinementParameterError, optimized_refinement_params,
                     refined_endpoint_term)


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
    base = model.fjet
    fjet = lambda x, lo, hi: [jump(x) if k == 1 else v
                              for k, v in zip(range(lo, hi + 1), base(x, lo, hi))]
    model = dataclasses.replace(model, fjet=fjet, fprime_inverse=None, rhs_phase=None)
    with pytest.raises(RuntimeError, match="for r=6.0"):
        rhs_main_sum(model, 0.0, 10.0)


def _scalar_rhs_phase(model):
    """Each family's phase (f(x_r) - r x_r) mod 1 as the per-r loop computed
    it, on Python floats; None for the families without one."""
    c = 3.0 ** -1.5
    p = model.params
    if model.name in ("power_phase", "sine_amplitude"):
        return lambda r, xr: (-4.0 * r ** 3) % 1.0 if r == int(r) else (c * xr ** 1.5 - r * xr) % 1.0
    if model.name == "quadratic":
        return lambda r, xr: (-0.5 * r * r / p[0]) % 1.0
    if model.name == "ik_monomial":
        A, N, X = p
        return lambda r, xr: (-(X / (A / (A - 1.0))) * (r * N / X) ** (A / (A - 1.0))) % 1.0
    if model.name == "exponential":
        lb = math.log(p[1])
        return lambda r, xr: (r / lb - r * xr) % 1.0
    if model.name == "zeta_log":
        return lambda r, xr: (-(p[1] / (2.0 * math.pi)) * math.log(xr) - r * xr) % 1.0
    return None


def per_r_rhs_main_sum(model, a, b):
    """The dual side one r at a time, as it was computed before it became
    array code, each e(.) from the scalar path of ``amplitude_e``: the
    reference that ``rhs_main_sum`` must match bit for bit."""
    fa = float(model.f1(a))
    fb = float(model.f1(b))
    ra_int, _, da = fprime_nearest(model, a)
    rb_int, _, db = fprime_nearest(model, b)
    r_lo = ra_int if da == 0.0 else math.ceil(fa)
    r_hi = rb_int if db == 0.0 else math.floor(fb)
    phase = _scalar_rhs_phase(model)
    rs = range(r_lo, r_hi + 1)
    terms = []
    for r, xr in zip(rs, invert_fprime(model, np.array(rs, dtype=float)).tolist()):
        if phase is not None:
            ph = phase(float(r), xr)
        else:
            ph = (math.fmod(float(model.f(xr)), 1.0) - math.fmod(float(r) * xr, 1.0)) % 1.0
        w = float(model.g(xr)) / math.sqrt(float(model.f2(xr)))
        val = amplitude_e(w, ph + 0.125)
        if r == r_lo and da == 0.0:
            val *= 0.5
        if r == r_hi and db == 0.0:
            val *= 0.5
        terms.append((r, xr, complex(val)))
    return csum([v for _, _, v in terms]), terms


# (family, params, domain, a, b): every family, with limits where f' is
# integral at both ends and where r_lo == r_hi.  The ik_monomial and zeta_log
# cases each hold x_r where numpy's SIMD pow (phase exponent 3 at alpha = 1.5,
# 5/3 at 2.5; f'' exponent -1/2 and 1/2) or log differs from libm.
DUAL_CASES = [
    ("power_phase", [], None, 1.0, 1200.0),
    ("power_phase", [], None, 12.0, 1200.0),
    ("power_phase", [], None, 12.0, 12.0),
    ("power_phase", [], None, 3.7, 2.5e5 + 0.3),
    ("quadratic", [0.37], None, -500.0, 700.0),
    ("quadratic", [0.5], None, 2.0, 40.0),
    ("ik_monomial", [1.5, 100.0, 159.8], None, 100.0, 100.0 * (300.5 * 100.0 / 159.8) ** 2),
    ("ik_monomial", [1.5, 100.0, 1e4], None, 50.0, 4000.0),
    ("ik_monomial", [2.5, 100.0, 1e4], None, 150.0, 400.0),
    ("ik_monomial", [2.0, 100.0, 1e4], None, 100.0, 300.0),
    ("exponential", [1.0, 2.0], None, 4.0, 12.0),
    ("zeta_log", [0.5, 1e4], None, 1.5918, 1e11),
    ("oscillatory", [0.001, 1.0, 1.0], (5e4, 2e6), 1.0e5, 1.0e5 + 3.0e5),
    ("sine_amplitude", [0.37], None, 1.0, 1.2e6),
]


def _bits(rhs, terms):
    return repr(rhs), [(r, repr(xr), repr(v)) for r, xr, v in terms]


def _case_id(case):
    fam, params, _, a, b = case
    return f"{fam}({','.join(f'{v:g}' for v in params)})[{a:g},{b:g}]"


@pytest.mark.parametrize("fam,params,domain,a,b", DUAL_CASES, ids=map(_case_id, DUAL_CASES))
def test_dual_side_equals_the_per_r_loop_bit_for_bit(fam, params, domain, a, b):
    model, _ = builtin_family(fam, params, domain=domain)
    res = rhs_main_sum(model, a, b)
    rhs, terms = per_r_rhs_main_sum(model, a, b)
    assert len(terms) == len(res.terms) > 0
    assert _bits(res.rhs_main, res.terms) == _bits(rhs, terms)
    assert res.r.dtype.kind == "i" and res.r_range == (terms[0][0], terms[-1][0])


def test_dual_side_halving_and_empty_range_match_the_loop():
    model, _ = builtin_family("power_phase")
    # f'(12) = 1 and f'(1200) = 10: both limit terms halved
    res = rhs_main_sum(model, 12.0, 1200.0)
    full = rhs_main_sum(model, 11.0, 1201.0)
    assert res.r_range == full.r_range == (1, 10)
    assert res.values[0] == 0.5 * full.values[0] and res.values[-1] == 0.5 * full.values[-1]
    assert np.array_equal(res.values[1:-1], full.values[1:-1])
    # r_lo == r_hi with both limits integral: one term, quartered
    res = rhs_main_sum(model, 12.0, 12.0)
    assert res.r.tolist() == [1] and res.values[0] == 0.25 * full.values[0]
    assert _bits(res.rhs_main, res.terms) == _bits(*per_r_rhs_main_sum(model, 12.0, 12.0))
    quad, _ = builtin_family("quadratic", [0.37, 0.5], domain=(0.0, 10.0))
    res = rhs_main_sum(quad, 4.1, 4.6)
    assert per_r_rhs_main_sum(quad, 4.1, 4.6) == (0j, [])
    assert res.rhs_main == 0j and res.terms == [] and res.r.size == res.xr.size == res.values.size == 0


PHASE_CASES = [c for c in DUAL_CASES if c[0] != "oscillatory"]


@pytest.mark.parametrize("fam,params,domain,a,b", PHASE_CASES, ids=map(_case_id, PHASE_CASES))
def test_rhs_phase_array_call_equals_scalar_calls(fam, params, domain, a, b):
    model, _ = builtin_family(fam, params, domain=domain)
    res = rhs_main_sum(model, a, b)
    rs, xs = res.r.astype(float).tolist(), res.xr.tolist()
    arr = model.rhs_phase(res.r.astype(float), res.xr).tolist()
    one = [float(model.rhs_phase(r, x)) for r, x in zip(rs, xs)]
    old = [_scalar_rhs_phase(model)(r, x) for r, x in zip(rs, xs)]
    assert list(map(repr, arr)) == list(map(repr, one)) == list(map(repr, old))


def test_headline_dual_side_in_closed_form():
    # power_phase on [1, 1.2e9]: x_r = 12 r^2 and every phase is 0, so term r
    # is sqrt(24 r) e(1/8); f'(1.2e9) = 10^4 exactly halves the top term
    model, _ = builtin_family("power_phase")
    assert float(model.f1(1.2e9)) == 1e4
    res = rhs_main_sum(model, 1.0, 1.2e9)
    assert len(res.terms) == 10_000 and res.r_range == (1, 10_000)
    assert np.array_equal(res.xr, 12.0 * res.r.astype(float) ** 2)
    weights = [math.sqrt(24.0 * r) for r in range(1, 10_001)]
    weights[-1] *= 0.5
    want = e(0.125) * math.fsum(weights)
    assert res.rhs_main == pytest.approx(want, rel=1e-13)


def _hurwitz_sqrt(n):
    """zeta(-1/2, n) at 30 digits from its large-n expansion (DLMF 25.11.43)
    to the seventh Bernoulli term; at n = 101 the next term is 2e-32."""
    s = mpmath.mpf(-0.5)
    n = mpmath.mpf(n)
    return (n ** (1 - s) / (s - 1) + n ** -s / 2
            + mpmath.fsum(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.rf(s, 2 * k - 1)
                          * n ** (1 - s - 2 * k) for k in range(1, 8)))


HURWITZ_CASES = [(K, False) for K in (10 ** 2, 10 ** 4, 10 ** 6, 3 * 10 ** 6)]
HURWITZ_CASES += [(K, True) for K in (10 ** 2, 10 ** 4, 3 * 10 ** 6)]


@pytest.mark.parametrize("K,off", HURWITZ_CASES,
                         ids=[f"{K}-off" if off else str(K) for K, off in HURWITZ_CASES])
def test_power_phase_dual_side_and_d_b_in_hurwitz_closed_form(K, off):
    # the paper's case at b = 12K^2: the terms above give e(1/8) sqrt(24)
    # (sum_{r <= K} sqrt(r) - sqrt(K)/2), and sum_{r <= K} sqrt(r) =
    # zeta(-1/2) - zeta(-1/2, K + 1).  Off that limit, at b = 12K^2 + 12K,
    # f'(b) = sqrt(K^2 + K) is no integer, so no term is halved.  mpmath's
    # Hurwitz zeta at a negative s and an integer n steps n down one by one
    # (7 s at K = 10^6), so the expansion stands in for it, checked against
    # it where it is quick.  The default domain stops at K = 288 675
    model, profile = builtin_family("power_phase", domain=(1e-3, 1e16))
    b = 12.0 * K * K + (12.0 * K if off else 0.0)
    res = rhs_main_sum(model, 1.0, b)
    assert res.r_range == (1, K)
    with mpmath.workdps(30):
        tail = _hurwitz_sqrt(K + 1)
        if K <= 10 ** 4:
            assert abs(tail - mpmath.zeta(-0.5, K + 1)) <= 1e-28 * abs(tail)
        s = mpmath.zeta(-0.5) - tail - (0 if off else mpmath.sqrt(K) / 2)
        want = complex(mpmath.expjpi(mpmath.mpf(1) / 4) * mpmath.sqrt(24) * s)
    assert abs(res.rhs_main - want) <= 2.0 ** -50 * abs(want)
    if off:
        return
    # D(b): f(b) = 8K^3 and f'(b) = K are integers, f'' = 1/(24K) and
    # f''' = -1/(576K^3), so D(b) = f''' / (6 pi i f''^2) = i / (6 pi K)
    d_b = endpoint_term(endpoint(model, profile, b))
    assert d_b.regime == "explicit-sawtooth" and d_b.bound == 0.0
    want = 1j / (6.0 * math.pi * K)
    assert abs(d_b.explicit - want) <= 2.0 ** -50 * abs(want)


def test_sine_amplitude_dual_side_in_closed_form():
    # sine_amplitude(0.37) shares power_phase's f: x_r = 12 r^2, every phase
    # is 0 and 1/sqrt(f''(x_r)) = sqrt(24 r), so term r is
    # sin(0.37 x_r) sqrt(24 r) e(1/8) = sin(4.44 r^2) sqrt(24 r) e(1/8);
    # mpmath takes the sine at the same double argument 0.37 x_r
    model, _ = builtin_family("sine_amplitude", [0.37])
    res = rhs_main_sum(model, 1.0, 1.2e6)
    assert res.r_range == (1, 316)
    with mpmath.workdps(40):
        total = mpmath.fsum(mpmath.sin(mpmath.mpf(0.37 * (12.0 * r * r))) * mpmath.sqrt(24 * r)
                            for r in range(1, 317))
        want = complex(total * mpmath.expjpi(mpmath.mpf(1) / 4))
    assert abs(res.rhs_main - want) <= 1e-12 * abs(want)


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
    term = endpoint_term(endpoint(model, profile, mu))
    assert term.regime == "explicit-offset"
    assert term.bound == 0.0
    oracle = brute_force_endpoint_sum(model, mu)
    assert term.explicit == pytest.approx(oracle, abs=2e-6)


def test_endpoint_sawtooth_case_against_brute_force():
    model, profile = builtin_family("quadratic", [0.45, 100.0], domain=(0.0, 200.0))
    mu = 3.3 / 0.45  # f'(mu) = 3.3: distance 0.3 <= f'' = 0.45 < 0.7
    term = endpoint_term(endpoint(model, profile, mu))
    assert term.regime == "explicit-sawtooth"
    oracle = brute_force_endpoint_sum(model, mu)
    assert term.explicit == pytest.approx(oracle, abs=2e-6)


def test_endpoint_phase_on_one_point_keeps_its_scalar_bits():
    # endpoint_term and refined_endpoint_term reduce f(mu) - r mu one point at
    # a time; the array-capable reduction must give the scalar formula's bits
    for fam, params, mus in (("power_phase", [], (1083.0, 4321.77, 2.5e7 + 0.3)),
                             ("sine_amplitude", [0.37], (123.4, 9876.5)),
                             ("oscillatory", [1.0, 1.0, 1.0], (119.7268, 1000.5))):
        model, _ = builtin_family(fam, params)
        for mu in mus:
            r0 = fprime_nearest(model, mu)[0]
            old = (math.fmod(float(model.f(mu)), 1.0) - math.fmod(float(r0) * mu, 1.0)) % 1.0
            assert repr(float(_phase_f_minus_rx(model.f(mu), mu, r0))) == repr(old)


def test_endpoint_power_phase_nonintegral_slope():
    # f'(1083) = 9.5, f''(1083) ~ 0.0044: offset case, with the printed value
    model, profile = builtin_family("power_phase")
    mu = 1083.0
    dec = nearest_decomp(float(model.f1(mu)))
    assert dec.dist == 0.5 and float(model.f2(mu)) < 0.5
    term = endpoint_term(endpoint(model, profile, mu))
    psi = modified_sawtooth(mu, dec.signed_frac)
    want = e(math.fmod(float(model.f(mu)), 1.0) - math.fmod(dec.nearest * mu, 1.0)) \
        * (-1.0 / (2j * math.pi * dec.signed_frac) + psi)
    assert term.explicit == pytest.approx(complex(want), rel=1e-9)


def test_endpoint_power_phase_integral_slope():
    # f'(1200) = 10: the sawtooth part vanishes at an integer endpoint and
    # only the curvature piece of the star term survives (g' = 0)
    model, profile = builtin_family("power_phase")
    mu = 1200.0
    term = endpoint_term(endpoint(model, profile, mu))
    fpp = float(model.f2(mu))
    want = float(model.fjet(mu, 3, 3)[0]) * e(math.fmod(float(model.f(mu)), 1.0)) \
        / (6j * math.pi * fpp * fpp)
    assert term.explicit == pytest.approx(complex(want), rel=1e-12)
    assert term.regime == "explicit-sawtooth"


def test_endpoint_large_curvature_bound():
    model, profile = builtin_family("quadratic", [4.0, 10.0], domain=(0.0, 50.0))
    mu = 3.3
    term = endpoint_term(endpoint(model, profile, mu))
    assert term.regime == "bound-large"
    M = 10.0
    assert term.bound == pytest.approx(1.0 + 1.0 / M + 1.0 / (2.0 * M), rel=1e-12)
    assert term.explicit == 0j


def test_endpoint_tie_takes_offset_case():
    # f'' = ||f'|| exactly: the tie goes to the offset case by convention
    model, profile = builtin_family("quadratic", [0.3, 100.0], domain=(0.0, 100.0))
    mu = 1.3 / 0.3
    assert nearest_decomp(float(model.f1(mu))).dist == pytest.approx(0.3)
    term = endpoint_term(endpoint(model, profile, mu))
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
    coarse = endpoint_term(endpoint(model, profile, mu))
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


def _wide_radius_exponential():
    model, _ = builtin_family("exponential", [1.0, 2.0])
    const = lambda c: lambda x: np.full_like(np.asarray(x, dtype=float), c)
    return model, ConditionMProfile(M=const(10.0), M_prime=const(0.0), U=const(1.0))


@pytest.mark.parametrize("case,a,b,message", [
    ("part1", 10.0, 400.0, "part I"),            # M exceeds b - a
    ("part3", 10.5, 400.0, "part III"),          # J leaves the domain
    ("sweep", 1.0, 20.0, "96 violations"),       # f''' decays too slowly for M
])
def test_failed_sweep_warning_names_what_failed(case, a, b, message):
    model, profile = {
        "part1": lambda: builtin_family("quadratic", [0.3]),
        "part3": lambda: builtin_family("quadratic", [0.3, 5.0], domain=(10.0, 400.0)),
        "sweep": _wide_radius_exponential,
    }[case]()
    opts = TransformOptions(measure=False, budget=False)
    with pytest.warns(UserWarning, match=rf"regularity sweep failed on \[{a}, {b}\]: {message}$"):
        res, _ = full_transform(model, profile, a, b, opts)
    report = res.condition_report
    assert (report.part1_ok, report.part3_ok) == (case != "part1", case != "part3")
    assert bool(report.violations) == (case == "sweep")


def test_each_limit_record_is_built_once_per_sweep_and_per_budget(monkeypatch):
    # the sweep builds the records of a and b, and D(a), D(b) and the budget
    # read them from its report; nothing else builds one
    model, profile = builtin_family("power_phase")
    built = []

    def counted(model, profile, mu):
        built.append(mu)
        return endpoint(model, profile, mu)

    monkeypatch.setattr(errbudget, "endpoint", counted)
    res, budget = full_transform(model, profile, 1.0, 1200.0)
    assert built == [1.0, 1200.0]
    ea, eb = res.condition_report.ends
    assert (ea, eb) == (endpoint(model, profile, 1.0), endpoint(model, profile, 1200.0))
    assert (res.d_a, res.d_b) == (endpoint_term(ea), endpoint_term(eb))
    assert (budget.m_a, budget.m_b) == (ea.m, eb.m)


def test_example_family_budget_sweep():
    # near-square sweep: one fitted constant controls the measured residual
    # against the budget across upper limits 12 k^2 + j
    model, profile = builtin_family("power_phase")
    ratios = []
    for k in (40, 60):
        for j in (-5, -1, 0, 2, 5):
            n = 12 * k * k + j
            res, budget = full_transform(model, profile, 1.0, float(n))
            ratios.append(abs(res.measured_delta) / budget_with_endpoints(res, budget))
    fitted = max(ratios)
    assert math.isfinite(fitted) and fitted <= 10.0
    assert all(r <= 2.0 * fitted for r in ratios)


@pytest.mark.parametrize("b", [12 * 100.01 ** 2, 12 * 100.005 ** 2])
def test_limit_near_an_integer_keeps_its_explicit_endpoint(b):
    # b lies within 1.2e-3 (3e-4) of an integer and f'(b) = 100.01 (100.005):
    # psi(b, <f'(b)>) enters D(b), and the transform stays finite
    model, profile = builtin_family("power_phase")
    res, budget = full_transform(model, profile, 1.0, b)
    assert res.d_b.regime == "explicit-offset"
    total = budget_with_endpoints(res, budget)
    assert math.isfinite(total)
    assert cmath.isfinite(res.measured_delta) and abs(res.measured_delta) <= total


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
