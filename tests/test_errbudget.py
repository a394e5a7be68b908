import dataclasses
import json
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize

from hypothesis import given, settings
from hypothesis import strategies as st

from vdcorput import errbudget as eb
from vdcorput.numutil import nearest_decomp, nearest_integer
from vdcorput.phase import (ConditionMProfile, PhaseAmplitudeModel,
                            builtin_family, family_model, invert_fprime)
from vdcorput.transform import rhs_main_sum

from helpers import Orders, ReferenceWR, _locate_kb, jet_of, single_roots, toinfinity_deltas

SQ6 = math.sqrt(6.0)
SQ37 = math.sqrt(37.0)


def kappa(terms, intervals, isolated):
    """The K functional of the one branch of terms, on its own break points;
    kappa_cuts gets terms(x) -> (W, W', r') in the form that takes each of
    the three on its own slice of x."""
    def sliced(x, parts=None):
        values = terms(x)
        return values if parts is None else [v[s] for v, s in zip(values, parts)]

    (cuts,) = eb.kappa_cuts(sliced, intervals)
    return eb.kappa_functional(terms, intervals, isolated, cuts)


def example_rhs_model():
    """f = 4x^3, g = sqrt(24 x): the conjugated dual side of the cubic-power
    example, whose critical-point functions have closed forms."""
    s24 = math.sqrt(24.0)
    arr = lambda x: np.asarray(x, dtype=float)
    return PhaseAmplitudeModel(
        fjet=jet_of(lambda x: 4.0 * arr(x) ** 3,
                    lambda x: 12.0 * arr(x) ** 2,
                    lambda x: 24.0 * arr(x),
                    lambda x: np.full_like(arr(x), 24.0),
                    lambda x: np.zeros_like(arr(x))),
        gjet=jet_of(lambda x: s24 * np.sqrt(arr(x)),
                    lambda x: 0.5 * s24 / np.sqrt(arr(x)),
                    lambda x: -0.25 * s24 * arr(x) ** -1.5,
                    lambda x: 0.375 * s24 * arr(x) ** -2.5),
        domain=(0.05, 1e9), name="example_rhs")


# ---------------------------------------------------------------------------
# the regularity sweep
# ---------------------------------------------------------------------------

def test_power_phase_sweep_passes():
    model, _ = builtin_family("power_phase")
    profile = ConditionMProfile(
        M=lambda x: 0.5 * np.asarray(x, dtype=float),
        M_prime=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        U=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    report = eb.check_condition_M(model, profile, 100.0, 1200.0)
    assert report.passed
    assert report.part1_ok and report.part3_ok
    # part II of condition (M) holds by the choice of the fixed constants
    assert ConditionMProfile.eta == 3 * 0.5 / ConditionMProfile.C2_minus < 2.0
    assert all(v <= 1.0 for v in report.worst_ratios.values())


def test_quadratic_sweep_trivial_ratios():
    model, profile = builtin_family("quadratic", [0.3, 50.0], domain=(0.0, 50.0))
    report = eb.check_condition_M(model, profile, 0.0, 50.0)
    assert report.passed
    assert report.worst_ratios["f3"] == 0.0
    assert report.worst_ratios["f4"] == 0.0


def test_exponential_sweep_fails_with_wide_radius():
    # f'''/f'' = log 2 ~ 0.693 cannot satisfy the eta/M = 0.075 decay bound;
    # the report locates the violation instead of raising
    model, _ = builtin_family("exponential", [1.0, 2.0])
    profile = ConditionMProfile(
        M=lambda x: np.full_like(np.asarray(x, dtype=float), 10.0),
        M_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        U=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    report = eb.check_condition_M(model, profile, 1.0, 20.0)
    assert not report.passed
    assert any(v["inequality"] == "f3" for v in report.violations)
    assert report.worst_ratios["f3"] > 1.0


def test_report_json_round_trip():
    import json
    model, profile = builtin_family("power_phase")
    report = eb.check_condition_M(model, profile, 100.0, 400.0)
    back = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert back["schema"] == "condition-m-report/1"
    assert back["passed"] is True


def per_node_condition_M(model, profile, a, b):
    """The sweep one Chebyshev node at a time, as it was computed before it
    became one array block: the reference the report must match exactly."""
    report = eb.check_condition_M(model, profile, a, b)
    jlo, jhi = report.extended_interval
    grid = report.grid
    k = np.arange(grid)
    xs = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k + 1) * np.pi / (2 * grid))
    worst = {name: 0.0 for name in eb._INEQUALITIES}
    violations = []
    eta = profile.eta
    m = Orders(model)
    for x in xs:
        x = float(x)
        Mx = float(profile.M(x))
        Ux = float(profile.U(x))
        fppx = float(model.f2(x))
        zs = np.linspace(max(x - Mx, jlo), min(x + Mx, jhi), 64)
        f2z = np.asarray(model.f2(zs), dtype=float)
        checks = (
            ("f2_upper", f2z / (profile.C2 * fppx)),
            ("f2_lower", fppx / (profile.C2_minus * f2z)),
            ("f3", np.abs(m.f3(zs)) * Mx / (eta * fppx)),
            ("f4", np.abs(m.f4(zs)) * Mx * Mx / (eta * eta * profile.C4 * fppx)),
            ("g0", np.abs(model.g(zs)) / (profile.D0 * Ux)),
            ("g1", np.abs(m.g1(zs)) * Mx / (profile.D1 * Ux)),
            ("g2", np.abs(m.g2(zs)) * Mx * Mx / (profile.D2 * Ux)),
        )
        for name, ratios in checks:
            i = int(np.argmax(ratios))
            rmax = float(ratios[i])
            if rmax > worst[name]:
                worst[name] = rmax
            if rmax > 1.0 + 1e-12:
                violations.append({"inequality": name, "x": x, "z": float(zs[i]), "ratio": rmax})
    passed = report.part1_ok and report.part3_ok and not violations
    return eb.ConditionMReport(passed, report.part1_ok, report.part3_ok,
                               worst, violations, (a, b), (jlo, jhi), grid).to_json()


@pytest.mark.parametrize("fam,params,a,b,passes", [
    ("power_phase", [], 100.0, 1200.0, True),
    ("ik_monomial", [1.5, 104.0, 10198.0], 104.0, 312.0, True),
    ("oscillatory", [1.0, 1.0, 1.0], 120.0, 170.0, True),
    ("sine_amplitude", [0.37, 8.0], 100.0, 400.0, False),     # oversized eps
    ("exponential", [1.0, 2.0], 1.0, 20.0, False),
])
def test_condition_m_block_equals_the_per_node_sweep(fam, params, a, b, passes):
    model, profile = builtin_family(fam, params)
    if fam == "exponential":  # radius 10 breaks the f''' bound at every node
        profile = ConditionMProfile(M=lambda x: np.full_like(np.asarray(x, dtype=float), 10.0),
                                    M_prime=profile.M_prime, U=profile.U)
    got = eb.check_condition_M(model, profile, a, b).to_json()
    assert got["passed"] is passes
    assert passes or len(got["violations"]) >= 48  # two or more per node, interleaved
    want = per_node_condition_M(model, profile, a, b)
    assert json.dumps(got) == json.dumps(want)


# ---------------------------------------------------------------------------
# m counts and the abar/bbar points
# ---------------------------------------------------------------------------

def _slope_stub(fp, fpp):
    """A model with a constant f' and f'' (f and its third derivative 0,
    g = 1) for the integer-count arithmetic."""
    return PhaseAmplitudeModel(fjet=jet_of(lambda x: 0.0, lambda x: fp, lambda x: fpp,
                                           lambda x: 0.0),
                               gjet=jet_of(lambda x: 1.0, lambda x: 0.0),
                               domain=(-math.inf, math.inf))


_UNIT_PROFILE = ConditionMProfile(M=lambda x: 1.0, M_prime=lambda x: 0.0, U=lambda x: 1.0)


def m_count(model, mu):
    return eb.endpoint(model, _UNIT_PROFILE, mu).m


def test_m_count_examples():
    assert m_count(_slope_stub(5.0, 0.3), 0.0) == 0
    assert m_count(_slope_stub(5.0, 2.5), 0.0) == 4
    assert m_count(_slope_stub(5.25, 0.5), 0.0) == 1


def test_m_count_zero_when_curvature_below_distance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        fp = float(rng.uniform(-20, 20))
        dist = abs(fp - round(fp))
        if dist == 0:
            continue
        fpp = float(rng.uniform(0, 1)) * dist
        assert m_count(_slope_stub(fp, fpp), 0.0) == 0


# families whose models have no exact test of an integral f'
NO_EXACT_TEST = [("quadratic", [1.0], 1.0, 1e6), ("quadratic", [0.37], 1.0, 1e4),
                 ("exponential", [1.0, 2.0], 4.398, 8.398),
                 ("oscillatory", [1.0, 1.0, 1.0], 100.0, 200.0)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NO_EXACT_TEST), st.floats(0.0, 1.0), st.booleans(), st.integers(-2, 2))
def test_fprime_nearest_without_an_exact_test_is_nearest_integer_of_f1(case, t, on_integer, ulps):
    # at points in an interval, or 0-2 ulps from where f' is an integer
    family, params, lo, hi = case
    model = family_model(family, params)
    assert model.fprime_integer is None
    x = lo + t * (hi - lo)
    if on_integer:
        r_lo, r_hi = sorted(float(model.f1(v)) for v in (lo, hi))
        r = min(max(round(float(model.f1(x))), math.ceil(r_lo)), math.floor(r_hi))
        x = float(invert_fprime(model, float(r)))
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    assert eb.fprime_nearest(model, x) == nearest_integer(float(model.f1(x)))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 9_128_765), st.sampled_from([-1, 0, 1]))
def test_power_phase_exact_test_decides_both_ways(k, side):
    # x = 12 k^2 and one ulp either side of it, up to x ~ 1e15: f' is the
    # integer k at 12 k^2 and no integer off it, with an offset of the sign
    # of x - 12 k^2, never 0, even where the float f' rounds onto k
    model, _ = builtin_family("power_phase")
    x = math.nextafter(12.0 * k * k, side * math.inf) if side else 12.0 * k * k
    got = eb.fprime_nearest(model, x)
    if not side:
        assert got == (k, 0.0, 0.0)
        return
    assert got.nearest == k and got.dist == abs(got.signed_frac) > 0.0
    assert math.copysign(1.0, got.signed_frac) == side
    # the true offset (x - 12 k^2) / (12 (f' + k)), to a few ulps of itself
    want = float((mpmath.mpf(x) - 12 * k * k) / (12 * (mpmath.sqrt(mpmath.mpf(x) / 12) + k)))
    assert got.signed_frac == pytest.approx(want, rel=1e-14)


def test_power_phase_float_slope_on_an_integer_is_no_integer():
    # one ulp (1/16) either side of 12 k^2 at k = 5 774 828: sqrt(x / 12)
    # rounds onto k, but the exact test says no, so the limit is no integer,
    # and m and the Delta1 case read dist > 0
    model, profile = builtin_family("power_phase")
    k = 5_774_828
    for side in (1.0, -1.0):
        x = math.nextafter(12.0 * k * k, side * math.inf)
        assert float(model.f1(x)) == k and model.fprime_integer(x) is None
        got = eb.fprime_nearest(model, x)
        assert got.nearest == k and got.dist == abs(got.signed_frac) > 0.0
        assert math.copysign(1.0, got.signed_frac) == side
        assert eb.endpoint(model, profile, x).slope == got


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1e3, 1e4, 12345.678, 1e6]), st.integers(1, 10 ** 6),
       st.integers(0, 40), st.integers(-2, 2))
def test_zeta_log_exact_test_decides_both_ways(t, k, shift, ulps):
    # f' = -c/x, c = t/2pi, at 0-2 ulps from c/k and from the exact c/2^shift:
    # the decision is the exact rational's, an integer only where k x = -c,
    # with an exact-signed offset where the float f' rounds onto an integer
    model = family_model("zeta_log", [0.5, t])
    c = Fraction(t / (2.0 * math.pi))
    for x in (float(c / k), float(c / 2 ** shift)):
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        q = -c / Fraction(x)
        got = eb.fprime_nearest(model, x)
        if q.denominator == 1:
            assert got == (int(q), 0.0, 0.0) and model.fprime_integer(x) == int(q)
            continue
        f1 = float(model.f1(x))
        assert model.fprime_integer(x) is None
        assert got.nearest == nearest_decomp(f1).nearest and got.dist == abs(got.signed_frac) > 0.0
        assert (got.signed_frac > 0) == (q > got.nearest)
        if abs(f1 - round(f1)) <= 2.0 * math.ulp(f1):
            assert got.signed_frac == float(q - got.nearest)


def test_headline_budget_is_finite_and_not_vacuous():
    # power_phase on [1, 1.2e9]: f'(b - 1/2) = 9 999.999 997 9 is no integer,
    # so bbar = 12 * 9 999^2 and Delta3(b) is small, not the 6.1e11 of a
    # bbar clamped to b - 1/2
    model, profile = builtin_family("power_phase")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        budget = eb.compute_budget(model, profile, 1.0, 1.2e9)
    assert budget.bbar == 12.0 * 9999 ** 2
    assert budget.delta3_b < 1e-4
    assert math.isfinite(budget.total) and budget.total < 1e4


def test_abar_power_phase():
    model, profile = builtin_family("power_phase")
    abar, bbar = eb.abar_bbar(model, *limit_records(model, profile, 1.0, 1200.0), profile)
    assert abar == pytest.approx(12.0, rel=1e-12)   # first integral slope
    # f'(1200) = 10, but bbar must sit left of b - min(M(b), 1/2): slope 9
    assert bbar is not None and bbar <= 1200.0 - 0.5
    assert bbar == pytest.approx(12.0 * 81.0, rel=1e-12)


def test_abar_quadratic_at_offset_start():
    # slope window starts at a + min(M, 1/2): the first integral slope there
    model, profile = builtin_family("quadratic", [10.0, 1.0], domain=(0.0, 1.0))
    abar, bbar = eb.abar_bbar(model, *limit_records(model, profile, 0.0, 1.0), profile)
    assert abar == pytest.approx(0.5)  # f'(0.5) = 5, already integral
    assert bbar == pytest.approx(0.5)


def test_abar_takes_the_integral_slope_the_dual_side_sums():
    # f'(b) = 100 - 1e-8 counts as the integer 100, which rhs_main_sum sums
    # halved; abar_bbar must see the same r = 100, so Delta3(a) keeps its
    # value at b = 100 instead of dropping to 0
    model, profile = builtin_family("quadratic", [1.0, 0.25])
    a, b = 99.6, 100.0 - 1e-8
    assert rhs_main_sum(model, a, b).r_range == (100, 100)
    ends = limit_records(model, profile, a, b)
    abar, bbar = eb.abar_bbar(model, *ends, profile)
    assert abar == 100.0 and bbar is None
    d3a, _ = eb.tail_deltas(model, profile, *ends, abar, bbar)
    ends = limit_records(model, profile, a, 100.0)
    want, _ = eb.tail_deltas(model, profile, *ends, *eb.abar_bbar(model, *ends, profile))
    assert want > 31.0
    assert d3a == pytest.approx(want, rel=1e-6)


def test_abar_absent_when_no_integer_slope():
    model, profile = builtin_family("quadratic", [0.8, 1.0], domain=(0.125, 1.125))
    ends = limit_records(model, profile, 0.125, 1.125)
    abar, bbar = eb.abar_bbar(model, *ends, profile)
    assert abar is None and bbar is None
    d3a, d3b = eb.tail_deltas(model, profile, *ends, abar, bbar)
    assert d3a == 0.0 and d3b == 0.0


# ---------------------------------------------------------------------------
# endpoint deltas
# ---------------------------------------------------------------------------

def test_delta1_integral_slope():
    model, profile = builtin_family("power_phase")
    d1, _ = eb.endpoint_deltas(eb.endpoint(model, profile, 1200.0), 1199.0)
    fpp = float(model.f2(1200.0))
    assert d1 == pytest.approx(1.0 / (fpp ** 2 * 1199.0 ** 3), rel=1e-12)


def test_delta1_zero_when_no_nearby_slope():
    # ||f'|| = 0.3 with m = 0 contributes nothing
    model, profile = builtin_family("quadratic", [0.2, 10.0], domain=(0.0, 100.0))
    mu = (5 + 0.3) / 0.2  # f' = 5.3, f'' = 0.2 < 0.3
    d1, _ = eb.endpoint_deltas(eb.endpoint(model, profile, mu), 100.0 - mu)
    assert d1 == 0.0


def test_delta2_plugin_value():
    model, _ = builtin_family("quadratic", [0.01], domain=(0.0, 1e4))
    profile = ConditionMProfile(
        M=lambda x: np.full_like(np.asarray(x, dtype=float), 100.0),
        M_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        U=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    mu = 20.0  # f' = 0.2, f'' = 0.01, m = 0
    _, d2 = eb.endpoint_deltas(eb.endpoint(model, profile, mu), 2000.0 - mu)
    first = 1.0 / (0.01 ** 2 * 100.0 ** 3) * (1.0 + 0.1 * 100.0) * 1.01
    case = 1.0 / (100.0 * 0.2 ** 2) + 0.01 / 0.2 ** 3
    assert case == pytest.approx(0.25 + 1.25)
    assert d2 == pytest.approx(first + case, rel=1e-12)


def test_budget_scales_linearly_with_amplitude():
    # doubling g (hence U) pointwise doubles every budget magnitude exactly
    model = example_rhs_model()
    base_profile = ConditionMProfile(
        M=lambda x: 0.25 * np.asarray(x, dtype=float),
        M_prime=lambda x: np.full_like(np.asarray(x, dtype=float), 0.25),
        U=model.g)
    doubled_model = dataclasses.replace(
        model, gjet=lambda x, lo, hi: [2.0 * v for v in model.gjet(x, lo, hi)], name="doubled")
    doubled_profile = ConditionMProfile(
        M=base_profile.M, M_prime=base_profile.M_prime, U=doubled_model.g)

    a, b = 2.0, 40.0
    b1 = eb.compute_budget(model, base_profile, a, b)
    b2 = eb.compute_budget(doubled_model, doubled_profile, a, b)
    for attr in ("delta1_a", "delta1_b", "delta2_a", "delta2_b",
                 "delta3_a", "delta3_b"):
        v1, v2 = getattr(b1, attr), getattr(b2, attr)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-9)
    assert b2.delta4.total == pytest.approx(2.0 * b1.delta4.total, rel=1e-6)
    assert b2.total == pytest.approx(2.0 * b1.total, rel=1e-6)


# ---------------------------------------------------------------------------
# critical-point functions
# ---------------------------------------------------------------------------

def test_wr_closed_forms_match_printed_values():
    wr = ReferenceWR(example_rhs_model())
    x = 2.7
    assert float(wr.H(x)) == pytest.approx(120.0 * math.sqrt(6.0 * x), rel=1e-12)
    assert float(wr.G(x)) == pytest.approx(-41472.0 * x, rel=1e-12)
    assert float(wr.discriminant(x)) == pytest.approx(127872.0 * x, rel=1e-12)
    for sigma in (+1, -1):
        r_want = 12.0 * (11.0 + sigma * 2.0 * SQ37) * x * x
        assert float(wr.r_branch(x, sigma)) == pytest.approx(r_want, rel=1e-10)
        w_want = (SQ37 + sigma * 7.0) / (96.0 * SQ6 * (SQ37 + sigma * 5.0) ** 3) * x ** -4.5
        assert float(wr.pm_terms(x, sigma)[0]) == pytest.approx(w_want, rel=1e-10)


def test_w0_r0_closed_forms_power_phase():
    model, _ = builtin_family("power_phase")
    wr = eb.WRFunctions(model)
    for x in (3.0, 57.0, 980.0):
        W0, _, r0_prime = wr.zero_terms(x)
        assert float(W0) == pytest.approx(2.0 / (9.0 * x * x), rel=1e-12)
        assert float(ReferenceWR(model).r0(x)) == pytest.approx(2.0 * math.sqrt(x / 3.0),
                                                                 rel=1e-12)
        assert float(r0_prime) > 0.0


def test_pointwise_identities_on_grid():
    model = example_rhs_model()
    wr, m = ReferenceWR(model), Orders(model)
    xs = np.linspace(0.5, 60.0, 1000)
    H = np.asarray(wr.H(xs))
    want_h = m.g(xs) * m.f3(xs) + 3.0 * m.g1(xs) * m.f2(xs)
    assert np.max(np.abs(H - want_h) / np.abs(want_h)) < 1e-10
    G = np.asarray(wr.G(xs))
    want_g = 12.0 * m.g(xs) * m.g2(xs) * m.f2(xs) ** 2
    assert np.max(np.abs(G - want_g) / np.abs(want_g)) < 1e-10


JET_CASES = [("ik_monomial", [7.0, 100.0, 1e4], 100.0, 400.0),
             ("sine_amplitude", [0.01], 100.0, 400.0),
             ("zeta_log", [0.5, 1e4], 50.0, 500.0),
             ("power_phase", [], 1.0, 2e4),
             ("oscillatory", [1.0, 1.0, 1.0], 100.0, 200.0)]


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("family,params,lo,hi", JET_CASES, ids=[c[0] for c in JET_CASES])
def test_jets_equal_the_per_function_formulas_bit_for_bit(family, params, lo, hi):
    model = family_model(family, params)
    wr, ref = eb.WRFunctions(model), ReferenceWR(model)
    xs = np.linspace(lo, hi, 1001)
    pm = lambda s: lambda x: (ref.W_branch(x, s), ref.W_branch_prime(x, s),
                              ref.r_branch_prime(x, s))
    refs = {+1: pm(+1), -1: pm(-1), 0: lambda x: (ref.W0(x), ref.W0_prime(x), ref.r0_prime(x))}
    jets = {+1: lambda x: wr.pm_terms(x, +1), -1: lambda x: wr.pm_terms(x, -1), 0: wr.zero_terms}
    with np.errstate(all="ignore"):
        for branch, jet in jets.items():
            for got, want in zip(jet(xs), refs[branch](xs)):
                assert _bits(got) == _bits(want), branch
            # scalars stay scalars: one point goes through the scalar arithmetic
            for x in xs[::97].tolist():
                for got, want in zip(jet(x), refs[branch](x)):
                    assert np.ndim(got) == 0 and _bits(got) == _bits(want), (branch, x)


def _pm_terms_mp(jet, sigma):
    """The terms that pm_terms sums into W, W' and r', in 40-digit mpmath
    from the same jet values (g ... g''', f'' ... f'''')."""
    g, g1, g2, g3, f2, f3, f4 = (mpmath.mpf(float(v)) for v in jet)
    H = g * f3 + 3 * g1 * f2
    Hp = 4 * g1 * f3 + 3 * g2 * f2 + g * f4
    G = 12 * g * g2 * f2 ** 2
    Gp = 12 * (g1 * g2 * f2 ** 2 + g * g3 * f2 ** 2 + 2 * g * g2 * f2 * f3)
    S = mpmath.sqrt(H ** 2 - G)
    P = H + sigma * S
    Pp = Hp + sigma * (2 * H * Hp - Gp) / (2 * S)
    W = [4 * g2 ** 2 * g1 / P ** 2, -8 * g2 ** 3 * f2 * g / P ** 3]
    W_p = [8 * g2 * g3 * g1 / P ** 2, 4 * g2 ** 3 / P ** 2, -8 * g2 ** 2 * g1 * Pp / P ** 3,
           -24 * g2 ** 2 * g3 * f2 * g / P ** 3, -8 * g2 ** 3 * f3 * g / P ** 3,
           -8 * g2 ** 3 * f2 * g1 / P ** 3, 24 * g2 ** 3 * f2 * g * Pp / P ** 4]
    r_p = [f2, -Pp / (2 * g2), P * g3 / (2 * g2 ** 2)]
    return W, W_p, r_p


@pytest.mark.parametrize("family,params,lo,hi", [("sine_amplitude", [0.006], 110.0, 300.0),
                                                 ("zeta_log", [0.5, 1000.0], 20.0, 200.0)])
def test_pm_terms_powers_as_products_against_40_digit_mpmath(family, params, lo, hi):
    # g''^3, P^3 and P^4 are products of rounded squares, not one pow: on
    # points where g'' or P is negative (sine_amplitude's g'' = -a^2 sin ax,
    # zeta_log's P of both branches), each of W, W' and r' stays within 1e-13
    # of the largest term summed to form it
    model = family_model(family, params)
    wr = eb.WRFunctions(model)
    xs = np.linspace(lo, hi, 4096)
    g, g1, g2, g3 = model.gjet(xs, 0, 3)
    f2, f3, f4 = model.fjet(xs, 2, 4)
    H = g * f3 + 3.0 * g1 * f2
    with np.errstate(invalid="ignore"):
        S = np.sqrt(H ** 2 - 12.0 * g * g2 * f2 ** 2)
    for sigma in (+1, -1):
        (idx,) = np.nonzero(np.isfinite(S) & ((g2 < 0) | (H + sigma * S < 0)))
        x = xs[idx[np.linspace(0, len(idx) - 1, 4).astype(int)]]
        got = wr.pm_terms(x, sigma)
        jet = np.array(model.gjet(x, 0, 3) + model.fjet(x, 2, 4))
        with mpmath.workdps(40):
            for j in range(len(x)):
                for value, terms in zip(got, _pm_terms_mp(jet[:, j], sigma)):
                    err = abs(mpmath.mpf(float(value[j])) - mpmath.fsum(terms))
                    assert err <= 1e-13 * max(abs(t) for t in terms), (sigma, x[j])


def test_one_jet_evaluates_each_derivative_once(monkeypatch):
    base = example_rhs_model()
    calls = []

    def counted(name):
        jet = getattr(base, name)

        def wrapped(x, lo, hi):
            calls.append((name, lo, hi))
            return jet(x, lo, hi)
        return wrapped

    model = dataclasses.replace(base, fjet=counted("fjet"), gjet=counted("gjet"))
    wr = eb.WRFunctions(model)
    for x in (2.7, np.linspace(0.5, 60.0, 64)):
        calls.clear()
        wr.pm_terms(x, +1)
        assert sorted(calls) == [("fjet", 2, 4), ("gjet", 0, 3)]
        calls.clear()
        wr.zero_terms(x)
        assert sorted(calls) == [("fjet", 2, 4), ("gjet", 0, 2)]

    # the sweep: f2 at the nodes and f2 ... f4 on the (grid x 64) block in
    # one fjet call, g ... g2 in one gjet call; the records of the two
    # limits, which set the extended interval, are scalar calls of their own
    profile = ConditionMProfile(M=lambda x: 0.25 * np.asarray(x, dtype=float),
                                M_prime=lambda x: np.full_like(np.asarray(x, dtype=float), 0.25),
                                U=base.g)
    want = eb.check_condition_M(base, profile, 2.0, 40.0).to_json()
    ends = {mu: eb.endpoint(base, profile, mu) for mu in (2.0, 40.0)}
    monkeypatch.setattr(eb, "endpoint", lambda model, profile, mu: ends[mu])
    calls.clear()
    assert eb.check_condition_M(model, profile, 2.0, 40.0).to_json() == want
    assert sorted(calls) == [("fjet", 2, 4), ("gjet", 0, 2)]


def test_branch_root_identity():
    # t = f' - r_pm solves g'' t^2 - H t + 3 g (f'')^2 = 0 on both branches
    model = example_rhs_model()
    wr, m = ReferenceWR(model), Orders(model)
    xs = np.linspace(0.5, 60.0, 1000)
    for sigma in (+1, -1):
        t = np.asarray(m.f1(xs)) - np.asarray(wr.r_branch(xs, sigma))
        res = (np.asarray(m.g2(xs)) * t * t - np.asarray(wr.H(xs)) * t
               + 3.0 * np.asarray(model.g(xs)) * np.asarray(model.f2(xs)) ** 2)
        scale = np.abs(np.asarray(wr.H(xs)) * t) + 1e-30
        assert float(np.max(np.abs(res) / scale)) < 1e-8


def test_wr_derivative_formulas_against_finite_differences():
    model = example_rhs_model()
    wr = ReferenceWR(model)
    pairs = []
    for s in (+1, -1):
        pairs += [(lambda t, s=s: wr.pm_terms(t, s)[0], lambda t, s=s: wr.pm_terms(t, s)[1]),
                  (lambda t, s=s: wr.r_branch(t, s), lambda t, s=s: wr.pm_terms(t, s)[2])]
    power, _ = builtin_family("power_phase")
    wr0 = eb.WRFunctions(power)
    pairs += [(lambda t: wr0.zero_terms(t)[0], lambda t: wr0.zero_terms(t)[1]),
              (ReferenceWR(power).r0, lambda t: wr0.zero_terms(t)[2])]
    for fn, dfn in pairs:
        for x in (5.0, 13.0, 41.0):
            h = 1e-5 * x
            fd = (float(fn(x + h)) - float(fn(x - h))) / (2 * h)
            an = float(dfn(x))
            assert fd == pytest.approx(an, rel=1e-6)


# ---------------------------------------------------------------------------
# partition of the extended interval
# ---------------------------------------------------------------------------

def limit_records(model, profile, a, b):
    """The records of the limits a and b."""
    return eb.endpoint(model, profile, a), eb.endpoint(model, profile, b)


def condition_m_domain(model, profile, a, b):
    """The extended interval J of [a, b], clipped to the domain of the model."""
    return eb.extended_interval(model, *limit_records(model, profile, a, b))[:2]


def test_partition_constant_amplitude():
    model, profile = builtin_family("power_phase")
    jlo, jhi = condition_m_domain(model, profile, 100.0, 1200.0)
    part = eb.partition_assumptions(model, jlo, jhi)
    assert part.jpm == []
    assert len(part.j0) == 1
    lo, hi = part.j0[0]
    assert lo == pytest.approx(jlo)
    assert hi == pytest.approx(jhi)
    assert part.jnull == []


def test_partition_example_rhs_all_pm():
    model = example_rhs_model()
    part = eb.partition_assumptions(model, 1.0, 60.0)
    assert part.j0 == []
    assert len(part.jpm) == 1
    assert part.jpm[0][0] == pytest.approx(1.0)
    assert part.jpm[0][1] == pytest.approx(60.0)


def test_partition_sine_amplitude_zeros():
    # pure sine zeros have g'' = 0 as well, so they do NOT qualify as
    # isolated amplitude zeros (which need g' != 0 and g'' != 0)
    model, _ = builtin_family("sine_amplitude", [0.37, 0.25])
    part = eb.partition_assumptions(model, 10.0, 60.0)
    assert part.jnull == []

    # a skewed amplitude sin + 0.4 sin^2 has genuine ones at the same spots
    arr = lambda x: np.asarray(x, dtype=float)
    lam, al = 0.4, 0.37
    s = lambda x: np.sin(al * arr(x))
    c = lambda x: np.cos(al * arr(x))
    base = model
    skew = dataclasses.replace(base, gjet=jet_of(
        lambda x: s(x) + lam * s(x) ** 2,
        lambda x: al * c(x) * (1 + 2 * lam * s(x)),
        lambda x: -al ** 2 * s(x) * (1 + 2 * lam * s(x)) + 2 * lam * al ** 2 * c(x) ** 2,
        lambda x: -al ** 3 * c(x) * (1 + 2 * lam * s(x)) - 6 * lam * al ** 3 * s(x) * c(x)),
        name="skewed_sine")
    part = eb.partition_assumptions(skew, 10.0, 60.0)
    zeros = [k * math.pi / al for k in range(2, 8) if 10.0 <= k * math.pi / al <= 60.0]
    assert len(part.jnull) == len(zeros)
    for z, want in zip(sorted(part.jnull), zeros):
        assert z == pytest.approx(want, abs=1e-8)


def test_partition_isolated_gpp_zero():
    # g'' changes sign transversally at one point with g, H nonzero there:
    # an isolated point, not an interval boundary of any branch set
    arr = lambda x: np.asarray(x, dtype=float)
    model, _ = builtin_family("power_phase")
    x0 = 30.0
    cubic = dataclasses.replace(model, gjet=jet_of(
        lambda x: 10.0 + (arr(x) - x0) ** 3 / 600.0,
        lambda x: 3.0 * (arr(x) - x0) ** 2 / 600.0,
        lambda x: 6.0 * (arr(x) - x0) / 600.0,
        lambda x: np.full_like(arr(x), 6.0 / 600.0)),
        name="cubic_amp")
    part = eb.partition_assumptions(cubic, 10.0, 50.0)
    assert any(abs(p - x0) < 1e-6 for p in part.j0_isolated)


def per_piece_partition(model, lo, hi):
    """(jpm, j0, jnull, j0_isolated) from the per-piece and per-root loops
    that the array blocks of partition_assumptions replaced."""
    wr, m = ReferenceWR(model), Orders(model)
    xs = np.linspace(lo, hi, 4096)
    fns = (wr.G, wr.discriminant, wr.H, m.g, m.g2)
    G, D, H, g, g2 = vals = [np.asarray(fn(xs), dtype=float) for fn in fns]
    g1 = np.asarray(m.g1(xs), dtype=float)
    cuts = {lo, hi}
    for fn, v in zip(fns, vals):
        cuts.update(single_roots(fn, xs, v))
        hits = np.nonzero(v == 0.0)[0]
        if 0 < hits.size < v.size:
            cuts.update(float(xs[i]) for i in hits)
    pts = sorted(cuts)
    jpm, j0 = [], []
    for x0, x1 in zip(pts[:-1], pts[1:]):
        if x1 - x0 <= 1e-12 * max(1.0, abs(x0)):
            continue
        mids = np.linspace(x0 + (x1 - x0) * 1e-3, x1 - (x1 - x0) * 1e-3, 7)
        Gm, Dm, Hm, gm, g2m = (np.asarray(fn(mids), dtype=float) for fn in fns)
        if np.all(Gm != 0.0) and np.all(Dm >= 0.0):
            jpm.append((x0, x1))
        elif np.all(g2m == 0.0) and np.all(gm != 0.0) and np.all(Hm != 0.0):
            if j0 and abs(j0[-1][1] - x0) <= 1e-12 * max(1.0, abs(x0)):
                j0[-1] = (j0[-1][0], x1)
            else:
                j0.append((x0, x1))
    scale = lambda v: float(np.max(np.abs(v))) or 1.0
    nonzero = lambda fn, x, v: abs(float(fn(x))) > 1e-6 * scale(v)
    jnull = [x for x in single_roots(m.g, xs, g)
             if nonzero(m.g1, x, g1) and nonzero(m.g2, x, g2)]
    j0_isolated = [x for x in single_roots(m.g2, xs, g2)
                   if nonzero(m.g, x, g) and nonzero(wr.H, x, H)]
    for x0, x1 in jpm:
        w = (x1 - x0) * 1e-6
        for p in (x0 + w, x1 - w):
            if 0.0 < abs(float(wr.discriminant(p))) < 1e-12 * scale(D):
                raise eb.PartitionDegeneracyError(f"H^2-G tends to 0 at J_pm endpoint {p:.6g}")
    for x0, x1 in j0:
        w = (x1 - x0) * 1e-6
        for p in (x0 + w, x1 - w):
            if abs(float(m.g(p))) < 1e-12 * max(1.0, float(np.max(np.abs(g)))):
                raise eb.PartitionDegeneracyError(f"g tends to 0 at J_0 endpoint {p:.6g}")
    return jpm, j0, jnull, j0_isolated


@pytest.mark.parametrize("fam,params,a,b,with_profile", [
    ("power_phase", [], 100.0, 1200.0, True),                  # one J_0 piece
    ("oscillatory", [1.0, 1.0, 1.0], 1000.0, 2000.0, True),    # 331 sign changes of H
    ("ik_monomial", [7.0, 100.0, 1e5], 100.0, 400.0, False),   # J_pm
    ("sine_amplitude", [0.01], 200.0, 400.0, True),            # J_pm cut at amplitude zeros
    ("sine_amplitude", [0.37, 0.25], 10.0, 60.0, False),
    ("zeta_log", [0.5, 1e6], 1e4, 1e9, True),                  # degenerate J_pm endpoint
])
def test_partition_blocks_equal_the_per_piece_loops(fam, params, a, b, with_profile):
    model, profile = builtin_family(fam, params)
    lo, hi = condition_m_domain(model, profile, a, b) if with_profile else (a, b)
    try:
        want = per_piece_partition(model, lo, hi)
    except eb.PartitionDegeneracyError as err:
        with pytest.raises(eb.PartitionDegeneracyError) as got:
            eb.partition_assumptions(model, lo, hi)
        assert str(got.value) == str(err)
        return
    part = eb.partition_assumptions(model, lo, hi)
    assert (part.jpm, part.j0, part.jnull, part.j0_isolated) == want
    assert part.jpm or part.j0


def _tangential_zeros_loop(xs, D):
    """The per-sample loop that the array expression replaced."""
    isolated = []
    neg = D < 0.0
    for i in range(1, len(D) - 1):
        if neg[i - 1] and neg[i + 1] and D[i] == 0.0:
            isolated.append(float(xs[i]))
    return isolated


@pytest.mark.parametrize("seed", range(6))
def test_tangential_zero_scan_matches_the_per_sample_loops(seed):
    # samples drawn from a few values (exact zeros, negatives, ties,
    # positives, nan) so every branch is taken often
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -1e-12, -2e-12, -1e-3, -1.0, 1.0, np.nan, -0.0])
    D = rng.choice(values, size=4096, p=[0.2, 0.2, 0.1, 0.2, 0.1, 0.1, 0.05, 0.05])
    xs = np.linspace(-3.0, 7.0, D.size)
    got = eb._tangential_zeros(xs, D)
    want = _tangential_zeros_loop(xs, D)
    assert got == want
    assert want


def test_partition_raises_where_a_branch_denominator_vanishes():
    # zeta_log(0.5, 1e6) on [1e4, 1e9]: at the upper J_pm endpoint H^2 - G is
    # below 1e-12 of its largest sample, so the branches are degenerate there
    model, profile = builtin_family("zeta_log", [0.5, 1e6])
    with pytest.raises(eb.PartitionDegeneracyError,
                       match=r"H\^2-G tends to 0 at J_pm endpoint 9\.99999e\+08"):
        eb.compute_budget(model, profile, 1e4, 1e9)


# ---------------------------------------------------------------------------
# tail integrals and the global variation term
# ---------------------------------------------------------------------------

def test_delta3_power_phase_against_independent_quadrature():
    model, profile = builtin_family("power_phase")
    ends = limit_records(model, profile, 1.0, 1200.0)
    abar, bbar = eb.abar_bbar(model, *ends, profile)
    d3a, d3b = eb.tail_deltas(model, profile, *ends, abar, bbar)
    assert d3a > 0 and d3b > 0

    def integrand(x):
        fpp = float(model.f2(x))
        M = float(profile.M(x))
        return 1.0 / (fpp * (x - 1.0) ** 3) * (1 + 1 / (fpp * M) + 1 / (fpp * (x - 1.0)))

    xs = np.linspace(abar, 1200.0, 400001)
    oracle = float(np.trapezoid([integrand(t) for t in xs], xs))
    boundary = (1.0 / (float(model.f2(abar)) ** 2 * (abar - 1.0) ** 3)
                + 1.0 / (float(model.f2(1200.0)) ** 2 * 1199.0 ** 3))
    assert d3a == pytest.approx(oracle + boundary, rel=1e-6)


def test_delta3_steep_edge_converges():
    # bbar = b - 2, so the Delta3(b) integrand climbs like 1/d^4 to d = 2 at
    # the edge of a ~27000-wide start panel; refinement has to keep bisecting
    # that panel through sweeps that barely lower the error estimate
    model, profile = builtin_family("power_phase")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = limit_records(model, profile, 1.0, 43202.0)
        _, d3b = eb.tail_deltas(model, profile, *ends, *eb.abar_bbar(model, *ends, profile))
    assert d3b == pytest.approx(345789.99583, rel=1e-10)


def test_delta3_integral_over_an_oscillating_f2_is_not_aliased():
    # oscillatory(1, 1, 1) on [1000, 2000]: the Delta3(b) integral runs over
    # [1000, bbar = 1999.49997] from one start panel 160 periods of
    # f'' = 2 - sin(x)/x + ... wide.  A K15 - G7 pair agreed by aliasing on
    # such panels and stopped 1.1e-9 off.  The reference is a 1e-14 relative
    # run from 20 000 start panels
    model, profile = builtin_family("oscillatory", [1.0, 1.0, 1.0])
    _, bbar = eb.abar_bbar(model, *limit_records(model, profile, 1000.0, 2000.0), profile)
    assert bbar == pytest.approx(1999.49997, abs=1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eb._quad(eb._delta3_integrand(model, profile, 2000.0), 1000.0, bbar, "Delta3(b)")
    assert got == pytest.approx(1.6892895453939, rel=1e-10)


def test_budget_integrals_add_their_error_estimate(monkeypatch):
    # a Delta integral enters its budget term as the panel engine's value
    # plus its error estimate: the integrands are nonnegative, so the term
    # errs high by what the rule may have missed; a nan stays nan
    real, seen = eb.panel_integral, []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(eb, "panel_integral", spy)
    model, profile = builtin_family("power_phase")
    a, b = 1.0, 1200.0
    ends = limit_records(model, profile, a, b)
    abar, _ = eb.abar_bbar(model, *ends, profile)
    d3a, _ = eb.tail_deltas(model, profile, *ends, abar, None)
    assert len(seen) == 1 and seen[0].converged and seen[0].abs_error_estimate > 0.0
    boundary = (float(profile.U(abar)) / (float(model.f2(abar)) ** 2 * (abar - a) ** 3),
                float(profile.U(b)) / (float(model.f2(b)) ** 2 * (b - a) ** 3))
    assert d3a == (seen[0].value + seen[0].abs_error_estimate) + boundary[0] + boundary[1]
    with pytest.warns(UserWarning, match="did not converge"):
        got = eb._quad(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, "nan")
    assert math.isnan(got) and math.isnan(seen[-1].value)


def test_delta3_ik_small_against_amplitude():
    # the tail terms stay below the local amplitude scale for the monomial
    # family (the worked chain bounds them by U(a) up to a modest constant)
    model, profile = builtin_family("ik_monomial", [2.0, 100.0, 1e4])
    ends = limit_records(model, profile, 100.0, 400.0)
    d3a, d3b = eb.tail_deltas(model, profile, *ends, *eb.abar_bbar(model, *ends, profile))
    u_a = float(profile.U(100.0))
    assert d3a <= 5.0 * u_a
    assert d3b <= 5.0 * u_a


def test_delta4_power_phase_pieces():
    model, profile = builtin_family("power_phase")
    d4 = eb.global_delta4(model, profile, *limit_records(model, profile, 100.0, 1200.0))
    assert not d4.simplified
    assert d4.kappa_j0 > 0.0
    assert d4.kappa_plus == 0.0 and d4.kappa_minus == 0.0
    assert d4.jnull_sum == 0.0
    assert d4.smooth_integral > 0.0


def test_delta4_simplified_for_wide_radius():
    model, profile = builtin_family("quadratic", [0.37, 100.0], domain=(0.0, 100.0))
    d4 = eb.global_delta4(model, profile, *limit_records(model, profile, 0.0, 100.0))
    assert d4.simplified
    assert d4.total == d4.smooth_integral


def test_kappa_ik_magnitude_chain():
    # with real branches (alpha = 7) the variation functional reproduces the
    # worked-chain scale N^(1/2)/X across parameter sets, one fitted constant
    ratios = []
    for n_scale, x_scale in [(50.0, 2e4), (100.0, 1e5), (100.0, 4e4),
                             (200.0, 3e5), (150.0, 9e4), (80.0, 5e4),
                             (120.0, 2e5), (60.0, 1e5), (90.0, 1e5), (110.0, 9e4)]:
        model, _ = builtin_family("ik_monomial", [7.0, n_scale, x_scale])
        part = eb.partition_assumptions(model, n_scale, 4.0 * n_scale)
        wr = eb.WRFunctions(model)
        total = 0.0
        for sigma in (+1, -1):
            total += kappa(lambda x, s=sigma: wr.pm_terms(x, s), part.jpm, part.jpm_isolated)
        ratios.append(total / (math.sqrt(n_scale) / x_scale))
    fitted = max(ratios[::2])
    assert all(r <= 2.0 * fitted for r in ratios)


@pytest.mark.parametrize("a,b,n_roots,rel", [(1000.0, 2000.0, 330, 1e-3),
                                             (119.7268, 168.6761, 19, 1e-8)],
                         ids=["330-roots", "w0-kinks"])
def test_kappa_j0_with_many_break_points_against_piecewise_quad(a, b, n_roots, rel):
    # oscillatory(1, 1, 1) on [1000, 2000]: r0' changes sign 330 times on
    # J_0, more break points than a 300-subinterval adaptive quadrature takes.
    # On [119.7268, 168.6761] the integrand's kinks at the zeros of W0, which
    # are no sign changes of r0', must be panel edges too
    model, profile = builtin_family("oscillatory", [1.0, 1.0, 1.0])
    part = eb.partition_assumptions(model, *condition_m_domain(model, profile, a, b))
    wr = eb.WRFunctions(model)
    got = kappa(wr.zero_terms, part.j0, part.j0_isolated)

    # g = 1, so H = f3, H' = f4 and the branch functions reduce to
    # W0 = -f3^3 / (27 f2^5), W0' = (5 f3^4 - 3 f2 f3^2 f4) / (27 f2^6) and
    # r0' = -5 f2 + 3 f2^2 f4 / f3^2, with fk the k-th derivative of
    # f = x^2 + sin(x)/x
    def derivs(x):
        s, c = math.sin(x), math.cos(x)
        return (2.0 - s / x - 2 * c / x ** 2 + 2 * s / x ** 3,
                -c / x + 3 * s / x ** 2 + 6 * c / x ** 3 - 6 * s / x ** 4,
                s / x + 4 * c / x ** 2 - 12 * s / x ** 3 - 24 * c / x ** 4 + 24 * s / x ** 5)

    def parts(x):
        f2, f3, f4 = derivs(x)
        w0 = -f3 ** 3 / (27 * f2 ** 5)
        w0p = (5 * f3 ** 4 - 3 * f2 * f3 ** 2 * f4) / (27 * f2 ** 6)
        return w0, w0p, -5 * f2 + 3 * f2 ** 2 * f4 / f3 ** 2

    def integrand(x):
        w0, w0p, rp = parts(x)
        return abs(w0) * abs(rp) + abs(w0p)

    def zeros(fn, xs):
        v = [fn(x) for x in xs]
        return [optimize.brentq(fn, xs[i], xs[i + 1])
                for i in range(len(xs) - 1) if (v[i] < 0) != (v[i + 1] < 0)]

    saw = lambda x: x - math.floor(x) - 0.5
    want = sum(abs(parts(x)[0]) for x in part.j0_isolated)
    want += sum(abs(saw(x) * parts(x)[0]) for x in sorted({x for seg in part.j0 for x in seg}))
    roots = []
    for x0, x1 in part.j0:
        pad = (x1 - x0) * 1e-9
        xs = np.linspace(x0 + pad, x1 - pad, 4096)
        inner = zeros(lambda t: parts(t)[2], xs)
        # W0 changes sign where f3 does, and W0' where 5 f3^2 - 3 f2 f4 does
        kinks = zeros(lambda t: derivs(t)[1], xs) + zeros(lambda t: parts(t)[1], xs)
        edges = sorted({xs[0], *inner, *kinks, xs[-1]})
        want += sum(integrate.quad(integrand, u, v, epsrel=1e-13, limit=200)[0]
                    for u, v in zip(edges[:-1], edges[1:]))
        roots += inner
    want += sum(abs(saw(x) * parts(x)[0]) for x in roots)
    assert len(roots) == n_roots
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=rel)


def _resolved_zeros(fn, xs):
    """The zeros of fn that join the K functionals' break points: those of a
    scan that eb._resolved passes, given the scan and the third-of-a-gap
    probes of fn evaluated as kappa_cuts evaluates them"""
    v = fn(xs)
    if not eb._resolved(v, fn(xs[:-1] + (xs[1:] - xs[:-1]) / 3.0)):
        return []
    return single_roots(fn, xs, v)


def test_kink_break_points_only_where_the_scan_resolves_them():
    xs = np.linspace(1.0, 30.0, 200)
    assert _resolved_zeros(np.sin, xs) == pytest.approx(np.arange(1, 10) * math.pi)
    # sign flips in two adjacent gaps: zeros closer than two sample spacings
    assert _resolved_zeros(lambda x: np.sin(np.pi * x), np.arange(64) + 0.25) == []
    # two zeros hidden inside the gap [2, 3] make the one seen at 4.5 a sample
    # of the zeros, not all of them
    xs = np.arange(7.0)
    assert _resolved_zeros(lambda x: x - 4.5, xs) == [4.5]
    assert _resolved_zeros(lambda x: (x - 2.2) * (x - 2.5) * (x - 4.5), xs) == []


def _quad_points(monkeypatch):
    """Replace eb._quad by a recorder of its break points; returns their list."""
    seen = []

    def recording(fn, lo, hi, what, points=()):
        seen.append(list(points))
        return 0.0

    monkeypatch.setattr(eb, "_quad", recording)
    return seen


def test_kappa_probes_each_gap_a_third_in(monkeypatch):
    # W = cos(4 pi u) (t - c) with u counting scan gaps: the scan and the gap
    # midpoints see W's one sign change at c, while a probe a third into a gap
    # sees cos(4 pi / 3) < 0, so W's zeros alias and none may be a panel edge
    xs = np.linspace(1e-9, 1.0 - 1e-9, 4096)
    h = (xs[-1] - xs[0]) / 4095.0
    c = float(xs[2000] + 0.37 * h)

    def terms(t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t)
        return np.cos(4.0 * np.pi * (t - xs[0]) / h) * (t - c), one, one

    seen = _quad_points(monkeypatch)
    kappa(terms, [(0.0, 1.0)], [])
    assert seen == [[]]
    # control: the same W without the aliased factor gives c as a break point
    kappa(lambda t: (terms(t)[1] * (np.asarray(t) - c), *terms(t)[1:]), [(0.0, 1.0)], [])
    assert seen[1] == [pytest.approx(c, abs=1e-15)]


def test_kappa_probes_only_the_w_rows_that_change_sign():
    # on [0, 1] W and W' keep their sign (only r' changes it): no probe there;
    # on [2, 3] W changes sign and W' does not: W alone is probed, once
    calls = []

    def terms(x, parts=None):
        x = np.asarray(x, dtype=float)
        full = (np.where(x < 1.5, 1.0 + x, x - 2.5), np.ones_like(x), x - 0.5 - 1.8 * (x > 1.5))
        asked = [0, 1, 2] if parts is None else [c for c, s in enumerate(parts) if s.stop > s.start]
        calls.append((float(x.min()), float(x.max()), x.size, asked))
        return full if parts is None else [v[s] for v, s in zip(full, parts)]

    (cuts,) = eb.kappa_cuts(terms, [(0.0, 1.0), (2.0, 3.0)])
    assert cuts[0][0] == [0.5] and cuts[1][0] == [pytest.approx(2.3)]
    assert cuts[1][1] == [2.5]
    scans = [c for c in calls if c[2] == eb._KAPPA_SCAN]
    probes = [c for c in calls if c[2] == eb._KAPPA_SCAN - 1]
    assert [c[3] for c in scans] == [[0, 1, 2], [0, 1, 2]]
    assert len(probes) == 1 and 2.0 < probes[0][0] < probes[0][1] < 3.0
    assert probes[0][3] == [0]
    # the refinement asks each component only where it has brackets
    assert all(c[3] for c in calls)


def test_kappa_probes_skip_a_budget_whose_w_rows_keep_their_sign(monkeypatch):
    # power_phase (g = 1, so one J_0 branch): W_0 and W_0' keep their sign on
    # its K interval, so its probes are never evaluated
    model, profile = builtin_family("power_phase")
    part = eb.partition_assumptions(model, *condition_m_domain(model, profile, 1.0, 20126.0))
    assert part.j0 and not part.jpm
    sizes = []
    terms = eb.WRFunctions.zero_terms

    def spied(self, x, parts=None):
        sizes.append(np.size(x))
        return terms(self, x, parts)

    monkeypatch.setattr(eb.WRFunctions, "zero_terms", spied)
    eb._k_terms(model, part)
    assert eb._KAPPA_SCAN in sizes and eb._KAPPA_SCAN - 1 not in sizes


def test_kappa_point_terms_come_from_one_array_call(monkeypatch):
    # isolated points add |W(x)|, interval ends and sign changes of r' add
    # |s(x) W(x)|; all five points are one terms call on a 1-d array
    calls = []

    def terms(t):
        calls.append(np.shape(t))
        t = np.asarray(t, dtype=float)
        return 1.0 / t ** 1.5, np.ones_like(t), t - 0.6180339887

    _quad_points(monkeypatch)
    got = kappa(terms, [(0.25, 4.2)], [2.5, 3.7])
    r = 0.6180339887
    want = (2.5 ** -1.5 + 3.7 ** -1.5 + abs(eb.sawtooth_s(r)) * r ** -1.5
            + 0.25 * 0.25 ** -1.5 + abs(eb.sawtooth_s(4.2)) * 4.2 ** -1.5)
    assert got == pytest.approx(want, rel=1e-12)
    assert calls[-1] == (5,) and all(len(shape) == 1 for shape in calls)


def test_budget_reads_the_limits_from_the_sweep_records(monkeypatch):
    # a budget given the sweep's report takes U, M, f'', f' and its integer
    # decision at a and b from the records: nothing is evaluated there again
    model, profile = builtin_family("oscillatory", [1.0, 1.0, 1.0])
    a, b = 1000.0, 2000.0
    report = eb.check_condition_M(model, profile, a, b)
    seen = []

    def spy(name, fn, at=0):
        def called(*args):
            if np.isin([a, b], args[at]).any():
                seen.append(name)
            return fn(*args)
        return called

    model = dataclasses.replace(model, fjet=spy("fjet", model.fjet),
                                gjet=spy("gjet", model.gjet))
    profile = dataclasses.replace(profile, U=spy("U", profile.U), M=spy("M", profile.M))
    monkeypatch.setattr(eb, "fprime_nearest", spy("fprime_nearest", eb.fprime_nearest, 1))
    budget = eb.compute_budget(model, profile, a, b, report)
    assert budget.m_a >= 1 and budget.m_b >= 1  # J reaches past both limits
    assert seen == []


@pytest.mark.parametrize("fam,params,a,b,calls", [
    ("oscillatory", [1.0, 1.0, 1.0], 1000.0, 2000.0, 19),   # a loop per function: 165 in 8
    ("sine_amplitude", [0.006], 100.0, 303.0, 12),          # 157 in 17
])
def test_the_partition_and_k_functionals_bisect_in_few_jet_calls(monkeypatch, fam, params,
                                                                  a, b, calls):
    # the partition's five functions, and r', W and W' of every interval and
    # branch of the K functionals, are bisected in one loop per jet; the
    # bounds are the counts measured when the per-function loops were joined,
    # so a loop per function or per interval that comes back fails here
    model, profile = builtin_family(fam, params)
    part = eb.partition_assumptions(model, *condition_m_domain(model, profile, a, b))
    loops, jets = [], []
    bisected = eb.sign_change_roots

    def counted(fn, *args):
        loops.append(fn)
        return bisected(lambda x, parts: jets.append(x.size) or fn(x, parts), *args)

    monkeypatch.setattr(eb, "sign_change_roots", counted)
    eb.partition_assumptions(model, *condition_m_domain(model, profile, a, b))
    eb._k_terms(model, part)
    assert len(loops) <= 3 and len(jets) <= calls


def test_nonfinite_kappa_integral_is_reported():
    # sine_amplitude(0.01): W of the + branch grows like 1/P^2 with P -> 0 at
    # the amplitude zero that ends this J_pm piece, so the integral diverges;
    # that must surface as a non-finite value with a warning
    model, profile = builtin_family("sine_amplitude", [0.01])
    part = eb.partition_assumptions(model, *condition_m_domain(model, profile, 200.0, 400.0))
    wr = eb.WRFunctions(model)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.warns(UserWarning, match="K functional integral did not converge"):
        k = kappa(lambda x: wr.pm_terms(x, +1), part.jpm[:1], [])
    assert not math.isfinite(k)


# ---------------------------------------------------------------------------
# growing-endpoint variants
# ---------------------------------------------------------------------------

def test_kb_location():
    model, profile = builtin_family("power_phase")  # M = x/2
    b = 1200.0
    lo = _locate_kb(profile, 1.0, b)
    assert lo == pytest.approx(b / 1.5, rel=1e-9)

    _, const_profile = builtin_family("quadratic", [0.4, 30.0], domain=(0.0, 300.0))
    lo = _locate_kb(const_profile, 0.0, 300.0)
    assert lo == pytest.approx(270.0, rel=1e-9)


def test_toinfinity_deltas_power_phase():
    model, profile = builtin_family("power_phase")
    n = 12 * 50 * 50
    d3p, d4p, d5 = toinfinity_deltas(model, profile, 1.0, float(n))
    # independent evaluation of the closed-form first piece
    fpp = float(model.f2(n))
    M = float(profile.M(n))
    want = (1.0 / (fpp ** 2 * (n - 1.0) ** 3)
            + (1.0 + math.sqrt(fpp) * M) / (fpp ** 2 * M ** 3))
    assert d3p == pytest.approx(want, rel=1e-12)
    # dominant piece scales like sqrt(f'') / (f''^2 M^2) ~ 73 N^(-5/4) here
    # (the sqrt(f'') M factor is ~0.19 N^(3/4), not the N^(-1/2) a cruder
    # reading would suggest)
    assert d3p <= 100.0 * n ** -1.25
    assert d3p >= n ** -1.5
    assert d4p > 0 and d5 > 0
    assert d5 < 1.0


def test_budget_json_schema():
    import json
    model, profile = builtin_family("power_phase")
    budget = eb.compute_budget(model, profile, 1.0, 1200.0)
    back = json.loads(json.dumps(budget.to_json(), sort_keys=True))
    assert back["schema"] == "error-budget/1"
    assert back["delta4"]["kappaPlus"] == 0.0
    assert back["total"] == pytest.approx(budget.total)
