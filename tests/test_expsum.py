import cmath
import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdcorput.expsum import curve_samples, direct_starred_sum, write_curve_csv
from vdcorput.numutil import CHUNK, csum, integer_range, nearest_integer
from vdcorput.phase import PhaseAmplitudeModel, builtin_family

from helpers import float_rule_range, jet_of


def direct_starred_sum_unreduced(model, a, b):
    """Reference path without phase reduction (valid only for small f)."""
    n_lo, n_hi, half_lo, half_hi = float_rule_range(a, b)
    ws = []
    for n in range(n_lo, n_hi + 1):
        w = float(model.g(n)) * complex(math.cos(2 * math.pi * float(model.f(n))),
                                        math.sin(2 * math.pi * float(model.f(n))))
        if n == n_lo and half_lo:
            w *= 0.5
        if n == n_hi and half_hi:
            w *= 0.5
        ws.append(w)
    return csum(ws)


def direct_starred_sum_complex_exp(model, a, b, conjugate=False):
    """The kernel as it was before the cos/sin dot products: np.mod, complex
    exp and np.sum over 65 536-term chunks, chunk totals merged by csum."""
    n_lo, n_hi, half_lo, half_hi = float_rule_range(a, b)
    if n_hi < n_lo:
        return 0j
    parts = []
    n = n_lo
    while n <= n_hi:
        m = min(n + 65536 - 1, n_hi)
        ns = np.arange(n, m + 1, dtype=np.float64)
        ph = np.mod(np.asarray(model.f(ns), dtype=float), 1.0)
        w = np.asarray(model.g(ns), dtype=float) * np.exp(2j * np.pi * ph)
        if n == n_lo and half_lo:
            w[0] *= 0.5
        if m == n_hi and half_hi:
            w[-1] *= 0.5
        parts.append(np.sum(w))
        n = m + 1
    s = csum(parts)
    return s.conjugate() if conjugate else s


def split_consistency(model, a, c, b):
    """direct(a,c) + direct(c,b) (the halves at an integer c recombine to a
    full term, so this equals direct(a,b) either way)."""
    return direct_starred_sum(model, a, c) + direct_starred_sum(model, c, b)


def curve_csv_text(samples):
    buf = io.StringIO()
    write_curve_csv(samples, buf)
    return buf.getvalue()


def flat_model():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PhaseAmplitudeModel(fjet=jet_of(zero, zero, one, zero, zero),
                               gjet=jet_of(one, zero, zero, zero),
                               domain=(-1e6, 1e6), name="flat")


def e(x):
    return cmath.exp(2j * math.pi * x)


def test_starred_count():
    assert direct_starred_sum(flat_model(), 0.0, 2.0) == pytest.approx(2.0)
    assert direct_starred_sum(flat_model(), -0.5, 2.5) == pytest.approx(3.0)
    # one term that is both first and last gets halved twice
    assert direct_starred_sum(flat_model(), 3.0, 3.0) == pytest.approx(0.25)


def test_a_half_integer_limit_is_never_an_integer():
    # from 5e8 on the 1e-9 relative slack reaches 1/2: a half-integer limit
    # is neither halved as an integer nor rounded half-even to the one above
    assert integer_range(nearest_integer(1.0), nearest_integer(500000000.5)) == (
        1, 500000000, True, False)
    assert integer_range(nearest_integer(-500000000.5), nearest_integer(-1.0)) == (
        -500000000, -1, False, True)
    assert direct_starred_sum(flat_model(), 499999990.0, 500000000.5) == 10.5
    assert direct_starred_sum(flat_model(), 499999991.0, 500000001.5) == 10.5


def test_large_integral_limits_sum_exactly_the_integers_between_them():
    # the halved terms are the first and last summed, so no integer outside
    # [a, b] enters once a relative slack would span one or more integers
    assert direct_starred_sum(flat_model(), 2.0 ** 53, 2.0 ** 53 + 8) == 8.0
    assert direct_starred_sum(flat_model(), 1e12, 1e12 + 100) == 100.0


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 20),
       st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
def test_integer_range_one_ulp_off_an_integer(k, span, lo_ulps, hi_ulps):
    # each limit is one ulp below an integer, on it, or one ulp above it
    a = math.nextafter(float(k), lo_ulps * math.inf) if lo_ulps else float(k)
    b = math.nextafter(float(k + span), hi_ulps * math.inf) if hi_ulps else float(k + span)
    assert integer_range(nearest_integer(a), nearest_integer(b)) == (k, k + span, True, True)
    # the starred sum of g = 1 counts those terms, the two limit terms halved
    assert direct_starred_sum(flat_model(), a, b) == span


def test_power_phase_four_term_hand_evaluation():
    model, _ = builtin_family("power_phase")
    want = (0.5 * e((1 / 3) ** 1.5) + e((2 / 3) ** 1.5) + e(1.0)
            + 0.5 * e((4 / 3) ** 1.5))
    got = direct_starred_sum(model, 1.0, 4.0)
    assert got == pytest.approx(want, abs=1e-13)


def test_quadratic_matches_naive_summation():
    model, _ = builtin_family("quadratic", [1.0])
    naive = 0j
    for n in range(0, 11):
        term = e(0.5 * n * n)
        if n in (0, 10):
            term *= 0.5
        naive += term
    assert direct_starred_sum(model, 0.0, 10.0) == pytest.approx(naive, abs=1e-12)


@pytest.mark.parametrize("c", [7.5, 8.0])  # non-integer and integer split points
def test_splitting_property(c):
    model, _ = builtin_family("power_phase")
    whole = direct_starred_sum(model, 1.0, 20.0)
    assert split_consistency(model, 1.0, c, 20.0) == pytest.approx(whole, abs=1e-12)


def test_trivial_bound():
    model, profile = builtin_family("ik_monomial", [2.0, 100.0, 1e4])
    a, b = 100.0, 400.0
    s = direct_starred_sum(model, a, b)
    xs = np.linspace(a, b, 1001)
    u_max = float(np.max(profile.U(xs)))
    assert abs(s) <= (b - a + 1) * u_max


def test_phase_reduction_consistency():
    # reduced and unreduced complex exponentials agree while f is moderate;
    # the 2 pi f product in the unreduced path carries ~2 pi f ulp(1) of
    # phase noise on its own, so the attainable agreement degrades linearly
    # in f (about 5e-8 per term at f = 1e8)
    model, _ = builtin_family("quadratic", [2.0])
    for (a, b), tol in [((310.0, 320.0), 1e-9),      # f up to 2e5
                        ((9990.0, 10000.0), 4e-7)]:  # f up to 1e8
        got = direct_starred_sum(model, a, b)
        ref = direct_starred_sum_unreduced(model, a, b)
        assert abs(got - ref) <= tol


U = np.finfo(float).eps / 2  # unit roundoff


@pytest.mark.parametrize("name,params,a,b,conjugate", [
    ("power_phase", (), 1.0, 70000.0, False),           # crosses both chunk sizes
    ("quadratic", (0.37,), -3000.5, 5000.0, True),
    ("ik_monomial", (2.0, 100.0, 1e4), 100.0, 20000.25, False),
    ("exponential", (1.0, 1.5), 0.0, 30.0, False),
    ("zeta_log", (0.5, 1e4), 1.5, 80000.0, False),      # negative phases
    ("zeta_log", (0.5, 1e4), 2.0, 70000.5, True),
    ("oscillatory", (0.01, 0.01, 1.0), 1.0, 20000.0, False),
    ("sine_amplitude", (0.37,), 10.0, 40000.5, True),   # g changes sign
])
def test_kernel_matches_the_complex_exp_kernel(name, params, a, b, conjugate):
    # the cos/sin and dot-product rounding differ from exp and np.sum, so the
    # two agree to a few ulps per term on top of the phase's own 2 pi |f| u
    model, _ = builtin_family(name, params)
    ns = np.arange(math.ceil(a), math.floor(b) + 1, dtype=float)
    tol = float(np.sum(np.abs(model.g(ns)) * (2 * np.pi * np.abs(model.f(ns)) + 4))) * U
    got = direct_starred_sum(model, a, b, conjugate=conjugate)
    want = direct_starred_sum_complex_exp(model, a, b, conjugate=conjugate)
    assert abs(got - want) <= tol


@pytest.mark.parametrize("terms", [CHUNK - 1, CHUNK, CHUNK + 1,
                                   3 * CHUNK + 1])
def test_chunk_edges_against_termwise_fsum(terms):
    # integer limits at both ends: the first and the last term are halved,
    # wherever the chunk boundaries fall
    model, _ = builtin_family("zeta_log", [0.5, 1e3])
    a = 2.0
    b = a + terms - 1
    ns = np.arange(a, b + 1)
    g = model.g(ns).tolist()
    ph = np.mod(model.f(ns), 1.0).tolist()
    re = [gi * math.cos(2 * math.pi * p) for gi, p in zip(g, ph)]
    im = [gi * math.sin(2 * math.pi * p) for gi, p in zip(g, ph)]
    for part in (re, im):
        part[0] *= 0.5
        part[-1] *= 0.5
    want = complex(math.fsum(re), math.fsum(im))
    got = direct_starred_sum(model, a, b)
    # a chunk's dot product errs by at most CHUNK u sum|g|; angle, cos/sin
    # and product add a few ulps per term
    tol = (CHUNK + 8) * U * math.fsum(abs(x) for x in g)
    assert abs(got - want) <= tol
    assert direct_starred_sum(model, a, b) == got  # reproducible to the bit


def test_direct_sum_against_30_digit_mpmath_of_the_same_phases():
    # e(.) of each float64 phase from 30-digit mpmath, summed exactly: what is
    # left is the kernel's own error.  cos and sin of the rounded angle 2 pi {f}
    # were off by 6.1e-13 here, biased by up to 6 2^-53 per term; the table
    # kernel, within 2^-53 per term, is off by 1.05e-13
    model, _ = builtin_family("power_phase")
    ns = np.arange(1.0, 20_001.0)
    phases = model.f(ns).tolist()
    with mpmath.workdps(30):
        terms = [mpmath.expjpi(2 * mpmath.mpf(p)) for p in phases]
        terms[0] /= 2
        terms[-1] /= 2
        want = mpmath.fsum(terms)
        err = abs(mpmath.mpc(direct_starred_sum(model, 1.0, 20_000.0)) - want)
    assert np.all(model.g(ns) == 1.0)
    assert err <= 2.5e-13


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_phase_gives_a_nan_sum(bad):
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    phase = lambda x: np.where(np.asarray(x) == 5.0, bad, 0.1 * np.asarray(x))
    model = PhaseAmplitudeModel(fjet=jet_of(phase, one, one, one, one),
                                gjet=jet_of(one, one, one, one), domain=(0.0, 100.0))
    with np.errstate(invalid="ignore"):
        got = direct_starred_sum(model, 1.0, 10.0)
    assert cmath.isnan(got)


@pytest.mark.parametrize("a,b", [(1.0, math.inf), (-math.inf, 3.0), (1.0, math.nan),
                                 (math.nan, 3.0)])
def test_non_finite_limits_are_refused(a, b):
    model, _ = builtin_family("power_phase")
    name = "a" if not math.isfinite(a) else "b"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        direct_starred_sum(model, a, b)


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_curve_refuses_a_non_finite_t_max(t_max):
    with pytest.raises(ValueError, match="t_max must be finite"):
        curve_samples(flat_model(), t_max, 1)


def test_empty_and_reversed():
    model, _ = builtin_family("quadratic", [1.0])
    assert direct_starred_sum(model, 0.4, 0.6) == 0j
    with pytest.raises(ValueError):
        direct_starred_sum(model, 2.0, 1.0)


def test_curve_flat():
    samples = curve_samples(flat_model(), 2.0, 1)
    assert samples[0].t == 1.0 and samples[0].value == pytest.approx(1.0)
    assert samples[1].t == 2.0 and samples[1].value == pytest.approx(2.0)


def test_curve_matches_plain_sum_at_integer_t():
    model, _ = builtin_family("power_phase")
    samples = curve_samples(model, 1200.0, 1)
    final = samples[-1].value
    # non-starred convention: add back the halves at both integer limits
    ns = np.arange(1, 1201, dtype=float)
    plain = complex(np.sum(np.exp(2j * np.pi * np.mod(model.f(ns), 1.0))))
    assert final == pytest.approx(plain, abs=1e-10)


def test_curve_interpolation_against_naive():
    model, _ = builtin_family("quadratic", [0.37])
    samples = curve_samples(model, 100.0, 4)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, len(samples), 10):
        s = samples[int(idx)]
        k = math.floor(s.t)
        naive = sum(e(0.5 * 0.37 * n * n) for n in range(1, k + 1))
        naive += (s.t - k) * e(0.5 * 0.37 * (k + 1) ** 2)
        assert s.value == pytest.approx(naive, abs=1e-10)


def test_curve_continuity():
    model, _ = builtin_family("power_phase")
    samples = curve_samples(model, 50.0, 8)
    h = 1.0 / 8.0
    xs = np.arange(1, 52, dtype=float)
    g_max = 1.0
    slope = g_max * (h + 2 * math.pi * h * float(model.f1(51.0)))
    for s0, s1 in zip(samples, samples[1:]):
        assert abs(s1.value - s0.value) <= slope + 1e-12


def test_curve_csv_format():
    text = curve_csv_text(curve_samples(flat_model(), 2.0, 2))
    lines = text.splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == 5
    assert text.endswith("\n")
    t, re, im = lines[1].split(",")
    assert float(t) == 0.5 and float(re) == 0.5


def test_curve_validation():
    with pytest.raises(ValueError):
        curve_samples(flat_model(), 0.5, 1)
    with pytest.raises(ValueError):
        curve_samples(flat_model(), 2.0, 0)
