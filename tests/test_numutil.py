import cmath
import math
import warnings

import mpmath
import numpy as np
from mpmath.libmp import from_float, mpf_cos_sin_pi, mpf_shift
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdcorput import numutil as nu
from vdcorput.transform import _phase_f_minus_rx

from helpers import (bisect, bisected_roots, dist_to_nearest_star, float_rule_range,
                     modified_sawtooth_grid, single_roots)


# ---------------------------------------------------------------------------
# nearest-integer decomposition
# ---------------------------------------------------------------------------

def test_nearest_decomp_examples():
    d = nu.nearest_decomp(2.4)
    assert d.nearest == 2 and d.signed_frac == pytest.approx(0.4)
    assert d.dist == pytest.approx(0.4)

    d = nu.nearest_decomp(7.0)
    assert d.nearest == 7 and d.signed_frac == 0.0
    assert d.dist == 0.0

    # half-integers round toward +inf
    d = nu.nearest_decomp(3.5)
    assert d.nearest == 4 and d.signed_frac == -0.5
    assert d.dist == 0.5

    # the starred distance substitutes 1 at an integer
    assert dist_to_nearest_star(2.4) == pytest.approx(0.4)
    assert dist_to_nearest_star(7.0) == 1.0


def test_nearest_decomp_rejects_nonfinite():
    with pytest.raises(ValueError):
        nu.nearest_decomp(math.inf)
    with pytest.raises(ValueError):
        nu.nearest_decomp(math.nan)


@given(st.floats(-1e12, 1e12))
def test_nearest_decomp_invariants(x):
    d = nu.nearest_decomp(x)
    assert -0.5 <= d.signed_frac < 0.5
    assert d.dist == abs(d.signed_frac)
    assert abs(d.nearest + d.signed_frac - x) <= 4 * math.ulp(max(1.0, abs(x)))


@given(st.floats(-1e6, 1e6), st.integers(-1000, 1000))
def test_nearest_decomp_integer_shift(x, k):
    if (x + k) - k != x:  # only when the float shift is exact
        return
    d0 = nu.nearest_decomp(x)
    d1 = nu.nearest_decomp(x + k)
    # shifting by an integer moves the nearest integer and nothing else
    assert d1.nearest == d0.nearest + k
    assert d1.signed_frac == d0.signed_frac
    assert d1.dist == d0.dist


def _ulps_off(x, n):
    """The float n ulps above x (below for a negative n)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# a limit 0-2 ulps either side of an integer or a half-integer up to 1e15 in
# magnitude, of either sign, or of +0 or -0
_near_limits = st.one_of(
    st.builds(lambda k, half, n: _ulps_off(float(k) + half, n),
              st.integers(-10 ** 15, 10 ** 15), st.sampled_from([0.0, 0.5, -0.5]),
              st.integers(-2, 2)),
    st.builds(_ulps_off, st.sampled_from([0.0, -0.0]), st.integers(-2, 2)),
)


@settings(max_examples=1000, deadline=None)
@given(_near_limits, _near_limits)
def test_integer_range_of_two_decisions_is_the_float_rule(a, b):
    # the integers between two nearest_integer decisions are those the float
    # rule on the limits themselves gives, hits included
    assert nu.integer_range(nu.nearest_integer(a), nu.nearest_integer(b)) == float_rule_range(a, b)


@pytest.mark.parametrize("t", [0.0, -0.0, 0.125, -0.125, 0.5, -1e-20, 1.0 - 2.0 ** -53,
                               3.7, -3.7, 2.0 ** 52 + 0.5, -1e15 + 0.3, 123456.789])
def test_amplitude_e_on_a_scalar_has_the_bits_of_cis_turns(t):
    # g times each part of cis_turns(t), and + 0.0 on the imaginary part: a
    # negative g at an integral t gives +0 there, not -0
    c, s = nu.cis_turns(t)
    for g in (1.0, -2.5):
        want = np.array([complex(g * c, g * s + 0.0)])
        for arg in (t, np.float64(t), np.asarray(t)):
            got = nu.amplitude_e(g, arg)
            assert isinstance(got, np.complex128)
            assert np.array([got]).tobytes() == want.tobytes()
            assert np.array([nu.amplitude_e(np.array([g]), arg)[0]]).tobytes() == want.tobytes()


def test_amplitude_e_scalar_path_has_the_bits_of_the_array_path():
    rng = np.random.default_rng(29)
    t = np.concatenate([rng.uniform(-1e6, 1e6, 2000), np.floor(rng.uniform(-1e9, 1e9, 500)),
                        rng.uniform(-1.0, 1.0, 2000) * 10.0 ** rng.uniform(-12, 300, 2000),
                        [0.0, -0.0, -1e-20, 2.0 ** 53, 1e308, np.inf, -np.inf, np.nan]])
    g = np.concatenate([rng.uniform(-3.0, 3.0, t.size - 4), [-1.0, 0.0, -0.0, np.inf]])
    with np.errstate(invalid="ignore"):
        want = nu.amplitude_e(g, t)
        for gi, ti, wi in zip(g.tolist(), t.tolist(), want):
            for arg in (ti, np.float64(ti), np.asarray(ti)):
                got = nu.amplitude_e(gi, arg)
                assert isinstance(got, np.complex128)
                if cmath.isnan(wi):     # a nan's sign bit carries nothing
                    assert (math.isnan(got.real), math.isnan(got.imag)) \
                        == (math.isnan(wi.real), math.isnan(wi.imag)), (gi, ti)
                else:
                    assert np.array([got]).tobytes() == np.array([wi]).tobytes(), (gi, ti)
    assert cmath.isnan(nu.amplitude_e(1.0, math.inf))


def _e_exact(f):
    """(cos 2 pi f, sin 2 pi f) at the float f, as mpf values to 133 bits
    (40 digits); 2 f is exact, so no reduction of pi rounds anything."""
    return tuple(mpmath.mpf(v) for v in mpf_cos_sin_pi(mpf_shift(from_float(f), 1), 133))


def _cis_error(f) -> float:
    """The largest error of either part of cis_turns over f, in units of 2^-53."""
    c, s = nu.cis_turns(f)
    err = mpmath.mpf(0)
    with mpmath.workprec(133):
        for fi, ci, si in zip(f.tolist(), c.tolist(), s.tolist()):
            rc, rs = _e_exact(fi)
            err = max(err, abs(rc - ci), abs(rs - si))
    return float(err) * 2.0 ** 53


# cis_turns errs by at most this much in either part, in units of 2^-53: on
# the 10^5 random u below it measured 0.998, on the edge cases 0.970
CIS_BOUND = 1.0


def test_cis_turns_at_the_table_nodes_is_correctly_rounded():
    # at u = k/1024 the remainder is 0 and the kernel returns the table entry
    k = np.arange(1024.0)
    c, s = nu.cis_turns(k / 1024)
    for ki, ci, si in zip(k.tolist(), c.tolist(), s.tolist()):
        with mpmath.workprec(133):
            rc, rs = _e_exact(ki / 1024)
        assert (ci, si) == (float(rc), float(rs)), ki


def test_cis_turns_is_exact_at_the_quarter_turns():
    f = np.array([0.0, 0.25, 0.5, 0.75, 1.0, -0.25, -0.5, 7.75, 2.0 ** 40 + 0.5])
    c, s = nu.cis_turns(f)
    want_c = np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0])
    want_s = np.array([0.0, 1.0, 0.0, -1.0, 0.0, -1.0, 0.0, -1.0, 0.0])
    # to the bit: no zero here is -0
    assert c.tobytes() == want_c.tobytes() and s.tobytes() == want_s.tobytes()


def test_cis_turns_against_40_digit_mpmath_on_random_turns():
    u = np.random.default_rng(2026).random(100_000)
    assert _cis_error(u) <= CIS_BOUND


def test_cis_turns_against_40_digit_mpmath_on_edge_cases():
    nodes = np.arange(1024.0) / 1024
    f = np.concatenate([
        [0.0, -0.0, -1e-20, -5e-324, -2.0 ** -60, 1.0 - 2.0 ** -53, 5e-324, 2.0 ** 52 + 0.5,
         -1e15 + 0.3, 123456.789, 1e300],
        np.nextafter(nodes, -1.0), np.nextafter(nodes, 2.0),   # k/1024 -+ 1 ulp
        nodes + 0.5 / 1024,                                    # ties of rint(1024 u)
        -np.random.default_rng(5).random(500) * 10.0 ** -(np.arange(500) % 20),
        [-8.282895112153623e-16],       # 1 + f rounds: a small negative f
    ])
    assert _cis_error(f) <= CIS_BOUND


def test_cis_turns_is_elementwise():
    # a 0-d input and any slice give the bits of the whole array
    rng = np.random.default_rng(3)
    f = np.concatenate([rng.uniform(-1e6, 1e6, 500), [0.0, -0.0, -1e-20, 0.5, 2.0 ** 53]])
    c, s = nu.cis_turns(f)
    c7, s7 = nu.cis_turns(f[7:300])
    assert c7.tobytes() == c[7:300].tobytes() and s7.tobytes() == s[7:300].tobytes()
    # an array of several blocks, against slices that cut across them
    big = rng.uniform(-1e6, 1e6, 3 * nu.CHUNK + 4)
    cb, sb = nu.cis_turns(big.reshape(-1, 5))
    parts = [nu.cis_turns(big[i:i + 1000]) for i in range(0, big.size, 1000)]
    assert cb.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
    assert sb.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
    for i, fi in enumerate(f.tolist()):
        for arg in (fi, np.float64(fi), np.asarray(fi)):
            ci, si = nu.cis_turns(arg)
            assert np.ndim(ci) == np.ndim(si) == 0
            assert (ci.tobytes(), si.tobytes()) == (c[i].tobytes(), s[i].tobytes()), fi


def test_amplitude_e_against_40_digit_mpmath():
    # each part within 2^-52 |g| of g e(t) at the float t, g and t of either
    # sign, large and tiny, the scalar path and the array path alike
    rng = np.random.default_rng(41)
    t = np.concatenate([rng.uniform(-1e6, 1e6, 300),
                        rng.uniform(-1.0, 1.0, 300) * 10.0 ** rng.uniform(-20, 17, 300),
                        [0.0, -0.0, -1e-20, 0.25, 0.5, -0.75, 2.0 ** 52 + 0.5, 2.0 ** 53, 1e308]])
    g = rng.uniform(-3.0, 3.0, t.size) * 10.0 ** rng.uniform(-5, 5, t.size)
    got = nu.amplitude_e(g, t)
    with mpmath.workprec(133):
        for gi, ti, zi in zip(g.tolist(), t.tolist(), got.tolist()):
            rc, rs = _e_exact(ti)
            for z in (zi, complex(nu.amplitude_e(gi, ti))):
                assert abs(z.real - gi * rc) <= 2.0 ** -52 * abs(gi), (gi, ti)
                assert abs(z.imag - gi * rs) <= 2.0 ** -52 * abs(gi), (gi, ti)


def test_cis_turns_of_a_non_finite_phase_is_nan_without_a_cast():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c, s = nu.cis_turns(np.array([np.inf, -np.inf, np.nan, 0.25]))
    assert np.isnan(c[:3]).all() and np.isnan(s[:3]).all() and (c[3], s[3]) == (0.0, 1.0)
    # inf - floor(inf) is numpy's own invalid operation; no cast of a nan to an index
    assert {str(w.message) for w in caught} <= {"invalid value encountered in subtract"}


# ---------------------------------------------------------------------------
# sawtooth functions
# ---------------------------------------------------------------------------

def test_sawtooth_examples():
    assert nu.sawtooth_psi(0.25) == pytest.approx(-0.25)
    assert nu.sawtooth_psi(5.0) == 0.0
    assert nu.sawtooth_psi(-1.75) == pytest.approx(-0.25)


@given(st.floats(-1e6, 1e6))
def test_sawtooth_periodicity(x):
    if (x + 1.0) - 1.0 != x:  # only when the float shift is exact
        return
    assert nu.sawtooth_psi(x + 1.0) == pytest.approx(nu.sawtooth_psi(x), abs=1e-9)


# ---------------------------------------------------------------------------
# reduction mod 1
# ---------------------------------------------------------------------------

MOD1_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-20, -1e-20, 0.5, -0.5, 1.0 - 2.0 ** -53,
              -(1.0 - 2.0 ** -53), 1.0, -1.0, 3.0, -3.0, 7.0, -7.0, 2.0 ** 52 + 0.5,
              -(2.0 ** 52 + 0.5), 2.0 ** 53, -(2.0 ** 53), 1e18, -1e18, 1e308, -1e308,
              math.inf, -math.inf, math.nan]
any_floats = st.lists(st.floats() | st.sampled_from(MOD1_EDGES), min_size=1, max_size=40)


def _same_bits(x, y):
    """Equal float arrays bit for bit, any nan matching any nan."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nan = np.isnan(x)
    return (np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64)))


def _old_phase(fx, x, r):
    # the dual-side reduction through libm's fmod and numpy's remainder
    return (np.fmod(fx, 1.0) - np.fmod(r * x, 1.0)) % 1.0


def test_mod1_is_remainder_by_one_on_the_edge_cases():
    y = np.array(MOD1_EDGES)
    with np.errstate(invalid="ignore"):
        assert _same_bits(nu.mod1(y), np.remainder(y, 1.0))
        assert nu.mod1(-1e-20) == 1.0 and math.isnan(nu.mod1(math.inf))
        for v in MOD1_EDGES:  # a Python float gives a float of the same bits
            got = nu.mod1(v)
            assert isinstance(got, float) and _same_bits(got, v % 1.0)


@settings(max_examples=300)
@given(any_floats)
def test_mod1_is_remainder_by_one(ys):
    y = np.array(ys)
    with np.errstate(invalid="ignore"):
        assert _same_bits(nu.mod1(y), np.remainder(y, 1.0))


@settings(max_examples=300)
@given(any_floats)
def test_trunc_remainder_is_fmod_up_to_the_sign_of_zero(ys):
    y = np.array(ys)
    with np.errstate(invalid="ignore"):
        got, want = y - np.trunc(y), np.fmod(y, 1.0)
    assert _same_bits(got + 0.0, want + 0.0)  # -0 + 0 is +0
    assert _same_bits(got[got != 0.0], want[got != 0.0])


def test_dual_phase_reduction_equals_the_fmod_formula_at_negative_integers():
    fx = np.array([-3.0, -3.0, 2.0, -0.0, -5.0, -1e18, 0.25, -2.0 ** 52 - 0.5, 1e308])
    x = np.array([2.0, 0.5, -1.5, 3.0, -0.0, 1.0, -7.0, 0.75, 1e10])
    for r in (-4.0, -1.0, 0.0, 1.0, 3.0):
        with np.errstate(invalid="ignore", over="ignore"):
            assert _same_bits(_phase_f_minus_rx(fx, x, r), _old_phase(fx, x, r))
            for f, xx in zip(fx.tolist(), x.tolist()):
                assert _same_bits(_phase_f_minus_rx(f, xx, r), _old_phase(f, xx, r))


@settings(max_examples=300)
@given(any_floats, any_floats, st.integers(-10 ** 6, 10 ** 6))
def test_dual_phase_reduction_equals_the_fmod_formula(fxs, xs, r):
    n = min(len(fxs), len(xs))
    fx, x = np.array(fxs[:n]), np.array(xs[:n])
    with np.errstate(invalid="ignore", over="ignore"):
        assert _same_bits(_phase_f_minus_rx(fx, x, float(r)), _old_phase(fx, x, float(r)))
        # where f(x) and r x are integers: a zero difference of either sign
        fi, xi = np.round(fx * 1e3), np.round(x)
        assert _same_bits(_phase_f_minus_rx(fi, xi, float(r)), _old_phase(fi, xi, float(r)))


# ---------------------------------------------------------------------------
# correctly rounded summation
# ---------------------------------------------------------------------------

def test_accumulator_contract():
    rng = np.random.default_rng(1)
    zs = np.exp(2j * np.pi * rng.random(20000))
    exact = complex(math.fsum(zs.real), math.fsum(zs.imag))
    assert nu.csum(zs) == exact
    assert nu.csum([complex(z) for z in zs]) == exact
    assert nu.csum(zs[::-1]) == exact  # correctly rounded, so order-free
    assert nu.csum([]) == 0j
    # several extraction chunks, the last one short
    zs = np.sqrt(rng.random(200_003)) * np.exp(2j * np.pi * rng.random(200_003))
    assert nu.csum(zs) == complex(math.fsum(zs.real), math.fsum(zs.imag))


# ---------------------------------------------------------------------------
# the modified sawtooth
# ---------------------------------------------------------------------------

U = 2.0 ** -53


def psi_reference(x: float, eps: float) -> complex:
    """psi(x, eps) from its closed form in mpmath, with 40 digits beyond the
    2 digits(1/|eps|) that the cancellation of cot b - 1/b costs at tiny eps."""
    if eps == 0.0:
        return complex(nu.sawtooth_psi(x))
    digits = len(str(int(1 / abs(mpmath.mpf(eps)))))
    with mpmath.workdps(40 + 2 * digits):
        t = mpmath.mpf(x) - mpmath.floor(x)
        b = mpmath.pi * eps
        if t == 0:
            return complex(0.0, float((mpmath.cot(b) - 1 / b) / 2))
        return complex(0.5j * (mpmath.expj(b * (1 - 2 * t)) / mpmath.sin(b) - 1 / b))


def assert_close_to_reference(x: float, eps: float) -> None:
    got = nu.modified_sawtooth(x, eps)
    assert math.isfinite(got.real) and math.isfinite(got.imag), (x, eps)
    want = psi_reference(x, eps)
    err = abs(got - want)
    if abs(want) < 2.2250738585072014e-308:
        assert err <= 1e-300, (x, eps, got, want)
    else:
        assert err <= 8 * U * max(abs(want), abs(eps)), (x, eps, got, want, err)


PSI_EPS = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-9, -1e-9, 2.0 ** -20, -2.0 ** -20,
           3.4e-3, -3.4e-3, 1e-2, -1e-2, 0.3, -0.3, 0.5, -0.5]
PSI_X = [3.0 + 1e-15, -7.0 - 1e-15, 2.0 + 1e-9, 5.0 - 3.7e-3, 0.01, 0.1, -0.25, 0.3, 0.5,
         -0.5, 0.7, 0.99, 0.0, 5.0, -7.0, 1e12, 1e12 + 0.5, 123456789012.375, -987654321.0625]


@pytest.mark.parametrize("eps", PSI_EPS)
def test_modified_sawtooth_against_mpmath(eps):
    for x in PSI_X:
        assert_close_to_reference(x, eps)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-1e12, 1e12),
                 st.builds(lambda n, t: n + t, st.integers(-10 ** 6, 10 ** 6),
                           st.floats(1e-15, 0.5) | st.floats(-0.5, -1e-15))),
       st.one_of(st.sampled_from(PSI_EPS), st.floats(-0.5, 0.5),
                 st.builds(lambda m, p: m * 10.0 ** p, st.floats(-1.0, 1.0),
                           st.floats(-323.0, 0.0)).filter(lambda e: abs(e) <= 0.5)))
def test_modified_sawtooth_property_against_mpmath(x, eps):
    assert_close_to_reference(x, eps)


def test_modified_sawtooth_is_continuous_at_eps_zero():
    # psi(x, 0) is psi(x) by definition; the general branch must tend to it
    for x in PSI_X + [0.25, 17.75, -3.125]:
        for eps in (1e-12, -1e-12):
            assert abs(nu.modified_sawtooth(x, eps) - nu.sawtooth_psi(x)) <= 1e-11, (x, eps)


def test_modified_sawtooth_reduces_to_sawtooth():
    v = nu.modified_sawtooth(0.25, 0.0)
    assert abs(v - (-0.25)) <= 1e-6
    assert abs(v.imag) <= 1e-12


def test_modified_sawtooth_integer_x_closed_form():
    # at integer x the bilateral series telescopes to pi cot(pi e) - 1/e
    eps = 0.25
    want = -(1.0 / (2j * math.pi)) * (math.pi / math.tan(math.pi * eps) - 1.0 / eps)
    got = nu.modified_sawtooth(3.0, eps)
    assert abs(got - want) <= 1e-8


@pytest.mark.parametrize("eps", [2.0 ** -20, -2.0 ** -20, 1e-3, -1e-3, 0.1, 0.25, -0.25,
                                 0.5, -0.5])
def test_integer_x_partial_sum_against_mpmath(eps):
    # the grid reference at integer x: -(eps/pi) sum_{k<=r} 1/(k^2 - eps^2) by
    # 40-digit digamma differences; at tiny eps a float64 digamma telescope
    # loses about 1e-9 to cancellation
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        for r in [1, 8, 32, 33, 10 ** 2, 10 ** 3, 10 ** 5, 10 ** 6]:
            s = (mpmath.digamma(r + 1 - e) - mpmath.digamma(1 - e)
                 - mpmath.digamma(r + 1 + e) + mpmath.digamma(1 + e)) / (2 * e)
            want = float(-e * s / mpmath.pi)
            got = modified_sawtooth_grid(np.array([5.0]), np.array([eps]), r)[0, 0]
            assert got.real == 0.0
            assert abs(got.imag - want) <= 1e-14 * abs(want), (eps, r)


def test_modified_sawtooth_extreme_truncation_oracle():
    # brute-force partial sum at R = 1e7 as the oracle
    x, eps = 0.3, 0.5
    oracle = modified_sawtooth_grid(np.array([x]), np.array([eps]), 10 ** 7)[0, 0]
    got = nu.modified_sawtooth(x, eps)
    assert abs(got - oracle) <= 1e-5


@pytest.mark.parametrize("r", [7, 100, 1000, 65536, 2 ** 20])
def test_partial_sum_evaluator_matches_brute_force(r):
    # the paired grid reference against the bilateral sum term by term
    rng = np.random.default_rng(r)
    k = np.concatenate([np.arange(-r, 0), np.arange(1, r + 1)]).astype(float)
    for _ in range(4):
        x = float(rng.uniform(-2, 2))
        if abs(x - round(x)) < 1e-4:
            continue
        eps = float(rng.uniform(-0.5, 0.5))
        fast = modified_sawtooth_grid(np.array([x]), np.array([eps]), r)[0, 0]
        brute = np.sum(nu.amplitude_e(1.0 / (k + eps), k * x)) / -(2j * math.pi)
        assert abs(fast - brute) <= 1e-11


def test_grid_reference_converges_to_the_closed_form():
    # the truncated series approaches the closed form like 1 / (R ||x||*):
    # off the integers the scaled distance measured at most 0.074; at an
    # integer x the tail (eps/pi) sum_{k>R} 1/(k^2 - eps^2) is below 1/(2 pi R)
    xs = np.concatenate([np.linspace(0.003, 0.997, 25), [0.0, 7.0, 7.25, -3.6]])
    epss = np.linspace(-0.5, 0.5, 11)
    exact = np.array([[nu.modified_sawtooth(float(x), float(e)) for e in epss] for x in xs])
    dstar = np.array([dist_to_nearest_star(float(x)) for x in xs])[:, None]
    integral = (xs == np.round(xs))[:, None]
    for r in (256, 1024, 4096, 16384):
        scaled = np.abs(modified_sawtooth_grid(xs, epss, r) - exact) * r * dstar
        assert float(np.max(scaled, where=~integral, initial=0.0)) <= 0.08, r
        assert float(np.max(scaled, where=integral, initial=0.0)) <= 1.0 / (2.0 * math.pi), r


def test_uniform_bound_on_grid():
    # |psi(x, eps)| stays under one constant across a coarse grid
    xs = np.linspace(0.013, 0.987, 40)
    epss = np.linspace(-0.5, 0.5, 21)
    vals = modified_sawtooth_grid(xs, epss, 4096)
    assert float(np.max(np.abs(vals))) < 1.0


def test_grid_evaluator_matches_pointwise():
    xs = np.array([0.05, 0.37, 0.71])
    epss = np.array([-0.4, 0.0, 0.25])
    r = 2048
    grid = modified_sawtooth_grid(xs, epss, r)
    for i, x in enumerate(xs):
        for j, eps in enumerate(epss):
            want = nu.modified_sawtooth(float(x), float(eps))
            assert abs(grid[i, j] - want) <= 0.08 / (r * dist_to_nearest_star(float(x)))


def test_modified_sawtooth_validation():
    with pytest.raises(ValueError):
        nu.modified_sawtooth(0.3, 0.7)
    with pytest.raises(ValueError):
        nu.modified_sawtooth(0.3, math.nan)
    with pytest.raises(ValueError):
        nu.modified_sawtooth(math.inf, 0.0)


def test_edge_eps_half_never_divides_by_zero():
    # |r + eps| >= 1/2 for integer r != 0 and |eps| <= 1/2, so the tie is safe
    v = nu.modified_sawtooth(0.37, -0.5)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_csum_keeps_ieee_results_for_non_finite_parts():
    # math.fsum raises on inf + -inf; csum returns the plain IEEE sum instead
    z = nu.csum([complex(math.inf, 1.0), complex(-math.inf, 2.0)])
    assert math.isnan(z.real) and z.imag == 3.0
    assert nu.csum([complex(math.inf, 0.0), 1.0]) == complex(math.inf, 0.0)
    # the same past the extraction threshold, the finite part still exact
    x = np.linspace(1.0, 2.0, 5000)
    for bad in (math.inf, -math.inf, math.nan):
        y = x.copy()
        y[2500] = bad
        z = nu.csum(y + 1j * x)
        assert z.imag == math.fsum(x.tolist()) and z.real.hex() == sum(y.tolist()).hex()
    y[0], y[-1] = math.inf, -math.inf
    assert math.isnan(nu.csum(y).real)


def _bits(z: complex):
    """The real and imaginary parts as exact bit patterns, zero signs included."""
    return (z.real.hex(), math.copysign(1.0, z.real), z.imag.hex(), math.copysign(1.0, z.imag))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 20_000), seed=st.integers(0, 2 ** 32 - 1),
       lo=st.integers(-300, 300), span=st.integers(0, 600),
       subnormal=st.floats(0.0, 0.2), cancel=st.floats(0.0, 1.0),
       extra=st.lists(st.floats(-1e300, 1e300), max_size=8))
def test_csum_is_fsum_bit_for_bit(n, seed, lo, span, subnormal, cancel, extra):
    # values of magnitude 1e-300 to 1e300 with random signs, some subnormal,
    # and a share of them followed by their own negative, so that whole
    # levels cancel exactly; sizes cross the extraction threshold
    rng = np.random.default_rng(seed)
    hi = min(lo + span, 300)

    def part():
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
        tiny = rng.random(n) < subnormal
        x[tiny] = rng.integers(-2 ** 40, 2 ** 40, int(tiny.sum())) * 5e-324
        k = int(cancel * n) // 2
        x[n - 2 * k:n - k] = -x[:k]
        x[n - k:] = x[k:2 * k]
        return np.concatenate([x, extra])

    re, im = part(), part()
    for z in (re + 1j * im, im - 1j * re, np.concatenate([re, -re]) + 0j):
        want = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
        assert _bits(nu.csum(z)) == _bits(want)


def test_sign_change_roots_bisect_to_the_float_limit():
    xs = np.linspace(1.0, 30.0, 200)
    roots = np.array(single_roots(np.sin, xs, np.sin(xs)))
    want = np.arange(1, 10) * math.pi
    assert roots.shape == want.shape
    assert np.all(np.abs(roots - want) <= 4 * np.spacing(want))
    # a zero sample ends no bracket: the gaps on both sides of x = 2 are
    # skipped, and only the sign change in [3, 4] is bisected
    fn = lambda x: (x - 2.0) * (x - 3.5)
    xs = np.arange(5.0)
    assert single_roots(fn, xs, fn(xs)) == [3.5]


def test_sign_change_roots_reach_the_float_limit_past_80_halvings():
    # x - 1e-6 on [0, 1e9] needs about 102 halvings: the old 80-halving cap
    # stopped on a bracket 8.3e-16 wide, some 4 000 ulps of the root
    fn = lambda x: x - 1e-6
    xs = np.array([0.0, 1e9])
    (got,) = single_roots(fn, xs, fn(xs))
    assert got in (1e-6, math.nextafter(1e-6, 0.0))
    (old,) = bisected_roots(fn, xs, fn(xs))
    assert abs(old - 1e-6) > 1000 * math.ulp(1e-6)
    # a subnormal root in a gap across 0 takes over 1 000 halvings
    for root in (3e-320, -5e-324, 2.0 ** -1022):
        fn = lambda x, r=root: x - r
        xs = np.array([-1.0, 1.0])
        (got,) = single_roots(fn, xs, fn(xs))
        assert got in (root, math.nextafter(root, -1.0))
    # from the largest floats down to the smallest: some 2 100 halvings
    xs = np.array([-1e300, 1e308])
    (got,) = single_roots(lambda x: x, xs, xs)
    assert got == 0.0


def _shape(kind, scale):
    """A strictly increasing function of d whose sign is d's, on the float
    d = (x - root) / scale, so that its one sign change is at the root."""
    return {
        "linear": lambda d: d,
        "cubic-term": lambda d: d * (1.0 + 7.0 * d * d),
        "expm1": lambda d: np.expm1(3.0 * d),
        "tanh": lambda d: np.tanh(40.0 * d),
        "cbrt": np.cbrt,
        "triple": lambda d: d * d * d,
    }[kind]


_roots = st.one_of(
    st.floats(-1e-300, 1e-300),                                   # near 0, subnormals too
    st.builds(lambda e, k, s: s * math.ldexp(1.0 + k * 2.0 ** -52, e),  # binade edges
              st.integers(-1020, 990), st.integers(-3, 3), st.sampled_from([-1.0, 1.0])),
    st.builds(lambda e, m, s: s * m * 10.0 ** e,                  # 1e-300 ... 1e300
              st.integers(-300, 299), st.floats(1.0, 9.999), st.sampled_from([-1.0, 1.0])),
)


@settings(max_examples=400, deadline=None)
@given(_roots, st.integers(1, 60), st.integers(1, 60),
       st.sampled_from(["linear", "cubic-term", "expm1", "tanh", "cbrt", "triple"]),
       st.sampled_from([1.0, -1.0]), st.sampled_from(["finite", "nan", "inf"]))
def test_sign_change_roots_are_the_bisections_bit_for_bit(root, left, right, kind, sign, ends):
    # strictly monotone functions with one sign change, at root, in the gap
    # [root - 2^left ulps, root + 2^right ulps]: the root and the last bracket
    # are the verbatim old bisection's, in no more steps than it took.  nan
    # counts as nonnegative, and nan or infinite values far from the root
    # (at the ends and beyond) change nothing
    ulp = math.ulp(root) or 5e-324
    lo, hi = root - ulp * 2.0 ** left, root + ulp * 2.0 ** right
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < root < hi):
        return
    scale = max(root - lo, hi - root)
    shape = _shape(kind, scale)

    def fn(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            v = sign * shape((x - root) / scale)
        far = np.abs(x - root) > 0.75 * scale
        if ends == "nan":
            v = np.where(far & (v >= 0), np.nan, v)
        elif ends == "inf":
            v = np.where(far, np.copysign(np.inf, v), v)
        return v

    xs = np.array([lo, hi])
    vals = fn(xs)
    calls = []

    def counted(x):
        calls.append(x.size)
        return fn(x)

    got = single_roots(counted, xs, vals)
    if (vals[0] < 0) == (vals[1] < 0) or 0.0 in vals:
        assert got == [] and calls == []
        return
    s = 1.0 if vals[0] < 0 else -1.0
    ref_calls = []

    def ref_counted(x):
        ref_calls.append(x.size)
        return s * fn(x)

    ref_lo, ref_hi = bisect(ref_counted, xs[:1], xs[1:])
    mid = 0.5 * (ref_lo + ref_hi)
    assert mid[0] in (ref_lo[0], ref_hi[0])   # the old bisection reached the float limit
    (want,) = bisected_roots(fn, xs, vals)
    assert got == [want] and math.copysign(1.0, got[0]) == math.copysign(1.0, want)
    assert len(calls) <= len(ref_calls)


def test_sign_change_roots_batch_equals_one_gap_at_a_time():
    # components and rows go through one loop; each gap's root is the one it
    # gets alone, and each row keeps its own
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(-3.0, 3.0, (3, 64)), axis=1)

    def fn(x):
        # no root at 0, where 80 halvings end short of the float limit
        return np.array([np.sin(5.0 * x + 0.3), np.cos(3.0 * x) ** 3 - 0.1, x ** 3 - x - 0.2])

    vals = fn(xs.ravel()).reshape(3, *xs.shape)
    use = np.array([[True, True, False], [True, False, True], [True, True, True]])
    got = nu.sign_change_roots(lambda x, parts: [fn(x[s])[c] for c, s in enumerate(parts)],
                               xs, vals, use)
    for c in range(3):
        for r in range(3):
            one = single_roots(lambda x: fn(x)[c], xs[r], vals[c, r])
            assert got[c][r] == (one if use[c, r] else [])
            if use[c, r]:
                assert one == bisected_roots(lambda x: fn(x)[c], xs[r], vals[c, r])
    assert sum(map(len, got[0])) > 10


def _component(kind, seed):
    """A function of x on [1, 7] with sign changes for the refinement to find:
    a smooth one, or one whose sign flips 5 times within 40 ulps of a point
    (as W' does at input 17 of the budget goldens) and is x - x0 elsewhere."""
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        w, p = rng.uniform(0.5, 9.0), rng.uniform(0.0, 6.3)
        return lambda x: np.sin(w * x + p) + 0.2
    x0 = rng.uniform(1.5, 6.5)
    u = math.ulp(x0)
    flips = np.sort(rng.choice(np.arange(-20, 21), 5, replace=False))

    def fn(x):
        k = np.round((x - x0) / u)
        sign = np.where((k[:, None] >= flips).sum(axis=1) % 2 == 0, -1.0, 1.0)
        return np.where(np.abs(k) <= 20, sign * (1.0 + np.abs(k)), x - x0)
    return fn


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["smooth", "flips"]), st.integers(0, 2 ** 32 - 1)),
                min_size=1, max_size=4),
       st.integers(1, 3), st.integers(2, 48), st.integers(0, 2 ** 32 - 1))
def test_the_refinement_is_each_components_bisection(specs, rows, n, seed):
    # random layouts of components, scan rows and use flags: every root is
    # the one the bisection of its component alone finds, bit for bit, and
    # each component is computed only at the points of its own brackets
    rng = np.random.default_rng(seed)
    comps = [_component(kind, s) for kind, s in specs]
    k = len(comps)
    xs = np.sort(rng.uniform(1.0, 7.0, (rows, n)), axis=1)
    xs[:, 0], xs[:, -1] = 1.0, 7.0  # so a gap of every row straddles each x0
    vals = np.array([fn(xs.ravel()).reshape(rows, n) for fn in comps])
    use = rng.random((k, rows)) < 0.8
    seen = [[] for _ in range(k)]

    def fn(x, parts):
        assert len(parts) == k and sum(s.stop - s.start for s in parts) == x.size
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        for c, s in enumerate(parts):
            seen[c].append(x[s])
        return [comps[c](x[s]) for c, s in enumerate(parts)]

    got = nu.sign_change_roots(fn, xs, vals, use)
    for c in range(k):
        for r in range(rows):
            want = bisected_roots(comps[c], xs[r], vals[c, r]) if use[c, r] else []
            assert got[c][r] == want
        # each point computed for c lies strictly inside a gap of c that is
        # bisected: one whose ends differ in sign, neither zero, in a used row
        pts = np.concatenate(seen[c]) if seen[c] else np.empty(0)
        neg = vals[c] < 0
        gaps = [(xs[r, i], xs[r, i + 1]) for r in range(rows) if use[c, r]
                for i in range(n - 1) if neg[r, i] != neg[r, i + 1]
                and vals[c, r, i] != 0.0 and vals[c, r, i + 1] != 0.0]
        assert all(any(a < p < b for a, b in gaps) for p in pts.tolist())
