import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdcorput import numutil as nu

from helpers import modified_sawtooth_grid


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
    assert nu.dist_to_nearest_star(2.4) == pytest.approx(0.4)
    assert nu.dist_to_nearest_star(7.0) == 1.0


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


@pytest.mark.parametrize("t", [0.0, -0.0, 0.125, -0.125, 0.5, -1e-20, 1.0 - 2.0 ** -53,
                               3.7, -3.7, 2.0 ** 52 + 0.5, -1e15 + 0.3, 123456.789])
def test_amplitude_e_on_a_scalar_has_the_bits_of_np_exp(t):
    want = np.exp(2j * np.pi * np.mod(t, 1.0))
    for arg in (t, np.float64(t), np.asarray(t)):
        got = nu.amplitude_e(1.0, arg)
        assert isinstance(got, np.complex128)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


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


# ---------------------------------------------------------------------------
# the modified sawtooth
# ---------------------------------------------------------------------------

def test_modified_sawtooth_reduces_to_sawtooth():
    v = nu.modified_sawtooth(0.25, 0.0, 1e-6)
    assert abs(v - (-0.25)) <= 1e-6
    assert abs(v.imag) <= 1e-12


def test_modified_sawtooth_integer_x_closed_form():
    # at integer x the bilateral series telescopes to pi cot(pi e) - 1/e
    eps = 0.25
    want = -(1.0 / (2j * math.pi)) * (math.pi / math.tan(math.pi * eps) - 1.0 / eps)
    got = nu.modified_sawtooth(3.0, eps, 1e-8)
    assert abs(got - want) <= 1e-8
    # consistency between truncations R and 2R
    r = 4096
    a = nu.modified_sawtooth_partial(3.0, eps, r)
    b = nu.modified_sawtooth_partial(3.0, eps, 2 * r)
    assert abs(a - b) <= nu.psi_tail_bound(r, 3.0)


@pytest.mark.parametrize("eps", [2.0 ** -20, -2.0 ** -20, 1e-3, -1e-3, 0.1, 0.25, -0.25,
                                 0.5, -0.5])
def test_integer_x_partial_sum_against_mpmath(eps):
    # -(eps/pi) sum_{k<=r} 1/(k^2 - eps^2) by 40-digit digamma differences;
    # at tiny eps a float64 digamma telescope loses about 1e-9 to cancellation
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        for r in [1, 8, 32, 33, 10 ** 2, 10 ** 3, 10 ** 6, 10 ** 8, 10 ** 9, 2 ** 34]:
            s = (mpmath.digamma(r + 1 - e) - mpmath.digamma(1 - e)
                 - mpmath.digamma(r + 1 + e) + mpmath.digamma(1 + e)) / (2 * e)
            want = float(-e * s / mpmath.pi)
            got = nu.modified_sawtooth_partial(5.0, eps, r)
            assert got.real == 0.0
            assert abs(got.imag - want) <= 1e-14 * abs(want), (eps, r)


def test_modified_sawtooth_extreme_truncation_oracle():
    # brute-force partial sum at R = 1e7 as the oracle
    x, eps = 0.3, 0.5
    oracle = nu._psi_partial_direct(x, eps, 1, 10 ** 7)
    got = nu.modified_sawtooth(x, eps, 1e-6)
    assert abs(got - oracle) <= 1e-5


@pytest.mark.parametrize("r", [7, 100, 1000, 65536, 2 ** 20])
def test_partial_sum_evaluator_matches_brute_force(r):
    rng = np.random.default_rng(r)
    for _ in range(4):
        x = float(rng.uniform(-2, 2))
        if abs(x - round(x)) < 1e-4:
            continue
        eps = float(rng.uniform(-0.5, 0.5))
        fast = nu.modified_sawtooth_partial(x, eps, r)
        brute = nu._psi_partial_direct(x - math.floor(x), eps, 1, r)
        assert abs(fast - brute) <= 1e-11


def test_truncation_pair_bound():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = float(rng.uniform(0, 1))
        if nu.dist_to_nearest_star(x) < 1e-3:
            continue
        eps = float(rng.uniform(-0.5, 0.5))
        for r in (128, 2048):
            a = nu.modified_sawtooth_partial(x, eps, r)
            b = nu.modified_sawtooth_partial(x, eps, 2 * r)
            assert abs(a - b) <= 2 * nu.psi_tail_bound(r, x)


def test_tail_constant_is_measured_not_assumed():
    # the stored constant must dominate a fresh measurement of
    # |partial(R) - limit| / min(1, 1/(R ||x||*)) over a sample grid
    rng = np.random.default_rng(11)
    r_ref = 1 << 22
    worst = 0.0
    for _ in range(20):
        x = float(rng.uniform(0.002, 0.998))
        eps = float(rng.uniform(-0.5, 0.5))
        ref = nu.modified_sawtooth_partial(x, eps, r_ref)
        for r in (64, 512, 4096):
            diff = abs(nu.modified_sawtooth_partial(x, eps, r) - ref)
            worst = max(worst, diff / min(1.0, 1.0 / (r * nu.dist_to_nearest_star(x))))
    for eps in (-0.41, 0.17, 0.5):
        ref = nu.modified_sawtooth_partial(9.0, eps, r_ref)
        for r in (64, 512, 4096):
            diff = abs(nu.modified_sawtooth_partial(9.0, eps, r) - ref)
            worst = max(worst, diff / min(1.0, 1.0 / r))
    assert worst <= nu.TAIL_CONSTANT


def test_uniform_bound_on_grid():
    # |psi(x, eps)| stays under one constant across a coarse grid
    xs = np.linspace(0.013, 0.987, 40)
    epss = np.linspace(-0.5, 0.5, 21)
    vals = modified_sawtooth_grid(xs, epss, 4096)
    assert float(np.max(np.abs(vals))) < 1.0


def test_grid_evaluator_matches_pointwise():
    xs = np.array([0.05, 0.37, 0.71])
    epss = np.array([-0.4, 0.0, 0.25])
    grid = modified_sawtooth_grid(xs, epss, 2048)
    for i, x in enumerate(xs):
        for j, eps in enumerate(epss):
            want = nu.modified_sawtooth_partial(float(x), float(eps), 2048)
            assert abs(grid[i, j] - want) <= 1e-12


def test_accuracy_error_reports_achievable_bound():
    with pytest.raises(nu.TailAccuracyError) as exc:
        nu.modified_sawtooth(0.5 + 1e-7, 0.0, 1e-12)
    err = exc.value
    assert err.r_needed > err.r_cap == nu.DEFAULT_MAX_R
    assert err.achievable == nu.psi_tail_bound(nu.DEFAULT_MAX_R, 0.5 + 1e-7) > 0


def test_modified_sawtooth_validation():
    with pytest.raises(ValueError):
        nu.modified_sawtooth(0.3, 0.7, 1e-6)
    with pytest.raises(ValueError):
        nu.modified_sawtooth(0.3, 0.0, -1.0)
    with pytest.raises(ValueError):
        nu.modified_sawtooth(math.inf, 0.0, 1e-6)


def test_edge_eps_half_never_divides_by_zero():
    # |r + eps| >= 1/2 for integer r != 0 and |eps| <= 1/2, so the tie is safe
    v = nu.modified_sawtooth(0.37, -0.5, 1e-8)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_csum_keeps_ieee_results_for_non_finite_parts():
    # math.fsum raises on inf + -inf; csum returns the plain IEEE sum instead
    z = nu.csum([complex(math.inf, 1.0), complex(-math.inf, 2.0)])
    assert math.isnan(z.real) and z.imag == 3.0
    assert nu.csum([complex(math.inf, 0.0), 1.0]) == complex(math.inf, 0.0)


def test_sign_change_roots_bisect_to_the_float_limit():
    xs = np.linspace(1.0, 30.0, 200)
    roots = np.array(nu.sign_change_roots(np.sin, xs, np.sin(xs)))
    want = np.arange(1, 10) * math.pi
    assert roots.shape == want.shape
    assert np.all(np.abs(roots - want) <= 4 * np.spacing(want))
    # a zero sample ends no bracket: the gaps on both sides of x = 2 are
    # skipped, and only the sign change in [3, 4] is bisected
    fn = lambda x: (x - 2.0) * (x - 3.5)
    xs = np.arange(5.0)
    assert nu.sign_change_roots(fn, xs, fn(xs)) == [3.5]
