import cmath
import io
import math

import numpy as np
import pytest

from vdcorput.expsum import curve_samples, direct_starred_sum, write_curve_csv
from vdcorput.numutil import csum, is_integer_like
from vdcorput.phase import PhaseAmplitudeModel, builtin_family


def direct_starred_sum_unreduced(model, a, b):
    """Reference path without phase reduction (valid only for small f)."""
    n_lo, n_hi = math.ceil(a), math.floor(b)
    ws = []
    for n in range(n_lo, n_hi + 1):
        w = float(model.g(n)) * complex(math.cos(2 * math.pi * float(model.f(n))),
                                        math.sin(2 * math.pi * float(model.f(n))))
        if n == n_lo and is_integer_like(a):
            w *= 0.5
        if n == n_hi and is_integer_like(b):
            w *= 0.5
        ws.append(w)
    return csum(ws)


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
    return PhaseAmplitudeModel(f=zero, f1=zero, f2=one, f3=zero, f4=zero,
                               g=one, g1=zero, g2=zero, g3=zero,
                               domain=(-1e6, 1e6), name="flat")


def e(x):
    return cmath.exp(2j * math.pi * x)


def test_starred_count():
    assert direct_starred_sum(flat_model(), 0.0, 2.0) == pytest.approx(2.0)
    assert direct_starred_sum(flat_model(), -0.5, 2.5) == pytest.approx(3.0)


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
