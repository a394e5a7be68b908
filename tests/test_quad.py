import cmath
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from vdcorput import quad
from vdcorput.numutil import amplitude_e, cis_turns
from vdcorput.phase import builtin_family, family_model, invert_fprime
from vdcorput.quad import oscillatory_integral, panel_integral

from helpers import (bare_model, derivative_test_bounds, fresnel_modified, gauss_kronrod,
                     phase_pieces_by_level, presplit_reference, stationary_phase_estimate)
from test_quad_golden import POISSON_OP

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))


def test_trivial_integrals():
    flat = bare_model(lambda x: 0.0 * np.asarray(x, dtype=float), np.zeros_like, ONE)
    r = oscillatory_integral(flat, 0.0, 0.0, 1.0, 1e-12)
    assert r.value == pytest.approx(1.0, abs=1e-12)
    # a full period of e(-x) integrates to zero
    falling = bare_model(lambda x: -np.asarray(x, dtype=float),
                         lambda x: np.full_like(x, -1.0), ONE)
    r = oscillatory_integral(falling, 0.0, 0.0, 1.0, 1e-12)
    assert abs(r.value) <= 1e-12


def test_power_phase_against_trapezoid_oracle():
    model, _ = builtin_family("power_phase")
    got = oscillatory_integral(model, 1.0, 6.0, 18.0, 1e-10)
    xs = np.linspace(6.0, 18.0, 1_000_001)
    vals = np.exp(2j * np.pi * np.mod(np.asarray(model.f(xs)) - xs, 1.0))
    oracle = complex(np.trapezoid(vals, xs))
    assert got.converged
    assert abs(got.value - oracle) <= 1e-8  # trapezoid itself is ~1e-10 here


def test_unconverged_result_is_flagged(monkeypatch):
    monkeypatch.setattr(quad, "DEFAULT_PANEL_CAP", 32)
    model, _ = builtin_family("power_phase")
    res = oscillatory_integral(model, 3.0, 40.0, 400.0, 1e-12)
    assert not res.converged
    assert res.abs_error_estimate > 1e-12


def test_real_panel_integral_and_nonfinite_integrand():
    edges = np.array([1.0, 4.0, 16.0, 64.0])
    res = panel_integral(lambda x: 1.0 / x ** 2, edges[:-1], edges[1:], 0.0, rel_tol=1e-12)
    assert res.converged and isinstance(res.value, float)
    assert res.value == pytest.approx(1.0 - 1.0 / 64.0, rel=1e-13)
    # one nan node must not be averaged away into a finite value
    res = panel_integral(lambda x: np.where(x > 50.0, np.nan, 1.0), edges[:-1], edges[1:], 1e-9)
    assert not res.converged and math.isnan(res.value)


# ---------------------------------------------------------------------------
# the Gauss-Kronrod 15/31 table
# ---------------------------------------------------------------------------

def test_kronrod_rule_integrates_monomials_to_degree_46():
    # summed exactly, the table's moments are off by no more than its
    # rounding allows: |dw| <= u |w| and |dx| <= u |x|, u = 2^-53
    x, w = quad._NODES[:, 0], quad._K31[:, 0]
    assert x.shape == w.shape == (31,) and np.all(np.diff(x) > 0)
    with mpmath.workdps(60):
        x, w = [mpmath.mpf(v) for v in x.tolist()], [mpmath.mpf(v) for v in w.tolist()]
        for k in range(47):
            exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
            got = mpmath.fsum(wi * xi ** k for xi, wi in zip(x, w))
            size = mpmath.fsum(abs(wi * xi ** k) for xi, wi in zip(x, w))
            assert abs(got - exact) <= (k + 2) * 2.0 ** -53 * size, k


def test_gauss15_is_embedded_on_the_odd_nodes():
    x, k31, g15 = quad._NODES[:, 0], quad._K31[:, 0], quad._G15[:, 0]
    assert g15.shape == (15,) and np.all(g15 > 0.0)
    # numpy's leggauss, an independent construction, is a few ulps of 1 off
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(15)
    assert np.all(np.abs(x[1::2] - ref_nodes) <= 4 * np.spacing(1.0))
    assert np.all(np.abs(g15 - ref_weights) <= 4 * np.spacing(1.0))
    # every literal is the correctly rounded value of the rule built from
    # P15 and the Stieltjes polynomial E16 at 80 digits
    nodes, kronrod, gauss = gauss_kronrod(15)
    assert x.tolist() == [float(v) for v in nodes]
    assert k31.tolist() == [float(v) for v in kronrod]
    assert g15.tolist() == [float(v) for v in gauss]
    with mpmath.workdps(80):
        for j in range(47):
            assert abs(mpmath.fsum(w * v ** j for v, w in zip(nodes, kronrod))
                       - (mpmath.mpf(2) / (j + 1) if j % 2 == 0 else 0)) < mpmath.mpf(10) ** -70


def test_eval_panels_calls_the_integrand_on_node_major_blocks():
    shapes = []

    def spy(x):
        shapes.append(x.shape)
        return x ** 46 - 3.0 * x ** 15 + 1.0

    los, his = np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.25])
    vals, errs = quad._eval_panels(spy, los, his)
    assert shapes == [(31, 3)]
    exact = lambda t: t ** 47 / 47 - 3.0 * t ** 16 / 16 + t
    assert np.allclose(vals, exact(his) - exact(los), rtol=1e-14, atol=0)
    assert np.all(errs > 0)               # degree 46 is past the Gauss 15 rule
    shapes.clear()
    res = panel_integral(spy, los, his, 1e-12)
    assert res.converged and len(shapes) >= 2
    assert all(len(s) == 2 and s[0] == 31 for s in shapes)
    assert res.panels == los.size + sum(s[1] for s in shapes[1:]) // 2

    # a long batch goes through in equal blocks of at most _BLOCK panels,
    # each block array at most the 43 KB of a (21, 256) block, which keeps
    # the integrand's temporaries off malloc's mmap path; and a panel's value
    # and estimate do not depend on the batch it is in, alone or as a
    # (cos, sin) pair
    edges = np.linspace(-1.0, 1.25, 2 * quad._BLOCK + 2)
    shapes.clear()
    vals, errs = quad._eval_panels(spy, edges[:-1], edges[1:])
    widths = [s[1] for s in shapes]
    assert len(widths) == 3 and sum(widths) == edges.size - 1
    assert max(widths) <= quad._BLOCK and max(widths) - min(widths) <= 1
    assert 31 * quad._BLOCK * 8 <= 21 * 256 * 8
    for j in (0, 1, quad._BLOCK, edges.size - 2):
        one = quad._eval_panels(spy, edges[j:j + 1], edges[j + 1:j + 2])
        assert (one[0][0], one[1][0]) == (vals[j], errs[j]), j
    pair = lambda x: cis_turns(x * x)
    vals, errs = quad._eval_panels(pair, edges[:-1], edges[1:])
    assert vals.dtype == np.complex128
    for j in (0, edges.size - 2):
        one = quad._eval_panels(pair, edges[j:j + 1], edges[j + 1:j + 2])
        assert (one[0][0], one[1][0]) == (vals[j], errs[j]), j


# the second quadratic op with poisson_R = 32 of audit_ops(0) in bench/vdbench
POISSON_OP_2 = {"params": [0.3977, 29.9856], "domain": [-29.2814, 62.6754],
                "a": 1.7042, "b": 31.6898, "R": 32, "tol": 1e-9}


def test_poisson_integrals_against_the_fresnel_closed_form():
    # int e(w x^2 / 2 - r x) over [a, b] = e(-r^2 / 2w) / sqrt(w) (F(v_b) - F(v_a)),
    # v = sqrt(w) (x - r/w), F(v) = (C(sqrt 2 v) + i S(sqrt 2 v)) / sqrt 2
    for op in (POISSON_OP, POISSON_OP_2):
        omega = op["params"][0]
        model, _ = builtin_family("quadratic", op["params"], domain=tuple(op["domain"]))
        with mpmath.workdps(30):
            w = mpmath.mpf(omega)
            F = lambda v: (mpmath.fresnelc(mpmath.sqrt(2) * v)
                           + 1j * mpmath.fresnels(mpmath.sqrt(2) * v)) / mpmath.sqrt(2)
            for r in range(-op["R"], op["R"] + 1):
                res = oscillatory_integral(model, float(r), op["a"], op["b"], op["tol"])
                va, vb = (mpmath.sqrt(w) * (mpmath.mpf(x) - r / w) for x in (op["a"], op["b"]))
                want = mpmath.expjpi(-r * r / w) / mpmath.sqrt(w) * (F(vb) - F(va))
                assert res.converged, (omega, r)
                assert abs(res.value - complex(want)) <= 1e-12, (omega, r)


def test_poisson_op_converges_in_one_sweep_within_its_work(monkeypatch):
    # pieces of up to three phase cycles under the qk31 pair: each of the 65
    # integrals is one _eval_panels call, 520 000 integrand values in all,
    # with estimates far under the 1e-9 asked
    op = POISSON_OP
    model, _ = builtin_family("quadratic", op["params"], domain=tuple(op["domain"]))
    real, calls = quad._eval_panels, []

    def counting(fn, los, his):
        calls.append(quad._NODES.size * los.size)
        return real(fn, los, his)

    monkeypatch.setattr(quad, "_eval_panels", counting)
    results = [oscillatory_integral(model, float(r), op["a"], op["b"], op["tol"])
               for r in range(-op["R"], op["R"] + 1)]
    assert len(calls) == len(results) == 65
    assert sum(calls) <= 520_000
    assert all(res.converged and res.abs_error_estimate <= 1e-11 for res in results)


def test_integrand_has_the_bits_of_the_complex_exponential():
    # amplitude_e's g e(f) is g times each part of the table kernel's e(f),
    # + 0.0 on the imaginary part; quad's integrand is that pair of parts
    rng = np.random.default_rng(13)
    n = 20_000
    f = np.concatenate([
        rng.uniform(-1e6, 1e6, n),                          # either sign
        np.floor(rng.uniform(-1e6, 1e6, n)) + 0.5,           # half-integers
        1e15 + rng.uniform(-1e3, 1e3, n),                   # near 1e15
        -1e15 + rng.uniform(-1e3, 1e3, n),
        np.floor(rng.uniform(-1e9, 1e9, n)),                 # integers
        -rng.uniform(1e-20, 1e-15, n),                      # tiny negatives
        rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-12, 17, n),
        [0.0, -0.0, 0.25, 0.5, 0.75, -0.5, 2.0 ** 52 + 0.5, 2.0 ** 53],
    ])
    g = rng.uniform(-3.0, 3.0, f.size)
    c, s = cis_turns(f)
    got = amplitude_e(g, f)
    assert got.dtype == np.complex128 and got.shape == f.shape
    assert got.real.tobytes() == (g * c).tobytes()
    assert got.imag.tobytes() == (g * s + 0.0).tobytes()
    # a scalar amplitude broadcasts over the phases
    got = amplitude_e(1.0, f[:64])
    assert got.real.tobytes() == c[:64].tobytes()
    assert got.imag.tobytes() == (s[:64] + 0.0).tobytes()


@pytest.mark.parametrize("bad", ["g_inf", "g_nan", "phase_nan", "phase_inf"])
def test_nonfinite_amplitude_or_phase_is_nonfinite_and_unconverged(bad):
    x = lambda t: np.asarray(t, dtype=float)
    spoil = {"g_inf": np.inf, "g_nan": np.nan, "phase_nan": np.nan, "phase_inf": -np.inf}[bad]
    gfun, phase = ONE, lambda t: 0.5 * x(t) ** 2
    if bad.startswith("g"):
        gfun = lambda t: np.where(x(t) > 0.7, spoil, 1.0)
    else:
        phase = lambda t: np.where(x(t) > 0.7, spoil, 0.5 * x(t) ** 2)
    with np.errstate(invalid="ignore"):
        res = oscillatory_integral(bare_model(phase, x, gfun), 0.0, 0.0, 1.0, 1e-9)
    assert not res.converged
    assert not cmath.isfinite(res.value)


def test_derivative_test_examples():
    model, _ = builtin_family("power_phase")
    first, second = derivative_test_bounds(model, 20.0, 25.0, 0.0)
    # g = 1: V = 1, so the slope bound is 1/(pi f'(20)) with f' increasing
    assert first == pytest.approx(1.0 / (math.pi * float(model.f1(20.0))), rel=1e-9)

    mq, _ = builtin_family("quadratic", [1.0])
    first, second = derivative_test_bounds(mq, 1.0, 2.0, 0.0)
    assert second == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-12)

    # the oracle value sits below the smaller of the two bounds
    first, second = derivative_test_bounds(model, 6.0, 18.0, 1.0)
    q = oscillatory_integral(model, 1.0, 6.0, 18.0, 1e-10)
    assert abs(q.value) <= min(first, second)


def test_first_bound_infinite_with_interior_stationary_point():
    model, _ = builtin_family("power_phase")
    first, second = derivative_test_bounds(model, 6.0, 18.0, 1.0)
    assert math.isinf(first)       # x_1 = 12 sits inside [6, 18]
    assert math.isfinite(second)


def test_bounds_dominate_integral_randomly():
    model, profile = builtin_family("power_phase")
    rng = np.random.default_rng(4)
    for _ in range(50):
        x0 = float(rng.uniform(30, 3000))
        width = float(rng.uniform(0.5, 1.5)) * min(float(profile.M(x0)), 200.0)
        alpha, beta = x0, x0 + width
        r = float(rng.uniform(-3, 3)) + float(model.f1(0.5 * (alpha + beta)))
        fa, fb = float(model.f1(alpha)) - r, float(model.f1(beta)) - r
        first, second = derivative_test_bounds(model, alpha, beta, r)
        q = oscillatory_integral(model, r, alpha, beta, 1e-9)
        if fa * fb > 0:
            assert abs(q.value) <= first * (1 + 1e-6)
        assert abs(q.value) <= second * (1 + 1e-6)


# ---------------------------------------------------------------------------
# the panel pre-split
# ---------------------------------------------------------------------------

def _counted(fn):
    """fn, counting its calls in .calls"""
    def wrapped(x):
        wrapped.calls += 1
        return fn(x)
    wrapped.calls = 0
    return wrapped


def _recorded_presplits(monkeypatch, calls):
    """Run calls() with quad._phase_pieces wrapped; returns one
    (slope, edges, pieces, slope calls) record per pre-split."""
    real = quad._phase_pieces
    seen = []

    def recording(phase_slope, edges):
        counted = _counted(phase_slope)
        los, his, pieces = real(counted, edges)
        assert los is not None and pieces == los.size
        seen.append((phase_slope, edges.tolist(), list(zip(los.tolist(), his.tolist())), counted.calls))
        return los, his, pieces

    monkeypatch.setattr(quad, "_phase_pieces", recording)
    calls()
    return seen


def _reference_pieces(phase_slope, edges):
    # the slope sees a one-point array, as the batched split sees arrays
    slope = lambda x: float(phase_slope(np.array([x]))[0])
    return [p for lo, hi in zip(edges[:-1], edges[1:])
            for p in presplit_reference(slope, lo, hi)]


def test_presplit_matches_recursion_on_poisson_and_power_phase(monkeypatch):
    op = POISSON_OP
    model, _ = builtin_family("quadratic", op["params"], domain=tuple(op["domain"]))
    power, _ = builtin_family("power_phase")

    def calls():
        for r in range(-op["R"], op["R"] + 1):
            oscillatory_integral(model, float(r), op["a"], op["b"], op["tol"])
        oscillatory_integral(power, 1.0, 6.0, 18.0, 1e-10)

    seen = _recorded_presplits(monkeypatch, calls)
    assert len(seen) == 66
    # the untested first levels: the 65 Poisson splits take 308 slope calls
    # with them and 590 when every level is tested
    assert sum(ncalls for _, _, _, ncalls in seen[:65]) <= 308
    assert sum(len(e) == 3 for _, e, _, _ in seen) > 0      # stationary splits ran
    assert max(len(pieces) for _, _, pieces, _ in seen) > 1000 / quad._CYCLES
    for slope, edges, pieces, ncalls in seen:
        assert pieces == _reference_pieces(slope, edges)
        assert ncalls <= 49         # one slope call per level, not two per node


def test_presplit_depth_cap_matches_recursion():
    # |slope| = 1/x is infinite at 0, so the first piece stops at depth 48
    slope = lambda x: -1.0 / np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        los, his, pieces = quad._phase_pieces(slope, np.array([0.0, 1.0]))
        want = _reference_pieces(slope, [0.0, 1.0])
    assert los is not None and pieces == len(want)
    assert list(zip(los.tolist(), his.tolist())) == want
    assert want[0] == (0.0, 2.0 ** -48)


@settings(max_examples=60, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(1e-2, 3e3), st.floats(0.5, 2.5),
       st.floats(-20.0, 20.0), st.floats(0.1, 40.0))
def test_presplit_tiles_and_bounds_each_piece(shift, cycles, power, alpha, width):
    # a monotone slope c sign(x - shift)|x - shift|^power, its zero at shift,
    # scaled so that width * max|slope| = cycles
    beta = alpha + width
    c = cycles / (width * max(abs(alpha - shift), abs(beta - shift)) ** power)
    slope = lambda x: c * np.sign(np.asarray(x) - shift) * np.abs(np.asarray(x) - shift) ** power
    inside = alpha < shift < beta
    edges = np.array([alpha, shift, beta] if inside else [alpha, beta])
    counted = _counted(slope)
    los, his, pieces = quad._phase_pieces(counted, edges)
    assert los is not None and pieces == los.size and counted.calls <= 49
    assert los[0] == alpha and his[-1] == beta
    assert np.array_equal(his[:-1], los[1:])
    assert np.all(los < his)
    if inside:
        assert shift in los
    steep = np.maximum(np.abs(slope(los)), np.abs(slope(his)))
    assert np.all(((his - los) * steep <= quad._CYCLES) | (his - los <= width * 2.0 ** -47))
    assert list(zip(los.tolist(), his.tolist())) == _reference_pieces(slope, edges.tolist())


def _same_pieces(got, want):
    return got[2] == want[2] and all(
        (g is None and w is None) or (g is not None and w is not None and g.tobytes() == w.tobytes())
        for g, w in zip(got[:2], want[:2]))


# (family, params, domain, points): every family, with limits drawn in points
PRESPLIT_FAMILIES = [
    ("power_phase", [], None, (1.0, 1e6)),
    ("quadratic", [0.5], None, (-100.0, 100.0)),
    ("ik_monomial", [1.5, 100.0, 1e4], None, (50.0, 1e4)),
    ("exponential", [1.0, 2.0], None, (0.5, 20.0)),
    ("zeta_log", [0.5, 1000.0], None, (1.0, 1e4)),
    ("oscillatory", [1.0, 0.5, 2.0], (10.0, 1e4), (10.0, 1e3)),
    ("sine_amplitude", [0.37], None, (1.0, 400.0)),
]


@pytest.mark.parametrize("fam,params,domain,points", PRESPLIT_FAMILIES,
                         ids=[c[0] for c in PRESPLIT_FAMILIES])
def test_presplit_matches_the_level_by_level_split(fam, params, domain, points):
    # the untested first levels change no piece and no count: r inside the
    # f' range (a stationary edge), next to it and far off it, where the
    # split may stop at the panel cap
    model, _ = builtin_family(fam, params, domain=domain)
    rng = np.random.default_rng(len(fam))
    stationary = skipped = 0
    for i in range(24):
        alpha = float(rng.uniform(*points))
        beta = min(alpha + float(10.0 ** rng.uniform(-1, 3)), points[1])
        fa, fb = float(model.f1(alpha)), float(model.f1(beta))
        r = [float(rng.uniform(min(fa, fb), max(fa, fb))), fa + float(rng.uniform(-3, 3)),
             fb * float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1e4, 1e4))][i % 4]
        slope = lambda x: np.asarray(model.f1(x), dtype=float) - r
        edges = [alpha, beta]
        if fa - r < 0 < fb - r:
            edges.insert(1, float(invert_fprime(model, r)))
            stationary += 1
        edges = np.array(edges)
        counted, reference = _counted(slope), _counted(slope)
        got = quad._phase_pieces(counted, edges)
        assert _same_pieces(got, phase_pieces_by_level(reference, edges)), (alpha, beta, r)
        assert counted.calls <= reference.calls, (alpha, beta, r)
        skipped += counted.calls < reference.calls
    assert stationary and skipped


@pytest.mark.parametrize("case", ["cap", "inf", "float_limit", "tiny_width", "sign_change",
                                  "rounding"])
def test_presplit_matches_the_level_by_level_split_at_its_limits(case):
    # the split stops at the panel cap after untested levels (131 072
    # pieces), an infinite slope splits to the cap as well; pieces near the
    # float limit, where a midpoint rounds onto an end, a slope whose zero is
    # no edge, and pieces whose rounded width times the slope lands at 1 or
    # just below (width * slope = 16 (1 + 2^-52) here) are tested
    if case == "cap":
        model, _ = builtin_family("quadratic", [0.38, 30.0], domain=(-100.0, 100.0))
        slope, edges = lambda x: np.asarray(model.f1(x), dtype=float) - 1e9, [0.5, 30.5]
    elif case == "inf":
        slope, edges = lambda x: np.full_like(x, -np.inf), [0.0, 1.0]
    elif case == "float_limit":
        slope, edges = lambda x: np.full_like(x, 1000.0), [1e15, 1e15 + 1.0]
    elif case == "tiny_width":
        slope, edges = lambda x: 3e5 * x, [1e10, 1e10 + 1e-4]
    elif case == "sign_change":
        slope, edges = lambda x: 100.0 * x, [-1.0, 1.0]
    else:
        slope = lambda x: np.full_like(x, 2.3741754858784305)
        edges = [1.2428327649956394, 7.9820144704625795]
    edges = np.array(edges)
    counted, reference = _counted(slope), _counted(slope)
    got = quad._phase_pieces(counted, edges)
    assert _same_pieces(got, phase_pieces_by_level(reference, edges))
    assert counted.calls <= reference.calls
    assert (got[0] is None) == (case in ("cap", "inf"))
    if got[0] is None:
        assert got[2] == 131_072


@pytest.mark.parametrize("case", ["huge_r", "nan_slope"])
def test_unresolvable_presplit_is_capped_and_unconverged(case):
    # the r = 1e9 split needs about 3e10 pieces, a nan slope 2^48: both used
    # to recurse without end, then to evaluate every capped piece, and then
    # to gather and sort the 131 072 capped pieces only to count them
    tracemalloc.start()
    t0 = time.process_time()
    try:
        if case == "huge_r":
            model, _ = builtin_family("quadratic", [0.38, 30.0], domain=(-100.0, 100.0))
            res = oscillatory_integral(model, 1e9, 0.5, 30.5, 1e-9)
        else:
            model = bare_model(lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
                               lambda x: np.full_like(x, np.nan), ONE)
            res = oscillatory_integral(model, 0.0, 0.0, 1.0, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.converged
    assert cmath.isnan(res.value)
    assert res.panels == 131_072 <= quad.DEFAULT_PANEL_CAP    # the level it stopped at
    assert time.process_time() - t0 < 0.1
    assert peak < 10 * 2 ** 20


# ---------------------------------------------------------------------------
# modified Fresnel
# ---------------------------------------------------------------------------

def test_fresnel_zero_and_limit():
    assert fresnel_modified(0.0) == 0j
    limit = cmath.exp(2j * math.pi / 8.0) / 2.0
    assert abs(fresnel_modified(50.0) - limit) <= 0.01


def test_fresnel_against_internal_quadrature():
    ref = oscillatory_integral(family_model("quadratic", [1.0]), 0.0, 0.0, 1.0, 1e-13)
    assert abs(fresnel_modified(1.0) - ref.value) <= 1e-10


def test_fresnel_oddness_exact():
    for u in (0.3, 1.2, 2.7):
        assert fresnel_modified(-u) == -fresnel_modified(u)


@pytest.mark.parametrize("u", [0.1, 0.9, 1.49, 1.51, 4.0, 20.0])
def test_fresnel_against_scipy(u):
    s, c = scipy.special.fresnel(math.sqrt(2.0) * u)
    ref = (c + 1j * s) / math.sqrt(2.0)
    assert abs(fresnel_modified(u) - ref) <= 1e-12


@pytest.mark.parametrize("u", [31.9, 32.1, 100.0, 1000.0, 1e5, 1e9, 1e200])
def test_fresnel_both_sides_of_the_asymptotic_cut_against_mpmath(u):
    # past u = 32 the panels would grow as u^2 (more than the panel cap from
    # about u = 500), so the tail comes from its asymptotic series
    with mpmath.workdps(40):
        x = mpmath.sqrt(2) * mpmath.mpf(u)
        ref = complex((mpmath.fresnelc(x) + 1j * mpmath.fresnels(x)) / mpmath.sqrt(2))
    assert abs(fresnel_modified(u) - ref) <= 1e-13


# ---------------------------------------------------------------------------
# stationary phase expansion
# ---------------------------------------------------------------------------

def test_explicit_main_piece_value():
    # for the cubic-power phase at integer r the leading term is
    # sqrt(24 r)/2 e(-4 r^3 + 1/8)
    model, profile = builtin_family("power_phase")
    r = 5.0
    xr = 12.0 * r * r
    mu = xr - 0.5 * float(profile.M(xr))
    est, _ = stationary_phase_estimate(model, profile, r, "left", mu)
    main = math.sqrt(24.0 * r) / 2.0 * cmath.exp(2j * math.pi * 0.125)
    correction = est - main
    # remaining explicit pieces are the curvature and endpoint terms, both
    # small at this scale
    assert abs(correction) < 0.15 * abs(main)
    fpp = float(model.f2(xr))
    fppp = float(model.fjet(xr, 3, 3)[0])
    slope = float(model.f1(mu)) - r
    endpoint = (cmath.exp(2j * math.pi * ((float(model.f(mu)) - r * mu) % 1.0))
                / (2j * math.pi * slope))
    byhand = (main - fppp * cmath.exp(2j * math.pi * (-4 * r ** 3 % 1.0))
              / (6j * math.pi * fpp ** 2) - endpoint)
    assert est == pytest.approx(byhand, rel=1e-12)


def test_quadratic_curvature_term_vanishes():
    model, profile = builtin_family("quadratic", [0.5, 100.0], domain=(0.0, 4000.0))
    r = 7.0
    xr = r / 0.5
    for side, mu in [("left", xr - 3.0), ("right", xr + 3.0)]:
        est, _ = stationary_phase_estimate(model, profile, r, side, mu)
        main = cmath.exp(2j * math.pi * ((-0.5 * r * r / 0.5) % 1.0) + 2j * math.pi / 8) \
            / (2.0 * math.sqrt(0.5))
        slope = float(model.f1(mu)) - r
        sgn = 1.0 if side == "right" else -1.0
        endpoint = sgn * cmath.exp(2j * math.pi * ((float(model.f(mu)) - r * mu) % 1.0)) \
            / (2j * math.pi * slope)
        assert est == pytest.approx(main + endpoint, rel=1e-12)


def test_residual_within_fitted_bound():
    model, profile = builtin_family("power_phase")
    ratios = []
    for r in range(2, 21, 3):
        xr = 12.0 * r * r
        mu = xr - float(profile.M(xr))  # cubic piece dropped at full radius
        est, bound = stationary_phase_estimate(model, profile, float(r), "left", mu)
        q = oscillatory_integral(model, float(r), mu, xr, 1e-8)
        ratios.append(abs(q.value - est) / bound)
    fitted = max(ratios[::2])
    assert all(rr <= 2.0 * fitted for rr in ratios)


def test_residual_scaling_slope():
    model, profile = builtin_family("power_phase")
    r = 20.0
    xr = 12.0 * r * r
    M = float(profile.M(xr))
    ds, resids = [], []
    for j in range(5):
        d = 0.45 * M * 2.0 ** -j
        est, _ = stationary_phase_estimate(model, profile, r, "left", xr - d)
        q = oscillatory_integral(model, r, xr - d, xr, 1e-8)
        ds.append(d)
        resids.append(abs(q.value - est))
    slope = np.polyfit(np.log(ds), np.log(resids), 1)[0]
    assert -3.3 <= slope <= -2.7


def test_side_validation():
    model, profile = builtin_family("power_phase")
    with pytest.raises(ValueError):
        stationary_phase_estimate(model, profile, 5.0, "left", 12.0 * 25 + 1.0)
    with pytest.raises(ValueError):
        stationary_phase_estimate(model, profile, 5.0, "right", 12.0 * 25 - 1.0)
    with pytest.raises(ValueError):
        stationary_phase_estimate(model, profile, 5.0, "up", 12.0 * 25 - 1.0)
    with pytest.raises(ValueError):  # exceeds the local radius
        stationary_phase_estimate(model, profile, 5.0, "left", 12.0 * 25 - 200.0)
