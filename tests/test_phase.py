import collections
import dataclasses
import math

import numpy as np
import pytest

from vdcorput import phase
from vdcorput.phase import (FamilyError, InversionRangeError, PhaseAmplitudeModel,
                            builtin_family, family_model, invert_fprime)

from helpers import Orders, ReferenceWR, invert_fprime_eight_step, order

FAMILIES = [
    ("power_phase", []),
    ("quadratic", [0.5]),
    ("ik_monomial", [2.0, 100.0, 1e4]),
    ("ik_monomial", [1.5, 100.0, 1e4]),
    ("exponential", [1.0, 2.0]),
    ("zeta_log", [0.5, 1000.0]),
    ("sine_amplitude", [0.37, 0.25]),
]

# the finite-difference step is 1e-6 max(1,|x|): keep it below the family's
# oscillation/decay length by sampling a bounded window where needed
FD_WINDOWS = {"exponential": (0.1, 30.0), "sine_amplitude": (1.0, 200.0),
              "oscillatory": (10.0, 300.0)}


def check_derivative_consistency(model, n, seed, rel, window=None):
    """Worst relative mismatch between the model's derivatives and central
    differences at n random interior points; fails the test above ``rel``.

    ``window`` limits sampling; the finite-difference step 1e-6 max(1, |x|)
    must stay well below the model's oscillation length there.
    """
    lo, hi = window if window is not None else model.domain
    hi = min(hi, lo + 1e6)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), n)
    worst = 0.0
    pairs = [(order(jet, k), order(jet, k + 1))
             for jet, top in ((model.fjet, 4), (model.gjet, 3)) for k in range(top)]
    for fn, dfn in pairs:
        # floor the comparison scale at a fraction of the derivative's size
        # on the window, so isolated zeros do not poison the relative check
        sup = float(np.max(np.abs(np.asarray(dfn(xs), dtype=float))))
        for x in xs:
            h = 1e-6 * max(1.0, abs(x))
            fd = (float(fn(x + h)) - float(fn(x - h))) / (2 * h)
            an = float(dfn(x))
            scale = max(abs(an), abs(fd), 1e-3 * sup, 1e-9 / h)
            worst = max(worst, abs(fd - an) / scale)
    assert worst <= rel, f"derivative mismatch {worst:.3e} exceeds {rel}"
    return worst


def test_oscillatory_family_derivatives():
    # the wiggle term sin(gamma x)/x is differentiated by the Leibniz rule
    # four times over; worth its own check
    model, profile = builtin_family("oscillatory", [1.0, 0.5, 2.0],
                                    domain=(10.0, 1e4))
    check_derivative_consistency(model, n=100, seed=1, rel=1e-6,
                                 window=FD_WINDOWS["oscillatory"])
    assert profile.epsilon is not None and profile.epsilon > 0
    xs = np.linspace(10.0, 1e3, 512)
    assert np.all(np.asarray(model.f2(xs), dtype=float) > 0)


@pytest.mark.parametrize("name,params", FAMILIES)
def test_family_derivatives_match_finite_differences(name, params):
    model, _ = builtin_family(name, params)
    check_derivative_consistency(model, n=100, seed=3, rel=1e-6,
                                 window=FD_WINDOWS.get(name))


@pytest.mark.parametrize("name,params", FAMILIES)
def test_fprime_positive_second_derivative(name, params):
    model, profile = builtin_family(name, params)
    lo, hi = model.domain
    xs = np.linspace(lo + 0.01 * (min(hi, lo + 1e6) - lo), min(hi, lo + 1e6), 200)
    assert np.all(np.asarray(model.f2(xs), dtype=float) > 0)
    assert np.all(np.asarray(profile.M(xs), dtype=float) > 0)
    assert np.all(np.asarray(profile.U(xs), dtype=float) > 0)


def test_invert_examples():
    model, _ = builtin_family("power_phase")
    assert invert_fprime(model, 1.0) == pytest.approx(12.0, rel=1e-12)

    model, _ = builtin_family("quadratic", [0.5])
    # f' = omega x, so r = omega k inverts to k
    assert invert_fprime(model, 0.5 * 7.0) == pytest.approx(7.0, rel=1e-12)

    model, _ = builtin_family("ik_monomial", [2.0, 100.0, 1e4])
    # f'(x) = x for X = N^2, cross-checked by bisection below
    assert invert_fprime(model, 150.0) == pytest.approx(150.0, rel=1e-12)
    bare = dataclasses.replace(model, fprime_inverse=None)
    assert invert_fprime(bare, 150.0) == pytest.approx(150.0, rel=1e-10)


@pytest.mark.parametrize("name,params", FAMILIES)
def test_invert_round_trip(name, params):
    model, _ = builtin_family(name, params)
    lo, hi = (float(model.f1(x)) for x in model.domain)
    hi = min(hi, lo + 1e5)
    rng = np.random.default_rng(9)
    for r in rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 100):
        x = invert_fprime(model, float(r))
        assert abs(float(model.f1(x)) - r) <= 1e-12 * max(1.0, abs(r))


@pytest.mark.parametrize("name,params", [("power_phase", []),
                                         ("exponential", [1.0, 2.0]),
                                         ("zeta_log", [0.5, 1000.0])])
def test_analytic_inverse_agrees_with_bisection(name, params):
    model, _ = builtin_family(name, params)
    bare = dataclasses.replace(model, fprime_inverse=None,
                               domain=(model.domain[0], min(model.domain[1], 1e7)))
    lo, hi = (float(bare.f1(x)) for x in bare.domain)
    rng = np.random.default_rng(2)
    for r in rng.uniform(lo + 0.02 * (hi - lo), lo + 0.6 * (hi - lo), 20):
        xa = invert_fprime(model, float(r))
        xb = invert_fprime(bare, float(r))
        assert abs(xa - xb) <= 1e-10 * max(1.0, abs(xa))


@pytest.mark.parametrize("name,params,domain", [("oscillatory", [1e-3, 1.0, 1.0, 0.25], (5e4, 2e6)),
                                                ("power_phase", [], None),
                                                ("ik_monomial", [2.5, 100.0, 1e4], None)])
def test_invert_array_matches_scalar_calls(name, params, domain):
    # the bracketed-Newton fallback solves all r at once and takes, for each
    # r, the same steps as a call with that r alone; it ends at the bracket
    # of a scalar loop that halves on f'(mid) < r until the midpoint equals
    # an end, followed by 8 Newton steps kept inside the bracket.  The
    # analytic inverse, where the family has one, is bit-identical the same way
    model, _ = builtin_family(name, params, domain=domain)
    if model.fprime_inverse is not None:
        rs = np.arange(50.0, 2050.0)
        assert invert_fprime(model, rs).tolist() == [invert_fprime(model, float(r)) for r in rs]
    bare = dataclasses.replace(model, fprime_inverse=None)

    def loop_invert(r):
        a, b = bare.domain
        while (mid := 0.5 * (a + b)) not in (a, b):
            if float(bare.f1(mid)) < r:
                a = mid
            else:
                b = mid
        x = 0.5 * (a + b)
        for _ in range(8):
            x_new = x - (float(bare.f1(x)) - r) / float(bare.f2(x))
            if not (a <= x_new <= b):
                break
            x = x_new
        return x

    r0 = math.ceil(float(bare.f1(bare.domain[0])))
    rs = np.arange(r0, r0 + 300, dtype=float)
    xs = invert_fprime(bare, rs)
    assert isinstance(xs, np.ndarray) and xs.shape == rs.shape
    assert xs.tolist() == [invert_fprime(bare, float(r)) for r in rs]
    assert xs.tolist() == [loop_invert(float(r)) for r in rs]


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.7])
def test_ik_array_calls_equal_point_calls(alpha):
    # f', f'' and the dual phase go through libm's pow (np.float_power) on
    # an array as on one point.  numpy's power differs from libm's on about
    # 5 % of values, and on about 0.1 % even for the exponents 0.5 and 2,
    # which it takes as sqrt and square
    model = family_model("ik_monomial", [alpha, 100.0, 1e4])
    xs = np.linspace(150.0, 400.0, 2001)
    for got, k in zip(model.fjet(xs, 1, 2), (1, 2)):
        assert got.tolist() == [float(model.fjet(x, k, k)[0]) for x in xs.tolist()], k
    rs = np.arange(50.0, 2050.0)
    xr = invert_fprime(model, rs)
    assert model.rhs_phase(rs, xr).tolist() == [
        float(model.rhs_phase(r, x)) for r, x in zip(rs.tolist(), xr.tolist())]


def test_invert_ends_at_a_float_limit_bracket_in_a_few_steps():
    # every r of oscillatory(1, 1, 1) on [1000, 2000] ends at a bracket whose
    # midpoint equals one of its ends, with f'(a) < r <= f'(b) there, after a
    # handful of jet calls where 80 halvings took 80
    model, _ = builtin_family("oscillatory", [1.0, 1.0, 1.0, 0.25])
    rs = np.arange(math.ceil(float(model.f1(1000.0))), math.floor(float(model.f1(2000.0))) + 1,
                   dtype=float)
    calls = []

    def fjet(x, lo, hi):
        calls.append(np.size(x))
        return model.fjet(x, lo, hi)

    counted = dataclasses.replace(model, fjet=fjet)
    flo, fhi = model.fjet(np.array(model.domain), 1, 1)[0].tolist()
    a, b = phase._newton_brackets(counted, rs, flo, fhi)
    mid = 0.5 * (a + b)
    assert np.all((mid == a) | (mid == b)) and np.all(a < b)
    assert np.all(model.f1(a) < rs) and np.all(rs <= model.f1(b))
    assert len(calls) <= 12
    xs = invert_fprime(model, rs)
    assert np.all((xs == a) | (xs == b))


# the oscillatory dual-side ranges of the benchmark's dual workload, seeds
# 0-8 (params, a, b; domain [5e4, 2e6]), and its audit ops' two (default domain)
DUAL_OSCILLATORY = [
    ([0.0010936, 1.0, 1.0], 103856.1432, 561348.4841),
    ([0.0009836, 1.0, 1.0], 101296.6717, 609877.8318),
    ([0.0009105, 1.0, 1.0], 102678.2555, 652028.5044),
    ([0.001053, 1.0, 1.0], 109118.485, 584222.3464),
    ([0.0010817, 1.0, 1.0], 104907.2476, 567506.5891),
    ([0.00093, 1.0, 1.0], 104172.3686, 641959.4396),
    ([0.0010771, 1.0, 1.0], 109948.3833, 574197.3525),
    ([0.0010748, 1.0, 1.0], 106249.2323, 571587.4044),
    ([0.0010159, 1.0, 1.0], 100296.5141, 592735.6062),
]
AUDIT_OSCILLATORY = [([1.0, 1.0, 1.0], 119.7268, 168.6761), ([1.0, 1.0, 1.0], 1000.0, 2000.0)]


def _dual_rs(model, a, b):
    return np.arange(math.ceil(float(model.f1(a))), math.floor(float(model.f1(b))) + 1,
                     dtype=float)


def _bare(name, params, domain=None):
    return dataclasses.replace(family_model(name, params, domain=domain), fprime_inverse=None)


@pytest.mark.parametrize("params,a,b", DUAL_OSCILLATORY + AUDIT_OSCILLATORY)
def test_polish_from_one_jet_of_the_ends_has_the_eight_step_bits(params, a, b):
    # the polish reads f' and f'' of both bracket ends from one jet; every
    # x_r keeps the bits of eight Newton steps with a jet call each
    domain = (5e4, 2e6) if a > 5e4 else None
    model = family_model("oscillatory", params, domain=domain)
    rs = _dual_rs(model, a, b)
    assert _bits(invert_fprime(model, rs)) == _bits(invert_fprime_eight_step(model, rs))


@pytest.mark.parametrize("name,params", [("power_phase", []), ("zeta_log", [0.5, 1000.0]),
                                         ("ik_monomial", [2.5, 100.0, 1e4]),
                                         ("exponential", [1.0, 2.0])])
def test_polish_has_the_eight_step_bits_on_bare_families(name, params):
    # the analytic inverse stripped: arrays, 2-d arrays and single r
    bare = _bare(name, params)
    lo, hi = bare.domain
    xs = np.geomspace(lo, hi, 150) if lo > 0 else np.linspace(lo, hi, 150)
    flo, fhi = (float(bare.f1(x)) for x in bare.domain)
    rs = np.concatenate([bare.f1(xs), np.clip(np.round(bare.f1(xs[::3]) * 1.001), flo, fhi)])
    assert _bits(invert_fprime(bare, rs)) == _bits(invert_fprime_eight_step(bare, rs))
    grid = rs[:120].reshape(12, 10)
    assert _bits(invert_fprime(bare, grid)) == _bits(invert_fprime_eight_step(bare, grid))
    for r in rs[::17].tolist():
        got = invert_fprime(bare, r)
        assert isinstance(got, float)
        assert _bits(got) == _bits(invert_fprime_eight_step(bare, r))


def test_an_array_inversion_takes_its_bracket_steps_and_two_jet_calls():
    # one jet for f' at the domain ends, one per bracket step, one for both
    # ends of every bracket: the polish and its check call no jet of their own
    params, a, b = DUAL_OSCILLATORY[0]
    model = family_model("oscillatory", params, domain=(5e4, 2e6))
    rs = _dual_rs(model, a, b)
    calls = []

    def fjet(x, lo, hi):
        calls.append(np.shape(x))
        return model.fjet(x, lo, hi)

    counted = dataclasses.replace(model, fjet=fjet)
    flo, fhi = model.fjet(np.array(model.domain), 1, 1)[0].tolist()
    phase._newton_brackets(counted, rs, flo, fhi)
    steps = len(calls)
    calls.clear()
    invert_fprime(counted, rs)
    assert len(calls) <= steps + 2
    assert calls[-1] == (2,) + rs.shape


def test_brackets_reach_the_float_limit_across_a_non_finite_fprime_region():
    # exponential(1, 2) on [0, 4000]: f' = 2^x log 2 overflows to inf from
    # x ~ 1024 on, and the first midpoint, 2000, lies there.  Every bracket
    # still ends at the float limit with f'(a) < r <= f'(b), which is the
    # premise of the polish's two-end table
    bare = _bare("exponential", [1.0, 2.0], domain=(0.0, 4000.0))
    rs = np.geomspace(1.0, 1e300, 301)
    with np.errstate(over="ignore"):
        assert bare.f1(2000.0) == math.inf
        flo, fhi = bare.fjet(np.array(bare.domain), 1, 1)[0].tolist()
        a, b = phase._newton_brackets(bare, rs, flo, fhi)
        xs = invert_fprime(bare, rs)
        assert _bits(xs) == _bits(invert_fprime_eight_step(bare, rs))
    mid = 0.5 * (a + b)
    assert np.all((mid == a) | (mid == b)) and np.all(a < b)
    assert np.all(bare.f1(a) < rs) and np.all(rs <= bare.f1(b))
    assert np.all((xs == a) | (xs == b))


def test_an_inversion_that_cannot_reach_r_still_raises_stalled():
    # f' = x + [x >= 5] jumps over r = 5.5: the bracket closes on the jump
    # and neither end is within 1e-12 of r
    def fjet(x, lo, hi):
        x = np.asarray(x, dtype=float)
        return [[0.5 * x * x, x + (x >= 5.0), np.ones_like(x)][k] for k in range(lo, hi + 1)]

    jump = PhaseAmplitudeModel(fjet=fjet, gjet=fjet, domain=(0.0, 10.0))
    for r in (5.5, np.array([2.0, 5.5, 7.0])):
        with pytest.raises(RuntimeError, match="stalled") as got:
            invert_fprime(jump, r)
        with pytest.raises(RuntimeError) as want:
            invert_fprime_eight_step(jump, r)
        assert str(got.value) == str(want.value)
    assert invert_fprime(jump, 7.0) == 6.0


def test_power_phase_derivative_values():
    model, _ = builtin_family("power_phase")
    x = 300.0
    assert float(model.f2(x)) == pytest.approx(1.0 / (12.0 * math.sqrt(x / 3.0)), rel=1e-13)
    assert float(Orders(model).f3(x)) == pytest.approx(-(1.0 / (8.0 * math.sqrt(3.0))) * x ** -1.5,
                                               rel=1e-13)


def test_quadratic_derivatives_constant():
    model, _ = builtin_family("quadratic", [0.5])
    xs = np.linspace(-5, 5, 11)
    assert np.all(np.asarray(model.f2(xs)) == 0.5)
    assert np.all(np.asarray(Orders(model).f3(xs)) == 0.0)


def test_ik_critical_weight_power_law():
    # the branch weights of the monomial family are power functions
    # proportional to x^(1/2 - 2 alpha) where the branches exist; the
    # discriminant H^2 - G is proportional to (alpha - 7/2)^2 - 9, so both
    # branches are real only for alpha >= 6.5 (below that the partition
    # correctly reports no pm intervals and those terms vanish)
    model, _ = builtin_family("ik_monomial", [7.0, 100.0, 1e4])
    wr = ReferenceWR(model)
    assert float(wr.discriminant(150.0)) > 0
    for sigma in (+1, -1):
        w1 = abs(float(wr.pm_terms(150.0, sigma)[0]))
        w2 = abs(float(wr.pm_terms(300.0, sigma)[0]))
        slope = math.log(w2 / w1) / math.log(2.0)
        assert slope == pytest.approx(0.5 - 2.0 * 7.0, abs=1e-6)


def test_ik_alpha2_discriminant_negative():
    # for alpha = 2 the discriminant is -13.5 (X/N^2)^2 x^(-3) < 0: no pm
    # branches anywhere, exercising the vacuous-partition escape
    from vdcorput.errbudget import partition_assumptions
    model, _ = builtin_family("ik_monomial", [2.0, 100.0, 1e4])
    wr = ReferenceWR(model)
    x = 150.0
    assert float(wr.discriminant(x)) == pytest.approx(-13.5 * x ** -3, rel=1e-9)
    part = partition_assumptions(model, 100.0, 400.0)
    assert part.jpm == [] and part.j0 == []


def test_inversion_range_error_names_interval():
    model, _ = builtin_family("quadratic", [1.0], domain=(0.0, 10.0))
    with pytest.raises(InversionRangeError) as exc:
        invert_fprime(model, 11.0)
    assert exc.value.admissible == (0.0, 10.0)


def test_family_parameter_validation():
    with pytest.raises(FamilyError):
        builtin_family("quadratic", [-1.0])
    with pytest.raises(FamilyError):
        builtin_family("exponential", [1.0, 0.5])  # beta must exceed 1
    with pytest.raises(FamilyError):
        builtin_family("ik_monomial", [0.5, 100.0, 1e4])
    with pytest.raises(FamilyError):
        builtin_family("no_such_family")
    with pytest.raises(FamilyError):
        builtin_family("quadratic", [math.nan])  # nan <= 0 is false
    with pytest.raises(FamilyError):
        builtin_family("sine_amplitude", [0.37, math.inf])  # the trailing scale factor


def test_power_phase_scale_factor_search():
    # the decreasing search should settle on 1/2 for the cubic-power phase
    _, profile = builtin_family("power_phase")
    assert profile.epsilon == 0.5
    assert profile.eta == pytest.approx(0.75)


def test_oscillatory_family_rejects_negative_curvature():
    with pytest.raises(FamilyError):
        builtin_family("oscillatory", [0.001, 10.0, 1.0], domain=(1.0, 100.0))


ALL_FAMILIES = FAMILIES + [("oscillatory", [1.0, 0.5, 2.0])]


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("name,params", ALL_FAMILIES, ids=[f[0] for f in ALL_FAMILIES])
def test_jet_slices_equal_single_orders_bit_for_bit(name, params):
    # every lo..hi slice of a jet gives, order by order, the bits of a call
    # for that order alone and of the model's one-order views; a 0-d input
    # (a float or a 0-d array) gives 0-d outputs
    model = family_model(name, params)
    lo, hi = model.domain
    xs = lo + (hi - lo) * np.array([1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9])
    views = {("fjet", 0): model.f, ("fjet", 1): model.f1, ("fjet", 2): model.f2,
             ("gjet", 0): model.g}
    for jet_name, top in (("fjet", 4), ("gjet", 3)):
        jet = getattr(model, jet_name)
        for x in [xs] + xs.tolist() + [np.array(v) for v in xs.tolist()]:
            single = [jet(x, k, k)[0] for k in range(top + 1)]
            for k, v in enumerate(single):
                assert np.shape(v) == np.shape(x), (jet_name, k)
                if (jet_name, k) in views:
                    assert _bits(views[jet_name, k](x)) == _bits(v), (jet_name, k)
            for a in range(top + 1):
                for b in range(a, top + 1):
                    got = jet(x, a, b)
                    assert len(got) == b - a + 1
                    for k, v in zip(range(a, b + 1), got):
                        assert np.shape(v) == np.shape(x), (jet_name, a, b, k)
                        assert _bits(v) == _bits(single[k]), (jet_name, a, b, k)


def test_jets_compute_shared_transcendentals_once(monkeypatch):
    # a jet call takes one sine/cosine pair or one exponential whatever the
    # orders, and a one-order call takes only what its order needs
    counts = collections.Counter()

    class CountingNumpy:
        def __getattr__(self, name):
            fn = getattr(np, name)
            if name not in ("sin", "cos", "exp"):
                return fn

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

    osc = family_model("oscillatory", [1.0, 0.5, 2.0])
    sine = family_model("sine_amplitude", [0.37])
    expo = family_model("exponential", [1.0, 2.0])
    monkeypatch.setattr(phase, "np", CountingNumpy())
    xs = np.linspace(10.0, 200.0, 64)
    for jet, lo, hi, want in ((osc.fjet, 0, 4, {"sin": 1, "cos": 1}),
                              (osc.fjet, 0, 0, {"sin": 1}),
                              (sine.gjet, 0, 3, {"sin": 1, "cos": 1}),
                              (sine.gjet, 0, 0, {"sin": 1}),
                              (sine.gjet, 3, 3, {"cos": 1}),
                              (expo.fjet, 0, 4, {"exp": 1})):
        for x in (xs, 57.5):
            counts.clear()
            jet(x, lo, hi)
            assert counts == want, (jet, lo, hi)
