import cmath
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from vdcorput import experiments
from vdcorput.experiments import (CKReport, ck_quadratic, curve_svg,
                                  estimate_c, example_delta, example_regimes,
                                  ik_experiment, kusmin_landau_compare, rounding_bound,
                                  cli_main)
from vdcorput.expsum import curve_samples
from vdcorput.numutil import nearest_decomp
from vdcorput.phase import builtin_family

from helpers import fitted_constant, split_fit


# ---------------------------------------------------------------------------
# regimes of the cubic-power example
# ---------------------------------------------------------------------------

def test_regime_one_detection_is_exact_integer_arithmetic():
    fprime_integer = builtin_family("power_phase")[0].fprime_integer
    assert fprime_integer(120000) == 100
    assert fprime_integer(30000) == 50
    assert fprime_integer(30001) is None
    assert fprime_integer(12 * 7 ** 2 + 1) is None
    # an int n stays exact past 2^53, where n and n + 1 share one float
    k = 10 ** 8 + 7
    assert fprime_integer(12 * k * k) == k
    assert fprime_integer(12 * k * k + 1) is None


def test_regime_classification():
    assert example_regimes(120000).regime == 1
    assert example_regimes(30000).regime == 1
    rep = example_regimes(30001)
    u = math.sqrt(30001 / 12.0)
    want = 2 if abs(u - round(u)) <= (12.0 * 30001) ** -0.25 else 3
    assert rep.regime == want
    assert rep.residual is not None and rep.residual <= 2.0 * rep.bound


def test_regime_three_prediction():
    c_ref, _ = estimate_c(50, 60)
    n = 50021
    rep = example_regimes(n, c_reference=c_ref)
    assert rep.regime == 3
    assert rep.residual <= 0.1 * rep.bound  # the refined-bound constant is tiny


def test_estimate_c_recovers_synthetic_sequence(monkeypatch):
    c0 = 0.4 - 0.7j
    monkeypatch.setattr(experiments, "example_delta",
                        lambda n: c0 + (1.0 + 0.5j) / math.sqrt(n / 12))  # n = 12 k^2
    c, resid = estimate_c(20, 60)
    assert abs(c - c0) <= 1e-12
    assert resid <= 1e-12


def test_estimate_c_flags_non_cauchy_sequence(monkeypatch):
    rng = np.random.default_rng(0)
    monkeypatch.setattr(experiments, "example_delta",
                        lambda n: complex(rng.normal(), rng.normal()))
    with pytest.raises(RuntimeError):
        estimate_c(20, 60)


def test_estimate_c_window_consistency():
    # window-to-window drift is dominated by the neglected 1/k^2 term, a
    # systematic effect far above the in-window fit residuals; both windows
    # must still agree to well below the acceptance scale
    c1, r1 = estimate_c(90, 100)
    c2, r2 = estimate_c(50, 60)
    assert abs(c1 - c2) <= 1e-4
    assert max(r1, r2) <= 1e-5


# ---------------------------------------------------------------------------
# quadratic reciprocity bound
# ---------------------------------------------------------------------------

def test_ck_example_values():
    rep = ck_quadratic(0.7, 2)
    assert rep.nearest == 3
    assert rep.bound == pytest.approx(3.14 * abs(3 - 2 / 0.7), rel=1e-12)
    assert rep.measured <= rep.bound


def test_ck_sign_flip_is_conjugate():
    plus = ck_quadratic(0.7, 2)
    minus = ck_quadratic(-0.7, 2)
    assert plus.measured == pytest.approx(minus.measured, abs=1e-12)
    assert plus.bound == minus.bound


def test_ck_random_sweep():
    rng = np.random.default_rng(12)
    for _ in range(30):
        omega = float(rng.uniform(0.05, 0.95)) * (1 if rng.random() < 0.5 else -1)
        n = int(rng.integers(1, 51))
        assert ck_quadratic(omega, n).passed


def test_ck_validation():
    with pytest.raises(ValueError):
        ck_quadratic(1.5, 3)
    with pytest.raises(ValueError):
        ck_quadratic(0.5, 0)


@pytest.mark.parametrize("omega,n", [(0.5, 3), (-0.5, 3), (0.25, 5), (0.125, 7)])
def test_ck_integer_ratio_is_not_a_false_violation(omega, n):
    # n / |omega| is an integer, so the CK bound is exactly 0 and only the
    # rounding of the two sums is left to compare against
    rep = ck_quadratic(omega, n)
    assert rep.bound == 0.0
    assert 0.0 < rep.rounding_bound < 1e-10
    assert rep.measured <= rep.rounding_bound
    assert rep.passed


def test_ck_still_reports_a_real_violation(monkeypatch):
    monkeypatch.setattr(experiments, "CK_CONSTANT", 1e-3)
    rep = ck_quadratic(0.7, 2)
    assert rep.measured > rep.bound + rep.rounding_bound
    assert not rep.passed


# ---------------------------------------------------------------------------
# slope-bound comparison
# ---------------------------------------------------------------------------

def test_kl_small_curvature():
    model, _ = builtin_family("quadratic", [0.001], domain=(0.0, 1e6))
    rep = kusmin_landau_compare(model, 200.0, 400.0)  # slope range [0.2, 0.4]
    assert rep.theta == pytest.approx(0.2)
    assert rep.classical_ok
    assert rep.classical_bound == pytest.approx(1.0 / math.tan(0.1 * math.pi), rel=1e-12)
    assert rep.residual < 0.3 * rep.classical_bound
    assert rep.preconditions_ok


def test_kl_plain_sum_keeps_a_limit_taken_as_an_integer():
    # a = 200 + 1e-8 is the integer 200 to the starred sum, and so to the
    # unhalved one: both sums are those at a = 200
    model, _ = builtin_family("quadratic", [0.001], domain=(0.0, 1e6))
    near, on = (kusmin_landau_compare(model, a, 400.0) for a in (200.0 + 1e-8, 200.0))
    assert near.starred_abs == on.starred_abs
    assert near.plain_abs == on.plain_abs


def test_kl_rejects_integer_slope_range():
    model, _ = builtin_family("quadratic", [0.001], domain=(0.0, 1e6))
    with pytest.raises(ValueError):
        kusmin_landau_compare(model, 200.0, 1300.0)  # slope range [0.2, 1.3]


def test_kl_rejects_nonunit_amplitude():
    model, _ = builtin_family("ik_monomial", [2.0, 100.0, 1e4])
    with pytest.raises(ValueError):
        kusmin_landau_compare(model, 110.0, 120.0)


def test_kl_growth_supports_one_over_pi_theta():
    # as theta shrinks the measured sums track 1/(pi theta), half the
    # classical cot(pi theta / 2); the claim is asymptotic, so the ratio is
    # checked only at small theta while the classical bound holds throughout
    model, _ = builtin_family("quadratic", [0.001], domain=(0.0, 1e6))
    for theta0 in (0.02, 0.05, 0.1, 0.15, 0.25, 0.35, 0.45):
        rep = kusmin_landau_compare(model, theta0 / 0.001, (1 - theta0) / 0.001)
        assert rep.plain_abs <= rep.classical_bound
        if theta0 <= 0.15:
            assert rep.plain_abs * math.pi * theta0 <= 1.25


def test_linear_phase_geometric_oracle():
    # degenerate curvature: the explicit two-term value tracks the exact
    # geometric sum to an O(1) offset (the refined bound is vacuous there)
    c, a, b = 0.3, 4.5, 45.5
    n0, n1 = math.ceil(a), math.floor(b)
    z = cmath.exp(2j * math.pi * c)
    closed = cmath.exp(2j * math.pi * c * n0) * (z ** (n1 - n0 + 1) - 1) / (z - 1)
    ns = np.arange(n0, n1 + 1)
    direct = complex(np.sum(np.exp(2j * np.pi * np.mod(c * ns, 1.0))))
    assert direct == pytest.approx(closed, abs=1e-12)
    da, db = nearest_decomp(c * a), nearest_decomp(c * b)
    explicit = (cmath.exp(2j * math.pi * ((c * b) % 1.0)) / (2j * math.pi * db.signed_frac)
                - cmath.exp(2j * math.pi * ((c * a) % 1.0)) / (2j * math.pi * da.signed_frac))
    assert abs(direct - explicit) <= 1.5


# ---------------------------------------------------------------------------
# monomial pair
# ---------------------------------------------------------------------------

def test_ik_alpha2():
    rep = ik_experiment(2.0, 2.0, 100.0, 1e4)
    assert rep.m_scale == 100.0 and rep.mu == pytest.approx(2.0)
    assert abs(rep.delta) <= 0.2  # fitted constants are far below 1 here


def test_ik_conjugate_exponent_pair():
    rep = ik_experiment(1.5, 2.0, 100.0, 1e4)
    assert rep.beta == pytest.approx(3.0)
    assert rep.mu == pytest.approx(2.0 ** 0.5)
    assert abs(rep.delta) <= 0.2


def test_ik_dual_side_matches_transform_machinery():
    from vdcorput.transform import rhs_main_sum
    model, _ = builtin_family("ik_monomial", [2.0, 100.0, 1e4])
    rep = ik_experiment(2.0, 2.0, 100.0, 1e4)
    res = rhs_main_sum(model, 100.0, 200.0)
    assert rep.rhs == pytest.approx(res.rhs_main, abs=1e-9)


def test_ik_nu_independence():
    # generic X keeps the dual-side limits off the integers; structurally
    # special choices (say X = 4 N^2 at alpha = 3/2, which makes mu M an
    # integer for even powers of nu) suppress the endpoint loss entirely and
    # would make the per-nu constants incomparable
    consts = []
    for nu in (2.0, 4.0, 8.0, 16.0):
        ratios = [ik_experiment(1.5, nu, float(n), 3.0 * n * n + 11.0).ratio
                  for n in (50, 80, 110, 140)]
        consts.append(max(ratios))
    assert max(consts) <= 2.0 * min(consts)


def test_ik_validation():
    with pytest.raises(ValueError):
        ik_experiment(2.0, 2.0, 200.0, 1e4)  # N > sqrt(X)
    with pytest.raises(ValueError):
        ik_experiment(2.0, 2.0, 0.0, 1e4)    # N = 0 passes N <= sqrt(X)
    with pytest.raises(ValueError, match="X=inf"):
        ik_experiment(2.0, 2.0, 100.0, math.inf)  # passes N <= sqrt(X), makes M = inf


# ---------------------------------------------------------------------------
# the ck and ik sums against 40-digit mpmath
# ---------------------------------------------------------------------------

def _mp_e(x):
    return mp.expjpi(2 * x)


def _mp_starred(lo, hi, term):
    """Starred sum of term(k) over the integers k in [lo, hi], at mpmath's
    working precision."""
    k0, k1 = math.ceil(lo), math.floor(hi)
    s = mp.fsum(term(k) for k in range(k0, k1 + 1))
    if lo == k0:
        s -= term(k0) / 2
    if hi == k1:
        s -= term(k1) / 2
    return s


def _ck_draws(count, seed):
    # the draws of ``ck --random count --seed seed``
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        omega = float(rng.uniform(0.05, 0.95)) * (1 if rng.random() < 0.5 else -1)
        out.append((omega, int(rng.integers(1, 51))))
    return out


@pytest.mark.parametrize("omega,n", _ck_draws(6, 3) + [(0.7, 2)])
def test_ck_sums_against_40_digit_mpmath(omega, n):
    rep = ck_quadratic(omega, n)
    with mp.workdps(40):
        w, m = mp.mpf(omega), abs(mp.mpf(omega))
        sgn = 1 if omega > 0 else -1
        s1 = _mp_starred(0, rep.nearest, lambda k: _mp_e(w * k * k / 2))
        s2 = _mp_starred(0, n, lambda k: _mp_e(-sgn * k * k / (2 * m)))
        exact = abs(s1 - _mp_e(mp.mpf(sgn) / 8) / mp.sqrt(m) * s2)
        assert abs(rep.measured - exact) <= rep.rounding_bound


@pytest.mark.parametrize("alpha,nu,n_scale,x_scale", [(1.5, 2.0, 100.0, 1e4),
                                                      (2.0, 2.0, 100.0, 1e4)])
def test_ik_sums_against_40_digit_mpmath(alpha, nu, n_scale, x_scale):
    rep = ik_experiment(alpha, nu, n_scale, x_scale)
    lhs_bound = rounding_bound(builtin_family("ik_monomial", [alpha, n_scale, x_scale])[0],
                               n_scale, nu * n_scale)
    rhs_bound = rounding_bound(builtin_family("ik_monomial", [rep.beta, rep.m_scale, x_scale])[0],
                               rep.m_scale, rep.mu * rep.m_scale)
    with mp.workdps(40):
        A, B, N, M, X = (mp.mpf(v) for v in (alpha, rep.beta, n_scale, rep.m_scale, x_scale))
        lhs = _mp_starred(n_scale, nu * n_scale,
                          lambda k: mp.sqrt(A / k) * _mp_e((X / A) * (k / N) ** A))
        rhs = _mp_starred(rep.m_scale, rep.mu * rep.m_scale,
                          lambda k: mp.sqrt(B / k) * _mp_e(mp.mpf(1) / 8 - (X / B) * (k / M) ** B))
        assert abs(rep.lhs - mp.mpc(lhs)) <= lhs_bound
        assert abs(rep.rhs - mp.mpc(rhs)) <= rhs_bound
        assert abs(rep.delta - (lhs - rhs)) <= lhs_bound + rhs_bound


# ---------------------------------------------------------------------------
# fitted constants
# ---------------------------------------------------------------------------

def test_fitted_constant_helpers():
    assert fitted_constant([0.3, 1.2, 0.7]) == 1.2
    assert split_fit([0.3, 9.0, 0.7, 9.0]) == 0.7
    with pytest.raises(ValueError):
        fitted_constant([math.inf])


# ---------------------------------------------------------------------------
# CLI, artifacts
# ---------------------------------------------------------------------------

def test_svg_output():
    samples = curve_samples(builtin_family("power_phase")[0], 50.0, 1)
    svg = curve_svg(samples)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
    assert "<polyline" in svg and svg.endswith("</svg>\n")


def test_cli_example_writes_report(tmp_path):
    rc = cli_main(["example", "--N", "30000", "--json", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "example_30000.json").read_text())
    assert payload["regime"] == 1
    assert payload["version"]
    assert "config" not in payload


def test_cli_curve_artifacts(tmp_path):
    svg = tmp_path / "spiral.svg"
    csv = tmp_path / "curve.csv"
    rc = cli_main(["curve", "--family", "power_phase", "--tmax", "100",
                   "--svg", str(svg), "--csv", str(csv)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")
    assert csv.read_text().splitlines()[0] == "t,re,im"


def test_cli_reports_are_bit_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert cli_main(["ik", "--alpha", "2", "--nu", "2", "--N", "100",
                         "--X", "10000", "--json", str(d)]) == 0
    assert (d1 / "ik.json").read_bytes() == (d2 / "ik.json").read_bytes()


def test_cli_import_loads_no_polynomial_scipy_or_mpmath():
    # in a fresh interpreter: the package loads none of its modules; the
    # commands that never reach the dual side or the budget start without
    # transform, errbudget and quad; and with every module loaded, scipy and
    # mpmath (test-only references) and numpy.polynomial (the quadrature
    # table is literal) stay out
    src = Path(__file__).resolve().parents[1] / "src"
    code = """if True:
        import contextlib, io, sys
        import vdcorput
        seen = [sorted(m for m in sys.modules if m.startswith("vdcorput."))]
        from vdcorput.experiments import cli_main
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["sum", "--a", "1", "--b", "50"], ["curve", "--tmax", "5"],
                         ["ck", "--omega", "0.7", "--n", "2"],
                         ["kl", "--family", "quadratic", "--params", "0.001",
                          "--domain", "0,1e6", "--a", "200", "--b", "400"],
                         ["ik", "--N", "10", "--X", "100"]):
                assert cli_main(argv) == 0, argv
        seen.append(sorted(m for m in sys.modules
                           if m in ("vdcorput.transform", "vdcorput.errbudget", "vdcorput.quad")))
        import vdcorput.transform
        assert "vdcorput.quad" in sys.modules
        seen.append(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")
                           or m.startswith("numpy.polynomial")))
        print(seen)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[[], [], []]"


def test_cli_exit_codes():
    assert cli_main(["ck", "--omega", "0.7", "--n", "2"]) == 0
    assert cli_main(["ck", "--omega", "0.5", "--n", "3"]) == 0  # CK bound 0
    assert cli_main(["ck"]) == 2                      # missing arguments
    assert cli_main(["no-such-command"]) == 2         # usage error
    assert cli_main(["--config", "run.cfg", "ck", "--omega", "0.7", "--n", "2"]) == 2
    assert cli_main(["sum", "--family", "no_family", "--a", "1", "--b", "2"]) == 1


def test_cli_transform_at_a_limit_near_an_integer():
    # 120024.0012 = 12 * 100.01^2: psi at a limit 1.2e-3 from an integer
    assert cli_main(["transform", "--a", "1", "--b", "120024.0012"]) == 0
    # psi has no tolerance to set
    assert cli_main(["transform", "--a", "1", "--b", "1200", "--psi-tol", "1e-8"]) == 2
    assert cli_main(["example", "--N", "30100", "--psi-tol", "1e-6"]) == 2


@pytest.mark.parametrize("argv,limit", [
    (["sum", "--a", "1", "--b", "inf"], "b=inf"),
    (["sum", "--a", "1", "--b", "nan"], "b=nan"),
    (["sum", "--a=-inf", "--b", "2"], "a=-inf"),
    (["curve", "--tmax", "inf"], "t_max=inf"),
    (["transform", "--a", "1", "--b", "inf"], "b=inf"),
    (["budget", "--a", "1", "--b", "inf"], "b=inf"),
    (["transform", "--a", "1", "--b", "nan"], "b=nan"),
    (["budget", "--a=-inf", "--b", "2"], "a=-inf"),
    (["ik", "--N", "0"], "N=0.0"),
    (["budget", "--a", "100", "--b", "50"], "b=50.0"),
    (["transform", "--a", "100", "--b", "50"], "b=50.0"),
    (["sum", "--domain", "5,1", "--a", "1", "--b", "2"], "(5.0, 1.0)"),
    (["sum", "--domain", "nan,1e6", "--a", "1", "--b", "2"], "(nan, 1000000.0)"),
    (["sum", "--domain", "1,inf", "--a", "1", "--b", "2"], "(1.0, inf)"),
    (["transform", "--domain", "10,1", "--a", "2", "--b", "5"], "(10.0, 1.0)"),
    (["sum", "--domain", "1", "--a", "1", "--b", "2"], "--domain takes lo,hi"),
    (["sum", "--family", "quadratic", "--params", "nan", "--a", "1", "--b", "5"], "(nan,)"),
    (["sum", "--family", "quadratic", "--params", "inf", "--a", "1", "--b", "5"], "(inf,)"),
    (["sum", "--family", "exponential", "--params", "1,inf", "--a", "1", "--b", "5"],
     "(1.0, inf)"),
    (["budget", "--family", "oscillatory", "--params", "1,nan,1", "--a", "200", "--b", "300"],
     "(1.0, nan, 1.0)"),
    (["ik", "--X", "inf"], "X=inf"),
    (["ik", "--nu", "nan"], "nu=nan"),
    (["ik", "--alpha", "nan"], "alpha=nan"),
    (["kl", "--family", "quadratic", "--params", "0.001", "--domain", "0,1e6",
      "--a", "400", "--b", "200"], "b=200.0 < a=400.0"),
    (["kl", "--family", "quadratic", "--params", "0.001", "--domain", "0,1e6",
      "--a", "nan", "--b", "200"], "a=nan"),
    # a zero span divided by zero, a negative eps gave an infinite budget
    (["budget", "--family", "quadratic", "--params", "0.4,0", "--a", "1", "--b", "5"],
     "span must be positive, got 0.0"),
    (["budget", "--family", "sine_amplitude", "--params", "0.37,-1", "--a", "100", "--b", "105"],
     "eps must be positive, got -1.0"),
    # a limit outside the family's domain gave nan, a vast budget or an r
    # the user never gave
    (["sum", "--family", "power_phase", "--a", "-5", "--b", "5"],
     "a=-5.0 is outside the domain (0.001, 1000000000000.0)"),
    (["sum", "--family", "zeta_log", "--params", "0.5,1000", "--a", "0", "--b", "5"],
     "a=0.0 is outside the domain (0.001, 1000000000000.0)"),
    (["transform", "--family", "power_phase", "--a", "0.0001", "--b", "50"],
     "a=0.0001 is outside the domain (0.001, 1000000000000.0)"),
    (["transform", "--family", "oscillatory", "--params", "1,1,1", "--a", "0.5", "--b", "50"],
     "a=0.5 is outside the domain (1.0, 1000000.0)"),
    (["budget", "--a", "1e11", "--b", "2e12"],
     "b=2000000000000.0 is outside the domain (0.001, 1000000000000.0)"),
    (["kl", "--family", "quadratic", "--params", "0.001", "--domain", "0,1e6",
      "--a", "200", "--b", "2e6"], "b=2000000.0 is outside the domain (0.0, 1000000.0)"),
    # a curve too large to hold, refused before numpy is asked for it
    (["curve", "--tmax", "1e13"], "1e+13 samples, more than 1e+06"),
    (["ck", "--random", "-3"], "--random takes a count of draws >= 0, got -3"),
    # a budget of [a, a] divided by b - a = 0 where f'(a) is an integer
    (["budget", "--a", "12", "--b", "12"], "the budget needs b > a, got a = b = 12.0"),
    (["transform", "--a", "12", "--b", "12"], "the budget needs b > a, got a = b = 12.0"),
    (["budget", "--family", "quadratic", "--params", "0.5", "--a", "2", "--b", "2"],
     "the budget needs b > a, got a = b = 2.0"),
    (["budget", "--a", "5", "--b", "5"], "the budget needs b > a, got a = b = 5.0"),
    # an output path that cannot be written ended in a FileExistsError traceback
    (["budget", "--a", "100", "--b", "200", "--json", "/dev/null"], "File exists"),
    (["curve", "--tmax", "5", "--svg", "/dev/null/s.svg"], "File exists"),
    # N = 5e10 ran a 20-minute sum and then ran out of memory in the
    # rounding bound: the term count is refused before any summing
    (["ck", "--omega", "1e-9", "--n", "50"], "5e+10 terms, more than 1e+08"),
])
def test_cli_non_finite_limit_is_an_error_not_a_traceback(argv, limit, capsys):
    # a warning, which pytest keeps off stderr, is one more stderr line in a shell
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and limit in err[0]
    assert not caught


def test_cli_ik_refuses_a_sum_it_cannot_finish(capsys):
    # N = 1e-300 makes M = X/N = 1e304, and the dual sum over [M, mu M] would
    # never end: the term count is refused before any summing
    start = time.process_time()
    assert cli_main(["ik", "--N", "1e-300"]) == 1
    assert time.process_time() - start < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "1e+304 terms" in err[0]


def test_cli_transform_roundtrip(tmp_path):
    rc = cli_main(["transform", "--family", "quadratic", "--params", "0.37,100",
                   "--domain", "0,100", "--a", "0", "--b", "100",
                   "--json", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "transform.json").read_text())
    assert abs(payload["measuredDelta"]["re"]) < 1e-9
    assert payload["budget"]["total"] > 0
