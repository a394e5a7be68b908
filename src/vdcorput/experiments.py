"""Desk-scale experiments, constant extraction, baselines, and the CLI.

Every experiment here has a brute-force oracle on at least one side: direct
summation for the power-phase example regimes and the quadratic reciprocity
bound, closed-form geometric sums for the linear-phase check, and the
printed dual-side formula for the monomial transform.  Every sum among them
is ``direct_starred_sum`` on a built-in family.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .expsum import CurveSample, curve_samples, direct_starred_sum, write_curve_csv
from .numutil import (CHUNK, TWO_PI_I, amplitude_e, check_finite, check_interval,
                      integer_range, modified_sawtooth, nearest_decomp, nearest_integer,
                      sawtooth_psi)
from .phase import PhaseAmplitudeModel, builtin_family, family_model, fprime_nearest

# transform, errbudget and quad are imported where they run, so that the
# commands that never reach them (sum, curve, ck, kl, ik) start without them


# ---------------------------------------------------------------------------
# the power-phase example: three regimes
# ---------------------------------------------------------------------------

def example_delta(n: int) -> complex:
    """Measured residual of the power-phase identity at upper limit n."""
    from .transform import rhs_main_sum

    model = family_model("power_phase")
    lhs = direct_starred_sum(model, 1.0, float(n))
    rhs = rhs_main_sum(model, 1.0, float(n))
    return lhs - rhs.rhs_main


@dataclass
class RegimeReport:
    n: int
    regime: int
    dist: float
    measured: complex
    predicted: complex
    residual: Optional[float]
    bound: float
    c_reference: Optional[complex]

    def to_json(self) -> dict:
        out = {
            "schema": "example-regime/1",
            "version": __version__,
            "n": self.n,
            "regime": self.regime,
            "dist": self.dist,
            "measured": {"re": self.measured.real, "im": self.measured.imag},
            "predicted": {"re": self.predicted.real, "im": self.predicted.imag},
            "bound": self.bound,
        }
        if self.residual is not None:
            out["residual"] = self.residual
        if self.c_reference is not None:
            out["cReference"] = {"re": self.c_reference.real, "im": self.c_reference.imag}
        return out


def example_regimes(n: int, c_reference: Optional[complex] = None) -> RegimeReport:
    """Classify n, measure the residual, and evaluate the regime's prediction.

    Regime 1 (f'(n) = sqrt(n/12) an integer by ``fprime_nearest``, which
    decides n = 12 k^2 in exact integer arithmetic) predicts a constant;
    regime 2 predicts the outer-arm sawtooth term with bound
    n^(3/20) + n^(5/12) d^(2/3); regime 3 predicts the inner-weave term plus
    the constant, with bound n^(-1/2) d^(-3).  The constant reference (from
    :func:`estimate_c`) is subtracted from the regime 1/3 residuals when given.
    """
    if n < 13:
        raise ValueError("n must be at least 13")
    measured = example_delta(n)
    model = family_model("power_phase")
    dec = fprime_nearest(model, n)
    if dec.dist == 0.0:
        resid = abs(measured - c_reference) if c_reference is not None else None
        return RegimeReport(n, 1, 0.0, measured, 0j, resid, n ** -0.5, c_reference)
    phase_f = amplitude_e(1.0, (n / 3.0) ** 1.5)
    if dec.dist <= (12.0 * n) ** -0.25:
        predicted = complex(2.0 * sawtooth_psi(float(model.f1(n))) * (3.0 * n) ** 0.25
                            * phase_f * amplitude_e(1.0, 0.125))
        bound = n ** 0.15 + n ** (5.0 / 12.0) * dec.dist ** (2.0 / 3.0)
        return RegimeReport(n, 2, dec.dist, measured, predicted,
                            abs(measured - predicted), bound, None)
    psi = modified_sawtooth(float(n), dec.signed_frac)
    predicted = complex(phase_f * (1.0 / (TWO_PI_I * dec.signed_frac) - psi))
    bound = n ** -0.5 * dec.dist ** -3.0
    resid = abs(measured - predicted - (c_reference or 0j))
    return RegimeReport(n, 3, dec.dist, measured, predicted, resid, bound,
                        c_reference)


def estimate_c(k_min: int, k_max: int) -> Tuple[complex, float]:
    """Constant of the regime-1 residual sequence by a c + beta/k fit to the
    measured residuals at 12 k^2, k_min <= k <= k_max.

    Returns (c, max absolute fit residual); a residual above 0.05 means the
    measured sequence is not settling like 1/k and is reported as a
    diagnostic rather than silently accepted.
    """
    if not (k_max > k_min >= 10):
        raise ValueError("need k_max > k_min >= 10")
    ks = np.arange(k_min, k_max + 1, dtype=float)
    deltas = np.array([example_delta(12 * k * k) for k in range(k_min, k_max + 1)])
    A = np.vstack([np.ones_like(ks), 1.0 / ks]).T
    cr, *_ = np.linalg.lstsq(A, deltas.real, rcond=None)
    ci, *_ = np.linalg.lstsq(A, deltas.imag, rcond=None)
    c = complex(cr[0], ci[0])
    beta = complex(cr[1], ci[1])
    resid = float(np.max(np.abs(deltas - c - beta / ks)))
    if resid > 0.05:
        raise RuntimeError(
            f"regime-1 residuals are not Cauchy: fit residual {resid:.3g} exceeds 0.05")
    return c, resid


# ---------------------------------------------------------------------------
# quadratic reciprocity bound (Coutsias-Kazarinoff)
# ---------------------------------------------------------------------------

# the most terms the two direct sums of ck_quadratic or ik_experiment may take
# together; at some 25 ns a term that is a few seconds
_MAX_TERMS = 10 ** 8


def _check_terms(terms: float) -> None:
    """Refuse a pair of direct sums that take more than ``_MAX_TERMS`` terms."""
    if not terms <= _MAX_TERMS:
        raise ValueError(f"the two direct sums take {terms:.4g} terms, "
                         f"more than {_MAX_TERMS:.0e}")


@dataclass
class CKReport:
    omega: float
    n: int
    nearest: int
    measured: float
    bound: float
    rounding_bound: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "schema": "ck-bound/1", "version": __version__,
            "omega": self.omega, "n": self.n, "nearest": self.nearest,
            "measured": self.measured, "bound": self.bound,
            "roundingBound": self.rounding_bound, "passed": self.passed,
        }


def rounding_bound(model: PhaseAmplitudeModel, a: float, b: float) -> float:
    """A-priori float64 error of ``direct_starred_sum(model, a, b)``: 2^-53
    times the sum of |g(n)| (2 pi |f(n)| + 4) over the integers n in [a, b],
    the reduced phase's error plus a few ulps of cos, sin and product a term.
    The integers go through in ``numutil.CHUNK`` blocks, whose sums
    ``math.fsum`` adds."""
    n_lo, n_hi, _, _ = integer_range(nearest_integer(a), nearest_integer(b))
    blocks = []
    for lo in range(n_lo, n_hi + 1, CHUNK):
        ns = np.arange(lo, min(lo + CHUNK, n_hi + 1), dtype=np.float64)
        terms = np.abs(model.g(ns)) * (2.0 * math.pi * np.abs(model.f(ns)) + 4.0)
        blocks.append(float(np.sum(terms)))
    return 2.0 ** -53 * math.fsum(blocks)


CK_CONSTANT = 3.14  # the C of the Coutsias-Kazarinoff bound


def ck_quadratic(omega: float, n: int) -> CKReport:
    """Check |S_N(omega) - e(sgn/8)/sqrt|omega| S_n(-1/omega)| <= C |N - n/omega|
    with C = CK_CONSTANT, N the nearest integer to n/omega and S_K(w) the
    starred sum of e(w k^2 / 2) over 0 <= k <= K.  The check allows for the
    float64 rounding bound of the two sums on top of C |N - n/omega|, which
    is 0 when n/omega is an integer.  A pair whose two sums take more than
    ``_MAX_TERMS`` terms, n/|omega| + n, raises ValueError before any work."""
    if not (0 < abs(omega) < 1):
        raise ValueError("omega must satisfy 0 < |omega| < 1")
    if n < 1:
        raise ValueError("n must be positive")
    s = 1.0 if omega > 0 else -1.0
    m = abs(omega)
    _check_terms(n / m + n)
    big_n = nearest_decomp(n / m).nearest
    q1 = family_model("quadratic", [m])
    q2 = family_model("quadratic", [1.0 / m])
    s1 = direct_starred_sum(q1, 0.0, float(big_n), conjugate=s < 0)
    s2 = direct_starred_sum(q2, 0.0, float(n), conjugate=s > 0)
    measured = abs(s1 - amplitude_e(1.0, s / 8.0) / math.sqrt(m) * s2)
    bound = CK_CONSTANT * abs(big_n - n / m)
    rounding = rounding_bound(q1, 0.0, big_n) + rounding_bound(q2, 0.0, n) / math.sqrt(m)
    return CKReport(omega, n, big_n, float(measured), float(bound), rounding,
                    bool(measured <= bound + rounding))


# ---------------------------------------------------------------------------
# linear-slope comparison (Kusmin-Landau)
# ---------------------------------------------------------------------------

@dataclass
class KLReport:
    theta: float
    plain_abs: float
    classical_bound: float
    starred_abs: float
    explicit: complex
    residual: float
    refined_bound: float
    classical_ok: bool
    preconditions_ok: bool

    def to_json(self) -> dict:
        return {
            "schema": "kusmin-landau/1", "version": __version__,
            "theta": self.theta, "plainAbs": self.plain_abs,
            "classicalBound": self.classical_bound,
            "starredAbs": self.starred_abs,
            "explicit": {"re": self.explicit.real, "im": self.explicit.imag},
            "residual": self.residual, "refinedBound": self.refined_bound,
            "classicalOk": self.classical_ok,
            "preconditionsOk": self.preconditions_ok,
        }


def kusmin_landau_compare(model: PhaseAmplitudeModel, a: float, b: float) -> KLReport:
    """Classical cot(pi theta / 2) bound against the explicit two-term value.

    Needs unit amplitude and a slope range free of integers; theta is the
    distance from the slope range to the nearest integer.
    """
    check_interval(a, b)
    xs = np.linspace(a, b, 257)
    if float(np.max(np.abs(np.asarray(model.g(xs), dtype=float) - 1.0))) > 1e-12:
        raise ValueError("the comparison applies to unit amplitude only")
    da, db = fprime_nearest(model, a), fprime_nearest(model, b)
    # an f' taken as an integer is in the range, so theta > 0 past this test
    r_lo, r_hi, _, _ = integer_range(da, db)
    if r_lo <= r_hi:
        raise ValueError("slope range contains an integer: theta = 0")
    theta = min(da.dist, db.dist)

    # half-integer limits cover the same integers and halve nothing
    n_lo, n_hi, _, _ = integer_range(nearest_integer(a), nearest_integer(b))
    plain = direct_starred_sum(model, n_lo - 0.5, n_hi + 0.5)
    starred = direct_starred_sum(model, a, b)

    e_fb = amplitude_e(1.0, float(model.f(b)))
    e_fa = amplitude_e(1.0, float(model.f(a)))
    explicit = complex(e_fb / (TWO_PI_I * db.signed_frac)
                       - e_fa / (TWO_PI_I * da.signed_frac))
    residual = abs(starred - explicit)

    M = b - a
    T = float(model.f2(0.5 * (a + b))) * M * M
    if T > 0:
        refined_bound = (1.0 / (M * theta ** 2) + T / (M ** 2 * theta ** 3)
                           + (1.0 + M / T) / math.sqrt(T))
    else:
        refined_bound = math.inf  # degenerate linear phase

    classical = 1.0 / math.tan(math.pi * theta / 2.0)
    pre_ok = (da.dist > math.sqrt(float(model.f2(a)))
              and db.dist > math.sqrt(float(model.f2(b))))
    return KLReport(theta, abs(plain), classical, abs(starred), explicit,
                    residual, refined_bound, abs(plain) <= classical, pre_ok)


# ---------------------------------------------------------------------------
# the monomial transform pair (Iwaniec-Kowalski shape)
# ---------------------------------------------------------------------------

@dataclass
class IKReport:
    alpha: float
    beta: float
    nu: float
    mu: float
    n_scale: float
    m_scale: float
    x_scale: float
    lhs: complex
    rhs: complex
    delta: complex
    scale: float
    ratio: float

    def to_json(self) -> dict:
        return {
            "schema": "ik-transform/1", "version": __version__,
            "alpha": self.alpha, "beta": self.beta, "nu": self.nu, "mu": self.mu,
            "N": self.n_scale, "M": self.m_scale, "X": self.x_scale,
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
            "delta": {"re": self.delta.real, "im": self.delta.imag},
            "scale": self.scale, "ratio": self.ratio,
        }


def ik_experiment(alpha: float, nu: float, n_scale: float, x_scale: float) -> IKReport:
    """Both sides of the monomial-pair identity by direct summation.

    The dual side runs over M <= m <= mu M with M = X/N, 1/alpha + 1/beta = 1,
    mu^beta = nu^alpha, and weights sqrt(beta/m) e(1/8 - (X/beta)(m/M)^beta):
    e(1/8) times the conjugated starred sum of the ik_monomial(beta, M, X)
    family.  A pair whose two sums take more than ``_MAX_TERMS`` terms,
    (nu - 1) N + (mu - 1) M, raises ValueError before any work.
    """
    check_finite(alpha=alpha, nu=nu, N=n_scale, X=x_scale)
    if alpha <= 1 or nu <= 1:
        raise ValueError("need alpha > 1 and nu > 1")
    if not (n_scale > 0 and x_scale > 0):
        raise ValueError(f"need N > 0 and X > 0, got N={n_scale}, X={x_scale}")
    if n_scale * n_scale > x_scale * (1 + 1e-12):
        raise ValueError("need N <= sqrt(X)")
    beta = alpha / (alpha - 1.0)
    mu = nu ** (alpha / beta)
    m_scale = x_scale / n_scale
    _check_terms((nu - 1.0) * n_scale + (mu - 1.0) * m_scale)

    model = family_model("ik_monomial", [alpha, n_scale, x_scale])
    lhs = direct_starred_sum(model, n_scale, nu * n_scale)
    dual = family_model("ik_monomial", [beta, m_scale, x_scale])
    rhs = complex(amplitude_e(1.0, 0.125)) * direct_starred_sum(
        dual, m_scale, mu * m_scale, conjugate=True)
    delta = lhs - rhs
    scale = n_scale ** -0.5 + m_scale ** -0.5
    return IKReport(alpha, beta, nu, mu, n_scale, m_scale, x_scale,
                    lhs, rhs, delta, scale, abs(delta) / scale)


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------

def curve_svg(samples: Sequence[CurveSample]) -> str:
    """A single autoscaled polyline through the samples (SVG 1.1 plain), on an
    800 x 800 canvas with a 20-unit margin."""
    xs = np.array([s.value.real for s in samples])
    ys = np.array([s.value.imag for s in samples])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    scale = 760.0 / (max(x1 - x0, y1 - y0) or 1.0)
    pts = " ".join(f"{20.0 + (x - x0) * scale:.2f},{780.0 - (y - y0) * scale:.2f}"
                   for x, y in zip(xs, ys))
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="800" height="800" viewBox="0 0 800 800">\n'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="0.6"/>\n'
        "</svg>\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _dump_json(payload: dict, json_dir: Optional[str], name: str) -> None:
    """Write the payload, with the package version, to json_dir/name when
    --json gave a directory."""
    if not json_dir:
        return
    path = Path(json_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**payload, "version": __version__},
                               sort_keys=True, indent=2) + "\n")


def _family_from_args(args) -> Tuple[str, List[float], Optional[Tuple[float, float]]]:
    """(name, params, domain) for family_model or builtin_family."""
    params = [float(t) for t in (args.params.split(",") if args.params else []) if t]
    domain = None
    if args.domain:
        try:
            lo, hi = (float(t) for t in args.domain.split(","))
        except ValueError:
            raise ValueError(f"--domain takes lo,hi, got {args.domain!r}") from None
        domain = (lo, hi)
    return args.family, params, domain


def _check_limits(model: PhaseAmplitudeModel, a: float, b: float) -> None:
    """Refuse non-finite limits, b < a, and a limit outside the model's domain,
    with a ValueError that names the limit."""
    check_interval(a, b)
    lo, hi = model.domain
    for name, x in (("a", a), ("b", b)):
        if not lo <= x <= hi:
            raise ValueError(f"{name}={x} is outside the domain ({lo}, {hi}) of {model.name}")


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vdcorput",
        description="Exponential sums, their dual-side transform, and the error budget")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, family=False, interval=False):
        """The subcommand's parser, with the family arguments when family or
        interval, and then --a and --b when interval."""
        p = sub.add_parser(name, help=help)
        if family or interval:
            p.add_argument("--family", default="power_phase")
            p.add_argument("--params", default="")
            p.add_argument("--domain", default=None, help="lo,hi")
        if interval:
            p.add_argument("--a", type=float, required=True)
            p.add_argument("--b", type=float, required=True)
        return p

    command("sum", "direct starred sum", interval=True)
    command("transform", "dual-side sum, endpoint terms, measured residual", interval=True)
    command("budget", "error budget on an interval", interval=True)

    p = command("example", "power-phase regime report at N")
    p.add_argument("--N", type=int, required=True)

    p = command("estimate-c", "regime-1 constant by 1/k extrapolation")
    p.add_argument("--kmin", type=int, default=50)
    p.add_argument("--kmax", type=int, default=100)

    p = command("ck", "quadratic reciprocity bound check")
    p.add_argument("--omega", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--random", type=int, default=0, help="number of random draws")
    p.add_argument("--seed", type=int, default=0)

    command("kl", "classical slope-bound comparison", interval=True)

    p = command("ik", "monomial transform pair")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--N", type=float, default=100.0)
    p.add_argument("--X", type=float, default=1e4)

    p = command("curve", "partial-sum curve samples", family=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples-per-unit", type=int, default=1)
    p.add_argument("--csv")
    p.add_argument("--svg")

    # every subcommand but curve writes its report under --json DIR; added
    # last, so it stays the last option of each subcommand's help
    for name, p in sub.choices.items():
        if name != "curve":
            p.add_argument("--json", dest="json_dir")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "sum":
            model = family_model(*_family_from_args(args))
            _check_limits(model, args.a, args.b)
            val = direct_starred_sum(model, args.a, args.b)
            print(f"{val.real:.12g} {val.imag:+.12g}i")
            _dump_json({"schema": "direct-sum/1", "value": {"re": val.real, "im": val.imag}},
                       args.json_dir, "sum.json")
        elif args.command == "transform":
            from .transform import budget_with_endpoints, full_transform

            model, profile = builtin_family(*_family_from_args(args))
            _check_limits(model, args.a, args.b)
            res, budget = full_transform(model, profile, args.a, args.b)
            payload = {**res.to_json(), "budget": budget.to_json(),
                       "budgetWithEndpoints": budget_with_endpoints(res, budget)}
            print(f"rhs = {res.rhs_main:.10g}")
            print(f"measured delta = {res.measured_delta:.10g}")
            print(f"budget total = {budget.total:.6g}")
            _dump_json(payload, args.json_dir, "transform.json")
        elif args.command == "budget":
            from .errbudget import compute_budget

            model, profile = builtin_family(*_family_from_args(args))
            _check_limits(model, args.a, args.b)
            budget = compute_budget(model, profile, args.a, args.b)
            print(json.dumps(budget.to_json(), sort_keys=True, indent=2))
            _dump_json(budget.to_json(), args.json_dir, "budget.json")
        elif args.command == "example":
            rep = example_regimes(args.N)
            print(f"N={rep.n} regime={rep.regime} measured={rep.measured:.6g} "
                  f"predicted={rep.predicted:.6g} bound={rep.bound:.6g}")
            _dump_json(rep.to_json(), args.json_dir, f"example_{rep.n}.json")
        elif args.command == "estimate-c":
            c, resid = estimate_c(args.kmin, args.kmax)
            print(f"c = {c.real:.6f} {c.imag:+.6f}i   (fit residual {resid:.2e})")
            _dump_json({"schema": "estimate-c/1", "c": {"re": c.real, "im": c.imag},
                        "fitResidual": resid, "kRange": [args.kmin, args.kmax]},
                       args.json_dir, "estimate_c.json")
        elif args.command == "ck":
            reports: List[CKReport] = []
            if args.random < 0:
                raise ValueError(f"--random takes a count of draws >= 0, got {args.random}")
            if args.random:
                rng = np.random.default_rng(args.seed)
                for _ in range(args.random):
                    omega = float(rng.uniform(0.05, 0.95)) * (1 if rng.random() < 0.5 else -1)
                    n = int(rng.integers(1, 51))
                    reports.append(ck_quadratic(omega, n))
            else:
                if args.omega is None or args.n is None:
                    print("ck needs --omega and --n (or --random)", file=sys.stderr)
                    return 2
                reports.append(ck_quadratic(args.omega, args.n))
            ok = all(r.passed for r in reports)
            for r in reports[:10]:
                print(f"omega={r.omega:+.4f} n={r.n:2d}  measured={r.measured:.4g} "
                      f"bound={r.bound:.4g}  {'ok' if r.passed else 'VIOLATED'}")
            if len(reports) > 10:
                print(f"... {len(reports)} total, all pass: {ok}")
            _dump_json({"schema": "ck-sweep/1", "reports": [r.to_json() for r in reports],
                        "allPassed": ok}, args.json_dir, "ck.json")
            if not ok:
                return 1
        elif args.command == "kl":
            model = family_model(*_family_from_args(args))
            _check_limits(model, args.a, args.b)
            rep = kusmin_landau_compare(model, args.a, args.b)
            print(f"theta={rep.theta:.4f} |sum|={rep.plain_abs:.4f} "
                  f"classical={rep.classical_bound:.4f} residual={rep.residual:.4f} "
                  f"refined bound={rep.refined_bound:.4f}")
            _dump_json(rep.to_json(), args.json_dir, "kl.json")
            if not rep.classical_ok:
                return 1
        elif args.command == "ik":
            rep = ik_experiment(args.alpha, args.nu, args.N, args.X)
            print(f"alpha={rep.alpha} nu={rep.nu} N={rep.n_scale} M={rep.m_scale} "
                  f"|delta|={abs(rep.delta):.6g} scale={rep.scale:.4g} ratio={rep.ratio:.4g}")
            _dump_json(rep.to_json(), args.json_dir, "ik.json")
        elif args.command == "curve":
            model = family_model(*_family_from_args(args))
            samples = curve_samples(model, args.tmax, args.samples_per_unit)
            if args.csv:
                path = Path(args.csv)
                path.parent.mkdir(parents=True, exist_ok=True)
                with path.open("w") as fp:
                    write_curve_csv(samples, fp)
            if args.svg:
                path = Path(args.svg)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(curve_svg(samples))
            print(f"{len(samples)} samples, S(tmax) = {samples[-1].value:.8g}")
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
