"""Phase/amplitude models with exact derivative jets and the built-in families.

A model carries the phase f with derivatives to order four and the amplitude
g with derivatives to order three, because the error budget needs f'''' (the
Taylor control of f'') and g''' (the derivatives of the critical-point
functions), most often several of them at the same points.  So a model holds
two jets: ``fjet(x, lo, hi)`` returns [f^(lo)(x), ..., f^(hi)(x)] and
``gjet(x, lo, hi)`` the same for g.  A jet evaluates only the orders asked
for and computes what they share (a sine and cosine, an exponential) once
per call.  Jets accept numpy arrays as well as floats; a 0-d input gives 0-d
outputs.

The built-in families mirror the classical test cases:

    power_phase   f = (x/3)^(3/2),            g = 1
    quadratic     f = omega x^2 / 2,          g = 1
    ik_monomial   f = (X/alpha)(x/N)^alpha,   g = sqrt(alpha/x)
    exponential   f = alpha beta^x,           g = 1
    zeta_log      f = -(t/2pi) log x,         g = x^(-sigma)   (conjugated
                  orientation, so that f'' > 0)
    oscillatory   f = alpha x^2 + beta sin(gamma x)/x, g = 1
    sine_amplitude f = (x/3)^(3/2),           g = sin(alpha x)

``builtin_family`` adds to ``family_model``'s model a local-regularity
profile: functions M(x) (the radius on which f'' and g are nearly linear) and
U(x) (the local amplitude scale) plus the associated constants.  Unless the
caller fixes it, the scale factor in M is found on each call by a decreasing
search 1/2, 1/4, ... until the inequality sweep passes on a set interval.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple, Union

import numpy as np

from .numutil import FLOAT_HALVINGS, NearestIntDecomp, mod1, nearest_decomp, nearest_integer

Func = Callable[[np.ndarray], np.ndarray]
ArrayOrFloat = Union[np.ndarray, float]
Jet = Callable[[ArrayOrFloat, int, int], List[np.ndarray]]


class FamilyError(ValueError):
    """Invalid family name or parameters."""


class InversionRangeError(ValueError):
    """Requested r is outside the range of f' on the model domain."""

    def __init__(self, r: float, lo: float, hi: float):
        self.r = r
        self.admissible = (lo, hi)
        super().__init__(f"r={r} outside admissible f' range [{lo}, {hi}]")


@dataclass
class PhaseAmplitudeModel:
    """Phase f (derivatives to order 4), amplitude g (to order 3), domain.

    ``fjet(x, lo, hi)`` returns [f^(lo)(x), ..., f^(hi)(x)] for
    0 <= lo <= hi <= 4, and ``gjet(x, lo, hi)`` the same for g up to order 3;
    ``f``, ``f1``, ``f2`` and ``g`` are views of a single order.
    ``fprime_inverse`` is the analytic solution of f'(x) = r when the family
    has one.  ``rhs_phase(r, x_r)`` returns (f(x_r) - r x_r) mod 1 at
    integer r using whatever exact structure the family admits, for arrays
    of r and x_r or for scalars, and an array call equals per-element calls
    bit for bit;
    without it callers fall back to floating reduction, which loses accuracy
    once f reaches ~1e15.
    ``fprime_integer`` reports the exact integer value of f'(x) when family
    arithmetic can decide it, None when it cannot.  A family whose test is
    complete (its None proves f'(x) is no integer) has ``fprime_offset(x,
    k)``, f'(x) - k exact in sign for the integer k nearest f'(x).
    """

    fjet: Jet
    gjet: Jet
    domain: Tuple[float, float]
    fprime_inverse: Optional[Func] = None
    rhs_phase: Optional[Callable[[ArrayOrFloat, ArrayOrFloat], ArrayOrFloat]] = None
    fprime_integer: Optional[Callable[[float], Optional[int]]] = None
    fprime_offset: Optional[Callable[[float, int], float]] = None
    name: str = "custom"
    params: Tuple[float, ...] = ()

    def f(self, x):
        return self.fjet(x, 0, 0)[0]

    def f1(self, x):
        return self.fjet(x, 1, 1)[0]

    def f2(self, x):
        return self.fjet(x, 2, 2)[0]

    def g(self, x):
        return self.gjet(x, 0, 0)[0]


@dataclass
class ConditionMProfile:
    """Local regularity data: M(x), U(x), and the constants of condition (M).

    The constants are fixed: C2 = C2_minus = C4 = D0 = D1 = D2 = 2 and, with
    delta = 1/2, eta = 3 delta / C2_minus = 3/4, which stays below the 2 that
    the Taylor control of f'' needs downstream.
    """

    M: Func
    M_prime: Func
    U: Func
    epsilon: Optional[float] = None  # family scale baked into M, for reports
    C2: ClassVar[float] = 2.0
    C2_minus: ClassVar[float] = 2.0
    C4: ClassVar[float] = 2.0
    D0: ClassVar[float] = 2.0
    D1: ClassVar[float] = 2.0
    D2: ClassVar[float] = 2.0
    eta: ClassVar[float] = 0.75


# ---------------------------------------------------------------------------
# inversion of f'
# ---------------------------------------------------------------------------

# a bracket that has not halved in _PATIENCE steps of _newton_brackets takes
# the midpoint, and a float bracket halves at most FLOAT_HALVINGS times, so
# _BRACKET_STEPS steps reach the float limit; the loop ends there in any
# case.  Newton converging from one side leaves the far end in place for a
# few steps: a patience of 2 took up to 48 steps on oscillatory dual ranges,
# 4 takes at most 7
_PATIENCE = 4
_BRACKET_STEPS = (_PATIENCE + 1) * FLOAT_HALVINGS


def _newton_brackets(model: PhaseAmplitudeModel, rs: np.ndarray, flo: float, fhi: float):
    """Brackets (a, b) with f'(a) - r < 0 <= f'(b) - r, shrunk to the float
    limit (midpoint equal to an end) for every r of the 1-d array rs.

    Each r starts at the chord's root on the domain and takes Newton steps
    from one ``fjet(x, 1, 2)`` call per step; a step that stalls probes one
    ulp toward the root, one that leaves (a, b) takes the midpoint, and so
    does a bracket that has not halved in ``_PATIENCE`` steps.  Each r's
    steps depend on that r alone, so an array call equals per-r calls bit
    for bit.
    """
    lo, hi = model.domain
    a, b = np.full(rs.shape, lo), np.full(rs.shape, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + (rs - flo) / (fhi - flo) * (hi - lo)
    mid = 0.5 * (a + b)
    x = np.where((lo < x) & (x < hi), x, mid)
    ref = b - a
    stale = np.zeros(rs.shape)
    live = np.flatnonzero((mid != a) & (mid != b))
    for _ in range(_BRACKET_STEPS):
        if not live.size:
            break
        xl, rl = x[live], rs[live]
        fp, d = model.fjet(xl, 1, 2)
        below = fp - rl < 0
        al, bl = np.where(below, xl, a[live]), np.where(below, b[live], xl)
        a[live], b[live] = al, bl
        mid = 0.5 * (al + bl)
        width = bl - al
        halved = width <= 0.5 * ref[live]
        ref[live[halved]] = width[halved]
        st = np.where(halved, 0.0, stale[live] + 1.0)
        stale[live] = st
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = xl - (fp - rl) / d
        step = np.where(step == xl, np.nextafter(xl, np.where(below, bl, al)), step)
        step = np.where((al < step) & (step < bl) & (st < _PATIENCE), step, mid)
        x[live] = step
        live = live[(mid != al) & (mid != bl)]
    return a, b


def invert_fprime(model: PhaseAmplitudeModel, r):
    """Solve f'(x_r) = r on the model domain to |f'(x_r) - r| <= 1e-12 max(1,|r|)
    for one r (returns a float) or an array of r (returns an array of x_r).

    Uses the family's analytic inverse when present.  Otherwise (f'' > 0, so
    f' is one-to-one) every r gets its own bracket, shrunk by safeguarded
    Newton steps to the float limit, where its midpoint equals one of its
    ends; each x_r is then polished by a few Newton steps inside that bracket.
    A bracket halves at least every fifth step, so every call ends.  A polish
    step starts on an end and lands on one or is refused, so one jet of both
    ends serves every step and the check.
    """
    rs = np.asarray(r, dtype=float)
    lo, hi = model.domain
    flo, fhi = model.fjet(np.array(model.domain), 1, 1)[0].tolist()
    outside = ~((flo <= rs) & (rs <= fhi))
    if outside.any():
        raise InversionRangeError(float(rs[outside][0]), flo, fhi)
    if model.fprime_inverse is not None:
        x = np.clip(model.fprime_inverse(rs), lo, hi)
        return x if rs.ndim else float(x)
    a, b = (v.reshape(rs.shape) for v in _newton_brackets(model, rs.ravel(), flo, fhi))
    ends = np.stack((a, b))
    fp, d = model.fjet(ends, 1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = ends - (fp - rs) / d
    ok = (d != 0.0) & (a <= step) & (step <= b)
    x = 0.5 * (a + b)
    polish = np.ones(rs.shape, dtype=bool)
    for _ in range(8):
        at_b = x == b
        polish &= np.where(at_b, ok[1], ok[0])
        x = np.where(polish, np.where(at_b, step[1], step[0]), x)
    stalled = np.abs(np.where(x == b, fp[1], fp[0]) - rs) > 1e-12 * np.maximum(1.0, np.abs(rs))
    if stalled.any():
        raise RuntimeError(f"f' inversion stalled at x={float(x[stalled][0])} "
                           f"for r={float(rs[stalled][0])}")
    return x if rs.ndim else float(x)


# ---------------------------------------------------------------------------
# the integer decision of f'
# ---------------------------------------------------------------------------

def fprime_nearest(model: PhaseAmplitudeModel, x: float) -> NearestIntDecomp:
    """The integer decision of f'(x): the family's exact test where the model
    has one and it finds an integer, else ``nearest_integer`` of f'(x).  A
    complete test's "no" (the model has ``fprime_offset``) is final, with the
    exact offset within 2 ulps of the integer, where the float's sign may err."""
    r = model.fprime_integer(x) if model.fprime_integer is not None else None
    if r is not None:
        return NearestIntDecomp(r, 0.0, 0.0)
    f1 = float(model.f1(x))
    d = nearest_integer(f1) if model.fprime_offset is None else nearest_decomp(f1)
    if model.fprime_offset is None or d.dist > 2.0 * math.ulp(f1):
        return d
    off = model.fprime_offset(x, d.nearest)
    return NearestIntDecomp(d.nearest, off, abs(off))


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

_SQRT3 = math.sqrt(3.0)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _unit_gjet(x, lo, hi):
    # g = 1: the amplitude jet of every family with a unit amplitude
    return [_ones(x) if k == 0 else _zeros(x) for k in range(lo, hi + 1)]


def _libm_log(x):
    """math.log on each element of x (array or scalar).

    numpy's SIMD log can differ from libm's in the last bit.  For pow numpy
    has a loop that calls libm on every element, ``np.float_power``; for log
    it has none, so a step that must give the same bits on an array as on
    single points maps math.log here.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _power_phase_model(domain) -> PhaseAmplitudeModel:
    c = 3.0 ** -1.5

    def fjet(x, lo, hi):
        x = np.asarray(x, dtype=float)
        return [c * x ** 1.5 if k == 0
                else 0.5 * np.sqrt(x / 3.0) if k == 1
                else 0.25 / _SQRT3 / np.sqrt(x) if k == 2
                else -(0.125 / _SQRT3) * x ** -1.5 if k == 3
                else (3.0 / 16.0 / _SQRT3) * x ** -2.5
                for k in range(lo, hi + 1)]

    def fprime_integer(x: float) -> Optional[int]:
        # f'(x) = sqrt(x/12) is a nonnegative integer iff x = 12 k^2
        if x < 0 or x != math.floor(x):
            return None
        n = int(x)
        if n % 12:
            return None
        k = math.isqrt(n // 12)
        return k if 12 * k * k == n else None

    def rhs_phase(r, xr):
        # f(x_r) - r x_r = -4 r^3 at an integer r: r*r*r is exact below 2^53
        # and a float past it is an integer, so the phase is exactly 0.  y - y
        # is y mod 1 for an integral y, +0, or nan once r^3 overflows, without
        # fmod's cost on a large y
        r = np.asarray(r, dtype=float)
        y = -4.0 * (r * r * r)
        return y - y

    return PhaseAmplitudeModel(
        fjet=fjet, gjet=_unit_gjet,
        domain=domain or (1e-3, 1e12),
        fprime_inverse=lambda r: 12.0 * r * r,
        rhs_phase=rhs_phase,
        fprime_integer=fprime_integer,
        # sqrt(x/12) - k = (x - 12 k^2) / (12 (f' + k)), where x - 12 k^2 is
        # exact: 12 k^2 is a float near x (below 2^53 on the domain)
        fprime_offset=lambda x, k: (x - 12 * k * k) / (12.0 * (0.5 * math.sqrt(x / 3.0) + k)),
        name="power_phase",
    )


def _quadratic_model(omega: float, domain) -> PhaseAmplitudeModel:
    if omega <= 0:
        raise FamilyError("quadratic family needs omega > 0 (conjugate for omega < 0)")

    def fjet(x, lo, hi):
        x = np.asarray(x, dtype=float)
        return [0.5 * omega * x ** 2 if k == 0
                else omega * x if k == 1
                else np.full_like(x, omega) if k == 2
                else np.zeros_like(x)
                for k in range(lo, hi + 1)]

    return PhaseAmplitudeModel(
        fjet=fjet, gjet=_unit_gjet,
        domain=domain or (-1e9, 1e9),
        fprime_inverse=lambda r: r / omega,
        rhs_phase=lambda r, xr: mod1(-0.5 * r * r / omega),
        name="quadratic",
        params=(omega,),
    )


def _ik_model(alpha: float, n_scale: float, x_scale: float, domain) -> PhaseAmplitudeModel:
    if alpha <= 1 or n_scale <= 0 or x_scale <= 0:
        raise FamilyError("ik_monomial needs alpha > 1, N > 0, X > 0")
    A, N, X = alpha, n_scale, x_scale
    ga = math.sqrt(A)
    q = A / (A - 1.0)

    def fjet(x, lo, hi):
        xn = np.asarray(x, dtype=float) / N
        # f' and f'' by libm's pow (np.float_power), whose bits do not depend
        # on the shape of x: the inversion of f' and the dual-side weights
        # 1/sqrt(f''(x_r)) of an array of r must equal their one-point values
        return [(X / A) * xn ** A if k == 0
                else (X / N) * np.float_power(xn, A - 1) if k == 1
                else (X * (A - 1) / N ** 2) * np.float_power(xn, A - 2) if k == 2
                else (X * (A - 1) * (A - 2) / N ** 3) * xn ** (A - 3) if k == 3
                else (X * (A - 1) * (A - 2) * (A - 3) / N ** 4) * xn ** (A - 4)
                for k in range(lo, hi + 1)]

    def gjet(x, lo, hi):
        x = np.asarray(x, dtype=float)
        return [ga * x ** -0.5 if k == 0
                else -0.5 * ga * x ** -1.5 if k == 1
                else 0.75 * ga * x ** -2.5 if k == 2
                else -1.875 * ga * x ** -3.5
                for k in range(lo, hi + 1)]

    def fprime_integer(x: float) -> Optional[int]:
        if A == 2.0 and x == math.floor(x):
            v = x * X / (N * N)
            if v == math.floor(v):
                return int(v)
        return None

    return PhaseAmplitudeModel(
        fjet=fjet, gjet=gjet,
        domain=domain or (1e-3 * N, 1e9 * N),
        fprime_inverse=lambda r: N * np.float_power(r * N / X, 1.0 / (A - 1.0)),
        rhs_phase=lambda r, xr: mod1(-(X / q) * np.float_power(r * N / X, q)),
        fprime_integer=fprime_integer,
        name="ik_monomial",
        params=(alpha, n_scale, x_scale),
    )


def _exponential_model(alpha: float, beta: float, domain) -> PhaseAmplitudeModel:
    if beta <= 1 or alpha <= 0:
        raise FamilyError("exponential family needs beta > 1 and alpha > 0")
    lb = math.log(beta)
    xmax = (700.0 - math.log(alpha)) / lb  # keep beta^x inside float range

    def fjet(x, lo, hi):
        # f^(k) = alpha (log beta)^k beta^x: one exponential serves every order
        bx = np.exp(np.asarray(x, dtype=float) * lb)
        return [alpha * lb ** k * bx for k in range(lo, hi + 1)]

    return PhaseAmplitudeModel(
        fjet=fjet, gjet=_unit_gjet,
        domain=domain or (-xmax, xmax),
        fprime_inverse=lambda r: np.log(r / (alpha * lb)) / lb,
        rhs_phase=lambda r, xr: mod1(r / lb - r * xr),
        name="exponential",
        params=(alpha, beta),
    )


def _zeta_log_model(sigma: float, t: float, domain) -> PhaseAmplitudeModel:
    # conjugated orientation: f = -(t/2pi) log x has f'' = t/(2 pi x^2) > 0
    if t <= 0:
        raise FamilyError("zeta_log family needs t > 0")
    c = t / (2.0 * math.pi)

    def fjet(x, lo, hi):
        x = np.asarray(x, dtype=float)
        return [-c * np.log(x) if k == 0
                else -c / x if k == 1
                else c * x ** -2.0 if k == 2
                else -2.0 * c * x ** -3.0 if k == 3
                else 6.0 * c * x ** -4.0
                for k in range(lo, hi + 1)]

    def gjet(x, lo, hi):
        x = np.asarray(x, dtype=float)
        return [x ** -sigma if k == 0
                else -sigma * x ** (-sigma - 1) if k == 1
                else sigma * (sigma + 1) * x ** (-sigma - 2) if k == 2
                else -sigma * (sigma + 1) * (sigma + 2) * x ** (-sigma - 3)
                for k in range(lo, hi + 1)]

    # f'(x) = -c/x in integers: with c = u/v and x = p/q exactly, f'(x) is
    # -u q / (v p), an integer when v p divides u q, and never 0
    u, v = c.as_integer_ratio()

    def fprime_integer(x: float) -> Optional[int]:
        p, q = float(x).as_integer_ratio()
        if p == 0:
            return None
        k, rest = divmod(-u * q, v * p)
        return None if rest else k

    def fprime_offset(x: float, k: int) -> float:
        # -(c + k x)/x = -(u q + k p v)/(v p), one correctly rounded division
        p, q = float(x).as_integer_ratio()
        return -(u * q + k * p * v) / (v * p)

    return PhaseAmplitudeModel(
        fjet=fjet, gjet=gjet,
        domain=domain or (1e-3, 1e12),
        fprime_inverse=lambda r: -c / r,
        rhs_phase=lambda r, xr: mod1(-c * _libm_log(xr) - r * xr),
        fprime_integer=fprime_integer,
        fprime_offset=fprime_offset,
        name="zeta_log",
        params=(sigma, t),
    )


def _oscillatory_model(alpha: float, beta: float, gamma: float, domain) -> PhaseAmplitudeModel:
    # f = alpha x^2 + beta sin(gamma x)/x; derivatives by the Leibniz rule
    if alpha <= 0:
        raise FamilyError("oscillatory family needs alpha > 0")
    dom = domain or (1.0, 1e6)
    b, gm = beta, gamma

    def fjet(x, lo, hi):
        # one sine for every order, and one cosine once f' or beyond is asked
        x = np.asarray(x, dtype=float)
        s = np.sin(gm * x)
        c = np.cos(gm * x) if hi > 0 else None
        return [alpha * x ** 2 + b * (s / x) if k == 0
                else 2 * alpha * x + b * (gm * c / x - s / x ** 2) if k == 1
                else 2 * alpha + b * (-gm ** 2 * s / x - 2 * gm * c / x ** 2 + 2 * s / x ** 3)
                if k == 2
                else b * (-gm ** 3 * c / x + 3 * gm ** 2 * s / x ** 2 + 6 * gm * c / x ** 3
                          - 6 * s / x ** 4) if k == 3
                else b * (gm ** 4 * s / x + 4 * gm ** 3 * c / x ** 2 - 12 * gm ** 2 * s / x ** 3
                          - 24 * gm * c / x ** 4 + 24 * s / x ** 5)
                for k in range(lo, hi + 1)]

    model = PhaseAmplitudeModel(
        fjet=fjet, gjet=_unit_gjet,
        domain=dom,
        name="oscillatory",
        params=(alpha, beta, gamma),
    )
    worst = float(np.min(model.f2(np.linspace(dom[0], min(dom[1], dom[0] + 1e4), 4096))))
    if worst <= 0:
        raise FamilyError(f"oscillatory family has f'' <= 0 on the domain (min {worst})")
    return model


def _sine_amplitude_model(alpha: float, domain) -> PhaseAmplitudeModel:
    a = alpha

    def gjet(x, lo, hi):
        # the sine serves g and g'', the cosine g' and g''': each once at most
        ax = a * np.asarray(x, dtype=float)
        s = np.sin(ax) if lo % 2 == 0 or hi > lo else None
        c = np.cos(ax) if lo % 2 == 1 or hi > lo else None
        return [s if k == 0 else a * c if k == 1 else -a * a * s if k == 2 else -a ** 3 * c
                for k in range(lo, hi + 1)]

    return dataclasses.replace(_power_phase_model(domain or (1e-3, 1e9)), gjet=gjet,
                               name="sine_amplitude", params=(alpha,))


def _search_epsilon(model, shape, U, interval) -> float:
    """Decreasing search eps in {1/2, 1/4, ..., 2^-20} until the inequality
    sweep passes."""
    from .errbudget import check_condition_M

    eps = 0.5
    while eps >= 2.0 ** -20:
        if check_condition_M(model, _profile(shape, eps, U), *interval).passed:
            return eps
        eps *= 0.5
    raise FamilyError("no scale factor in {1/2, 1/4, ...} satisfies the regularity sweep")


def _profile(shape: str, e: float, U: Func) -> ConditionMProfile:
    """The profile with M = e, e x or e sqrt(x) (``shape`` const, linear, sqrt)."""
    if shape == "const":
        M, M_prime = (lambda x: np.full_like(np.asarray(x, dtype=float), e)), _zeros
    elif shape == "linear":
        M = lambda x: e * np.asarray(x, dtype=float)
        M_prime = lambda x: np.full_like(np.asarray(x, dtype=float), e)
    else:
        M = lambda x: e * np.sqrt(np.asarray(x, dtype=float))
        M_prime = lambda x: 0.5 * e / np.sqrt(np.asarray(x, dtype=float))
    return ConditionMProfile(M=M, M_prime=M_prime, U=U, epsilon=e)


@dataclass(frozen=True)
class _Family:
    """One row of the family table.

    ``build(*params, domain)`` makes the model; ``eps_name``, when set, names
    an optional trailing parameter that fixes the scale factor.  Otherwise
    the factor is searched on ``interval(model)``, or, without an interval,
    is the domain width.  U is g when ``u_is_g``, else 1.
    """

    names: Tuple[str, ...]
    eps_name: Optional[str]
    build: Callable[..., PhaseAmplitudeModel]
    shape: str
    u_is_g: bool = False
    interval: Optional[Callable[[PhaseAmplitudeModel], Tuple[float, float]]] = None


def _exponential_interval(model):
    # calibrate where f'' is moderate; the condition is shift-invariant in x
    alpha, beta = model.params
    x0 = math.log(10.0 / (alpha * math.log(beta) ** 2)) / math.log(beta)
    return x0, x0 + 3.0


_FAMILIES = {
    "power_phase": _Family((), None, _power_phase_model, "linear",
                           interval=lambda m: (100.0, 1200.0)),
    "quadratic": _Family(("omega",), "span", _quadratic_model, "const"),
    "ik_monomial": _Family(("alpha", "N", "X"), None, _ik_model, "linear", u_is_g=True,
                           interval=lambda m: (m.params[1], 4.0 * m.params[1])),
    "exponential": _Family(("alpha", "beta"), None, _exponential_model, "const",
                           interval=_exponential_interval),
    "zeta_log": _Family(("sigma", "t"), None, _zeta_log_model, "linear", u_is_g=True,
                        interval=lambda m: (50.0, 500.0)),
    "oscillatory": _Family(("alpha", "beta", "gamma"), "eps", _oscillatory_model, "sqrt",
                           interval=lambda m: (m.domain[0] + 10.0, m.domain[0] + 500.0)),
    "sine_amplitude": _Family(("alpha",), "eps", _sine_amplitude_model, "const",
                              interval=lambda m: (100.0, 400.0)),
}


def family_model(name: str, params: Sequence[float] = (),
                 domain: Optional[Tuple[float, float]] = None) -> PhaseAmplitudeModel:
    """Construct a named family's model, without its regularity profile.

    ``params`` per family as for :func:`builtin_family`; a trailing scale
    factor is accepted and ignored.  Every parameter must be finite, and a
    ``domain`` two finite numbers lo < hi.
    """
    params = tuple(float(p) for p in params)
    spec = _FAMILIES.get(name)
    if spec is None:
        raise FamilyError(f"unknown family {name!r}")
    if not all(math.isfinite(p) for p in params):
        raise FamilyError(f"{name} parameters must be finite, got {params}")
    if domain is not None and not (len(domain) == 2
                                   and -math.inf < domain[0] < domain[1] < math.inf):
        raise FamilyError(f"domain must be two finite numbers lo < hi, got {tuple(domain)}")
    n = len(spec.names)
    if len(params) != n and not (spec.eps_name and len(params) == n + 1):
        optional = f"[, {spec.eps_name}]" if spec.eps_name else ""
        raise FamilyError(f"{name} takes ({', '.join(spec.names)}{optional})")
    return spec.build(*params[:n], domain)


def builtin_family(name: str, params: Sequence[float] = (),
                   domain: Optional[Tuple[float, float]] = None,
                   ) -> Tuple[PhaseAmplitudeModel, ConditionMProfile]:
    """Construct a named family and its regularity profile.

    ``params`` per family: power_phase (); quadratic (omega[, span]);
    ik_monomial (alpha, N, X); exponential (alpha, beta); zeta_log (sigma, t);
    oscillatory (alpha, beta, gamma[, eps]); sine_amplitude (alpha[, eps]).
    Without the trailing factor, a searched family searches it on each call;
    a trailing factor must be positive.
    """
    model = family_model(name, params, domain)
    spec = _FAMILIES[name]
    U = model.g if spec.u_is_g else _ones
    if len(params) > len(spec.names):
        e = float(params[-1])
        if e <= 0:
            raise FamilyError(f"{name} scale factor {spec.eps_name} must be positive, got {e}")
    elif spec.interval is None:
        e = model.domain[1] - model.domain[0]
    else:
        e = _search_epsilon(model, spec.shape, U, spec.interval(model))
    return model, _profile(spec.shape, e, U)
