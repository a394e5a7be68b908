"""Helpers shared by the tests: a grid evaluator for the modified sawtooth's
partial sums, the starred distance to the nearest integer, the float integer
rule on two limits that ``numutil.nearest_integer`` took over, the inversion
of f' with a jet call per Newton polish step, the fitted-constant convention
of the acceptance suite, the recursive and the level-by-level references for
the quadrature's batched pre-split, the Gauss-Kronrod rule built from its defining polynomials, the bisection that
``numutil.sign_change_roots`` must match and its form for one function,
models and single-order views built from per-order callables, and the
one-function-per-call critical-point formulas that the derivative jets of
the K functionals replaced.

It also keeps, as references, the paper's formulas that the program does not
run: the modified Fresnel integral F(u), the first and second derivative-test
bounds, the one-sided stationary-phase expansion, the refined large-f''
endpoint estimate with its optimized (C, L) choices, and the fixed-a,
growing-b budget (Delta3'(b), Delta4'(b), Delta5).  Each is built on the
package's own engine: F(u) on the oscillatory-integral oracle, the budget on
the Delta integrands, the partition and the K terms of ``errbudget``."""

import math
import warnings
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import mpmath
import numpy as np

from vdcorput import errbudget as eb
from vdcorput import quad
from vdcorput import transform
from vdcorput.errbudget import WRFunctions
from vdcorput.numutil import (TWO_PI, amplitude_e, floor_frac, nearest_decomp, sawtooth_psi,
                              sign_change_roots)
from vdcorput.phase import (ConditionMProfile, InversionRangeError, PhaseAmplitudeModel,
                            _newton_brackets, family_model, fprime_nearest, invert_fprime)
from vdcorput.transform import EndpointTerm


def modified_sawtooth_grid(xs: np.ndarray, epss: np.ndarray, r: int) -> np.ndarray:
    """Partial sums of psi(x, eps) at truncation r on the outer grid xs x epss,
    shape (len(xs), len(epss)), terms r and -r paired.  Phases are computed
    once per x and reused across all eps, keeping the transcendental cost at
    O(len(xs) * r); r is taken in blocks of 2^16, which bounds the memory."""
    xs = np.asarray(xs, dtype=np.float64)
    epss = np.asarray(epss, dtype=np.float64)
    out = np.zeros((xs.size, epss.size), dtype=np.complex128)
    for lo in range(1, r + 1, 1 << 16):
        rr = np.arange(lo, min(lo + (1 << 16), r + 1), dtype=np.float64)
        inv = 1.0 / ((rr * rr)[:, None] - (epss * epss)[None, :])
        for i, x in enumerate(xs):
            ang = TWO_PI * np.mod(rr * floor_frac(float(x)), 1.0)
            re = -(rr * np.sin(ang)) @ inv / math.pi
            im = -(np.cos(ang) @ inv) * epss / math.pi
            out[i] += re + 1j * im
    return out


def dist_to_nearest_star(x: float) -> float:
    """||x||*: distance to the nearest integer, with 1 substituted at 0."""
    return nearest_decomp(x).dist or 1.0


def float_rule_range(lo: float, hi: float) -> Tuple[int, int, bool, bool]:
    """(n_lo, n_hi, lo_hit, hi_hit) by the float rule as it stood in
    ``numutil.integer_range`` of two floats: a limit within 1e-9 relative of
    an integer, and not a half-integer, is a hit and is round(limit), else
    n_lo = ceil(lo) and n_hi = floor(hi)."""
    def hit(x):
        return abs(x - round(x)) <= 1e-9 * max(1.0, abs(x)) and x - math.floor(x) != 0.5
    lo_hit, hi_hit = hit(lo), hit(hi)
    return (round(lo) if lo_hit else math.ceil(lo), round(hi) if hi_hit else math.floor(hi),
            lo_hit, hi_hit)


def invert_fprime_eight_step(model: PhaseAmplitudeModel, r):
    """``phase.invert_fprime`` as it stood with a jet call per polish step:
    the same float-limit brackets, then eight Newton steps from the midpoint,
    each from its own ``fjet(x, 1, 2)`` call and kept only while it stays in
    the bracket, and a last ``f1`` call for the check."""
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
    x = 0.5 * (a + b)
    polish = np.ones(rs.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            fp, d = model.fjet(x, 1, 2)
            x_new = x - (fp - rs) / d
            polish &= (d != 0.0) & (a <= x_new) & (x_new <= b)
            x = np.where(polish, x_new, x)
    stalled = np.abs(model.f1(x) - rs) > 1e-12 * np.maximum(1.0, np.abs(rs))
    if stalled.any():
        raise RuntimeError(f"f' inversion stalled at x={float(x[stalled][0])} "
                           f"for r={float(rs[stalled][0])}")
    return x if rs.ndim else float(x)


def fitted_constant(ratios: Sequence[float]) -> float:
    """The empirical constant of a sweep: the largest observed ratio."""
    finite = [r for r in ratios if math.isfinite(r)]
    if not finite:
        raise ValueError("no finite ratios to fit")
    return max(finite)


def split_fit(ratios: Sequence[float]) -> float:
    """Fit on the even-indexed half of a sweep (the odd half validates it)."""
    return fitted_constant(ratios[::2])


def _legendre_coefficients(n: int) -> List[Fraction]:
    """P_n's coefficients (n >= 1), constant term first, from Bonnet's
    recurrence."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] + [Fraction(2 * k + 1, k + 1) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    return cur


def _solve_exact(a: List[List[Fraction]], b: List[Fraction]) -> List[Fraction]:
    """x with a x = b, by Gauss-Jordan elimination in rationals."""
    n = len(a)
    m = [row + [v] for row, v in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [u - f * v for u, v in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def gauss_kronrod(n: int):
    """The Gauss-Kronrod (n, 2n + 1) rule on [-1, 1] at 80 digits:
    (nodes, Kronrod weights, Gauss weights), nodes ascending as mpf, the
    Gauss nodes being nodes[1::2].

    The Gauss nodes are the roots of P_n and the other Kronrod nodes those of
    the Stieltjes polynomial E_{n+1}, the monic polynomial with
    int P_n E_{n+1} x^k = 0 for k <= n (Laurie, Math. Comp. 66, 1997), whose
    coefficients are exact rationals here.  The Kronrod weights solve the
    moment equations sum w_i P_k(x_i) = int P_k for k < 2n + 1; the Gauss
    weights are 2 / ((1 - x^2) P_n'(x)^2)."""
    p = _legendre_coefficients(n)

    def moment(j):  # int P_n x^j over [-1, 1]
        return sum((c * Fraction(2, i + j + 1) for i, c in enumerate(p) if (i + j) % 2 == 0),
                   Fraction(0))

    e = _solve_exact([[moment(k + j) for j in range(n + 1)] for k in range(n + 1)],
                     [-moment(k + n + 1) for k in range(n + 1)]) + [Fraction(1)]
    with mpmath.workdps(80):
        mp = lambda c: mpmath.mpf(c.numerator) / c.denominator
        roots = lambda cs: [mpmath.re(r) for r in mpmath.polyroots(
            [mp(c) for c in cs[::-1]], maxsteps=1000, extraprec=320)]
        gauss = roots(p)
        nodes = sorted(gauss + roots(e))
        moments = mpmath.matrix([2] + [0] * (2 * n))
        kronrod = mpmath.lu_solve(
            mpmath.matrix([[mpmath.legendre(k, x) for x in nodes] for k in range(2 * n + 1)]),
            moments)
        dp = [mp(c) * i for i, c in enumerate(p)][1:]
        weight = lambda x: 2 / ((1 - x ** 2) * mpmath.polyval(dp[::-1], x) ** 2)
        return nodes, list(kronrod), [weight(x) for x in nodes[1::2]]


def presplit_reference(phase_slope, lo: float, hi: float, depth: int = 0) -> list:
    """The oracle's pre-split as a scalar depth-first recursion: [(lo, hi)]
    pieces with width * max|phase'| <= ``quad._CYCLES`` at their ends, or at
    depth 48."""
    slope = max(abs(phase_slope(lo)), abs(phase_slope(hi)))
    if (hi - lo) * slope <= quad._CYCLES or depth >= 48:
        return [(lo, hi)]
    mid = 0.5 * (lo + hi)
    return (presplit_reference(phase_slope, lo, mid, depth + 1)
            + presplit_reference(phase_slope, mid, hi, depth + 1))


def phase_pieces_by_level(phase_slope, edges: np.ndarray):
    """The oracle's pre-split as it was before it split its forced levels
    untested: every level tested and bisected in one batch, from the edges
    on.  The reference that ``quad._phase_pieces`` must match bit for bit,
    (los, his, pieces) and the cap's count included."""
    def speed(x):
        return np.abs(phase_slope(x))

    s = speed(edges)
    lo, hi, slo, shi = edges[:-1], edges[1:], s[:-1], s[1:]
    done_lo, done_hi = [], []
    count = 0
    for depth in range(49):
        keep = ((hi - lo) * np.maximum(slo, shi) <= quad._CYCLES) | (depth >= 48)
        done_lo.append(lo[keep])
        done_hi.append(hi[keep])
        count += int(keep.sum())
        split = ~keep
        if not split.any():
            break
        if count + 2 * int(split.sum()) > quad.DEFAULT_PANEL_CAP:
            return None, None, count + int(split.sum())
        lo, hi, slo, shi = lo[split], hi[split], slo[split], shi[split]
        mid = 0.5 * (lo + hi)
        smid = speed(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        slo, shi = np.concatenate([slo, smid]), np.concatenate([smid, shi])
    los, his = np.concatenate(done_lo), np.concatenate(done_hi)
    order = np.lexsort((his, los))
    return los[order], his[order], count


def bisect(fn: Callable[[np.ndarray], np.ndarray], lo, hi) -> Tuple[np.ndarray, np.ndarray]:
    """Shrink many brackets at once; fn is vectorized and fn(lo) < 0 <= fn(hi).

    Each bracket is halved, keeping that sign pattern, until its midpoint
    equals one of its ends (the float limit), 80 halvings at most.  fn sees
    the midpoints of all brackets in one array.  Returns the final (lo, hi).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            break
        below = fn(mid) < 0
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)
    return lo, hi


def bisected_roots(fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                   vals: np.ndarray) -> List[float]:
    """Roots of fn in every gap of the samples xs where vals = fn(xs) changes
    sign, bisected to the float limit.  A gap with a zero sample at either end
    is skipped; nan counts as nonnegative."""
    xs, vals = np.asarray(xs, dtype=float), np.asarray(vals, dtype=float)
    neg = vals < 0
    i = np.nonzero((neg[:-1] != neg[1:]) & (vals[:-1] != 0.0) & (vals[1:] != 0.0))[0]
    sign = np.where(neg[i], 1.0, -1.0)
    lo, hi = bisect(lambda x: sign * fn(x), xs[i], xs[i + 1])
    return (0.5 * (lo + hi)).tolist()


def single_roots(fn: Callable[[np.ndarray], np.ndarray], xs, vals) -> list:
    """``sign_change_roots`` of the one function fn, with vals = fn(xs) of
    xs's shape: the roots of each row, a list for one scan."""
    (roots,) = sign_change_roots(lambda x, parts: [fn(x[parts[0]])], xs, [vals])
    return roots


def jet_of(*orders):
    """A jet (x, lo, hi) -> [orders[lo](x), ..., orders[hi](x)] from one
    callable per derivative order."""
    return lambda x, lo, hi: [fn(x) for fn in orders[lo:hi + 1]]


def bare_model(f, f1, g) -> PhaseAmplitudeModel:
    """A model from a bare phase f, its slope f1 and an amplitude g, each a
    vectorized callable: enough for ``quad.oscillatory_integral`` where f1
    keeps its sign on the interval (no inversion of f' is asked for)."""
    return PhaseAmplitudeModel(fjet=jet_of(f, f1), gjet=jet_of(g),
                               domain=(-math.inf, math.inf))


def order(jet, k):
    """The derivative of order k alone, as a callable of x."""
    return lambda x: jet(x, k, k)[0]


class Orders:
    """f, f1 ... f4 and g, g1 ... g3 of a model, one single-order jet call each."""

    def __init__(self, model):
        for k in range(5):
            setattr(self, f"f{k or ''}", order(model.fjet, k))
        for k in range(4):
            setattr(self, f"g{k or ''}", order(model.gjet, k))


class ReferenceWR(WRFunctions):
    """H, G, H^2 - G, W, W', r and r' of both critical-point branches, one
    function per call, each rebuilding H, G and P from fresh single-order
    model calls: the formulas that ``WRFunctions.pm_terms``, ``zero_terms``
    and the partition's sign scan evaluate from one derivative jet, kept as
    their reference."""

    @property
    def m(self):
        return Orders(self.model)

    def H(self, x):
        m = self.m
        return m.g(x) * m.f3(x) + 3.0 * m.g1(x) * m.f2(x)

    def G(self, x):
        m = self.m
        return 12.0 * m.g(x) * m.g2(x) * m.f2(x) ** 2

    def discriminant(self, x):
        return self.H(x) ** 2 - self.G(x)

    def r_branch(self, x, sigma):
        m = self.m
        P = self.H(x) + sigma * np.sqrt(self.discriminant(x))
        return m.f1(x) - P / (2.0 * m.g2(x))

    def H_prime(self, x):
        m = self.m
        return 4.0 * m.g1(x) * m.f3(x) + 3.0 * m.g2(x) * m.f2(x) + m.g(x) * m.f4(x)

    def G_prime(self, x):
        m = self.m
        return 12.0 * (m.g1(x) * m.g2(x) * m.f2(x) ** 2
                       + m.g(x) * m.g3(x) * m.f2(x) ** 2
                       + 2.0 * m.g(x) * m.g2(x) * m.f2(x) * m.f3(x))

    # --- pm branches ---------------------------------------------------

    def _P(self, x, sigma):
        return self.H(x) + sigma * np.sqrt(self.discriminant(x))

    def _P_prime(self, x, sigma):
        S = np.sqrt(self.discriminant(x))
        return self.H_prime(x) + sigma * (2.0 * self.H(x) * self.H_prime(x)
                                          - self.G_prime(x)) / (2.0 * S)

    def r_branch_prime(self, x, sigma):
        m = self.m
        P, Pp = self._P(x, sigma), self._P_prime(x, sigma)
        g2, g3 = m.g2(x), m.g3(x)
        return m.f2(x) - (Pp / (2.0 * g2) - P * g3 / (2.0 * (g2 * g2)))

    def W_branch(self, x, sigma):
        m = self.m
        P = self._P(x, sigma)
        g1, g2 = m.g1(x), m.g2(x)
        return (4.0 * (g2 * g2) * g1 / (P * P)
                - 8.0 * (g2 * g2 * g2) * m.f2(x) * m.g(x) / (P * P * P))

    def W_branch_prime(self, x, sigma):
        m = self.m
        P, Pp = self._P(x, sigma), self._P_prime(x, sigma)
        g, g1, g2, g3 = m.g(x), m.g1(x), m.g2(x), m.g3(x)
        f2, f3 = m.f2(x), m.f3(x)
        # g''^2, g''^3, P^2, P^3 and P^4 as the products pm_terms forms
        g2_2, g2_3 = g2 * g2, g2 * g2 * g2
        P2, P3, P4 = P * P, P * P * P, (P * P) * (P * P)
        A_p = (8.0 * g2 * g3 * g1 + 4.0 * g2_3) / P2 - 8.0 * g2_2 * g1 * Pp / P3
        B_p = 8.0 * (3.0 * g2_2 * g3 * f2 * g + g2_3 * f3 * g + g2_3 * f2 * g1) / P3 \
            - 24.0 * g2_3 * f2 * g * Pp / P4
        return A_p - B_p

    # --- zero branch (g'' identically zero) -----------------------------

    def r0(self, x):
        m = self.m
        return m.f1(x) - 3.0 * m.g(x) * m.f2(x) ** 2 / self.H(x)

    def r0_prime(self, x):
        m = self.m
        H, Hp = self.H(x), self.H_prime(x)
        g, g1 = m.g(x), m.g1(x)
        f2, f3 = m.f2(x), m.f3(x)
        num = (g1 * f2 ** 2 + 2.0 * g * f2 * f3) * H - g * f2 ** 2 * Hp
        return f2 - 3.0 * num / H ** 2

    @staticmethod
    def _f2_powers(f2):
        """f''^5 and f''^6 as the products zero_terms forms."""
        f2_4 = (f2 * f2) * (f2 * f2)
        return f2_4 * f2, f2_4 * (f2 * f2)

    def W0(self, x):
        m = self.m
        f2_5, _ = self._f2_powers(m.f2(x))
        return -self.H(x) ** 2 * m.f3(x) / (27.0 * m.g(x) * f2_5)

    def W0_prime(self, x):
        m = self.m
        H, Hp = self.H(x), self.H_prime(x)
        g, g1 = m.g(x), m.g1(x)
        f2, f3, f4 = m.f2(x), m.f3(x), m.f4(x)
        f2_5, f2_6 = self._f2_powers(f2)
        return (-(2.0 * H * Hp * f3 + H ** 2 * f4) / (27.0 * g * f2_5)
                + H ** 2 * f3 * (g1 * f2 + 5.0 * g * f3) / (27.0 * g ** 2 * f2_6))


# ---------------------------------------------------------------------------
# modified Fresnel integral F(u) = int_0^u e(x^2/2) dx
# ---------------------------------------------------------------------------

_FRESNEL_SERIES_CUT = 1.5
_FRESNEL_ASYMPTOTIC_CUT = 32.0


def fresnel_modified(u: float) -> complex:
    """F(u) = int_0^u e(x^2/2) dx.

    Power series inside |u| <= 1.5 (the alternating terms stay small enough
    for full double accuracy there), panel quadrature up to |u| = 32, and the
    asymptotic series of the tail beyond (its panels would grow as u^2).  F
    is odd; the large-u limit is e(1/8)/2.
    """
    if not math.isfinite(u):
        raise ValueError(f"non-finite input {u!r}")
    if u == 0.0:
        return 0j
    if u < 0.0:
        return -fresnel_modified(-u)
    if u <= _FRESNEL_SERIES_CUT:
        # int_0^u sum_k (i pi)^k x^(2k) / k! dx, term-by-term
        z = 1j * math.pi * u * u
        total = complex(u)
        term = complex(u)
        k = 0
        while True:
            k += 1
            term *= z / k
            inc = term / (2 * k + 1)
            total += inc
            if abs(inc) < 1e-18 * max(1.0, abs(total)):
                return total
    if u > _FRESNEL_ASYMPTOTIC_CUT:
        # F(u) = e(1/8)/2 - int_u^oo e(x^2/2) dx, and parts give the tail as
        # i e(u^2/2) / (2 pi u) * sum_k (2k-1)!! / (2 pi i u^2)^k; from u = 32
        # on its terms fall below 1e-17 long before they start to grow
        w = 1.0 / (2j * math.pi * u * u)
        total = term = 1.0 + 0j
        k = 0
        while abs(term) > 1e-17:
            k += 1
            term *= (2 * k - 1) * w
            total += term
        # u*u/2 is an integer from 2^27 on (phase 0), and overflows past 1e154
        half_sq = 0.5 * u * u if u < 1e150 else 0.0
        tail = 1j * complex(amplitude_e(1.0, half_sq)) / (2.0 * math.pi * u) * total
        return complex(amplitude_e(0.5, 0.125)) - tail
    base = fresnel_modified(_FRESNEL_SERIES_CUT)
    res = quad.oscillatory_integral(family_model("quadratic", [1.0]), 0.0,
                                    _FRESNEL_SERIES_CUT, u, tol=1e-13)
    return base + res.value


# ---------------------------------------------------------------------------
# derivative tests
# ---------------------------------------------------------------------------

def derivative_test_bounds(model: PhaseAmplitudeModel, alpha: float, beta: float,
                           r: float) -> Tuple[float, float]:
    """(first-derivative bound V/(pi kappa), second-derivative bound 4V/sqrt(pi lambda)).

    V is the amplitude's maximum modulus plus total variation on the interval,
    kappa = min |f' - r| (infinite first bound when the slope vanishes inside),
    lambda = min f'', each taken from 512 samples.  Callers take the min of
    the pair.
    """
    xs = np.linspace(alpha, beta, 512)
    g, g1 = model.gjet(xs, 0, 1)
    f1, f2 = model.fjet(xs, 1, 2)
    variation = float(np.trapezoid(np.abs(g1), xs))
    V = float(np.max(np.abs(g))) + variation
    sa = float(f1[0]) - r
    sb = float(f1[-1]) - r
    if sa == 0.0 or sb == 0.0 or (sa < 0) != (sb < 0):
        first = math.inf
    else:
        first = V / (math.pi * min(abs(sa), abs(sb)))
    lam = float(np.min(f2))
    second = 4.0 * V / math.sqrt(math.pi * lam) if lam > 0 else math.inf
    return first, second


# ---------------------------------------------------------------------------
# explicit one-sided stationary phase expansion
# ---------------------------------------------------------------------------

def stationary_phase_estimate(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                              r: float, side: str, mu: float,
                              ) -> Tuple[complex, float]:
    """Explicit terms of the one-sided stationary-phase integral and its bound.

    For side='left' this approximates the integral of g(x) e(f(x) - r x) from
    mu up to the stationary point x_r (x_r to mu for side='right'):

        g(c) e(phi(c) + 1/8) / (2 sqrt(f''(c)))
        -/+ g(c) f'''(c) e(phi(c)) / (6 pi i f''(c)^2)
        +/- g'(c) e(phi(c)) / (2 pi i f''(c))
        -/+ g(mu) e(phi(mu)) / (2 pi i (f'(mu) - r))

    with c = x_r, phi = f - r x.  The returned bound is
    U/(f''^2 |mu - x_r|^3) + U/(f''^(3/2) M^2) with implicit constant 1; the
    cubic piece is dropped when mu sits exactly at distance M(x_r).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    c = invert_fprime(model, r)
    lo, hi = model.domain
    if not (lo <= c <= hi):
        raise ValueError(f"stationary point {c} outside domain")
    d = mu - c
    if side == "left" and d >= 0:
        raise ValueError(f"mu={mu} is not left of x_r={c}")
    if side == "right" and d <= 0:
        raise ValueError(f"mu={mu} is not right of x_r={c}")
    M = float(profile.M(c))
    if abs(d) > M * (1 + 1e-9):
        raise ValueError(f"|mu - x_r| = {abs(d)} exceeds M(x_r) = {M}")
    sgn = +1.0 if side == "right" else -1.0
    f_c, _, fpp, fppp = map(float, model.fjet(c, 0, 3))
    g_c, g1_c = map(float, model.gjet(c, 0, 1))
    f_mu, f1_mu = map(float, model.fjet(mu, 0, 1))
    phi_c = f_c - r * c
    if model.rhs_phase is not None and r == int(r):
        phi_c = model.rhs_phase(r, c)
    e_c = amplitude_e(1.0, phi_c)
    e_c8 = amplitude_e(1.0, phi_c + 0.125)
    e_mu = amplitude_e(1.0, f_mu - r * mu)
    slope_mu = f1_mu - r

    val = g_c * e_c8 / (2.0 * math.sqrt(fpp))
    val += sgn * g_c * fppp * e_c / (6j * math.pi * fpp ** 2)
    val -= sgn * g1_c * e_c / (2j * math.pi * fpp)
    val += sgn * float(model.g(mu)) * e_mu / (2j * math.pi * slope_mu)

    U = float(profile.U(c))
    bound = U / (fpp ** 1.5 * M ** 2)
    if abs(abs(d) - M) > 1e-12 * M:
        bound += U / (fpp ** 2 * abs(d) ** 3)
    return complex(val), bound


# ---------------------------------------------------------------------------
# the refined large-f'' endpoint estimate
# ---------------------------------------------------------------------------

class RefinementParameterError(ValueError):
    """(C, L) outside the admissible window of the refined endpoint estimate."""


def refined_endpoint_term(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                          mu: float, C: float, L: float) -> EndpointTerm:
    """Refined replacement for the large-f'' endpoint bound.

    Requires M(mu) >= 1 and f''(mu) >= 1 with C in [f''^-1/2, M) and L in
    [sqrt(f''), f'' min(1, C)).  Splits on eps = <mu> and eps' = <f'(mu)>:
    integral endpoint (eps = 0), integral slope (eps' = 0, explicit sawtooth
    value), and integral slope far from an integer endpoint (|eps| > C).
    """
    fpp = float(model.f2(mu))
    M = float(profile.M(mu))
    U = float(profile.U(mu))
    if M < 1.0 or fpp < 1.0:
        raise RefinementParameterError(f"needs M(mu) >= 1 and f''(mu) >= 1, got M={M}, f''={fpp}")
    if not (fpp ** -0.5 <= C < M):
        raise RefinementParameterError(f"C={C} outside [f''^-1/2, M) = [{fpp**-0.5}, {M})")
    if not (math.sqrt(fpp) <= L < fpp * min(1.0, C)):
        raise RefinementParameterError(
            f"L={L} outside [sqrt(f''), f'' min(1,C)) = [{math.sqrt(fpp)}, {fpp * min(1.0, C)})")

    r0, eps_p, dist_p = fprime_nearest(model, mu)
    eps = nearest_decomp(mu).signed_frac
    base = (U * fpp * C ** 4 * L / M + U * L / (fpp * C) + U * fpp / L ** 2
            + U / (fpp * C ** 2) + U / M)

    if dist_p == 0.0 and abs(eps) > C:
        return EndpointTerm(0j, base + U / ((abs(eps) - C) * math.sqrt(fpp)),
                            "refined-far-endpoint")
    if dist_p == 0.0:
        explicit = complex(amplitude_e(sawtooth_psi(mu) * float(model.g(mu)),
                                       transform._phase_f_minus_rx(model.f(mu), mu, r0)))
        return EndpointTerm(explicit, base + U * abs(eps) * L, "refined-sawtooth")
    if eps == 0.0:
        b1 = (U * abs(eps_p) * L / fpp
              + U * abs(eps_p) * (1.0 + abs(eps_p) * C) * math.log1p(fpp) / math.sqrt(fpp)
              + U * fpp * abs(eps_p) ** 3 * C ** 4)
        return EndpointTerm(0j, base + b1, "refined-integer-endpoint")
    raise RefinementParameterError(
        "refinement cases need an integer endpoint (eps=0) or integer slope (eps'=0)")


def optimized_refinement_params(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                                mu: float) -> Tuple[float, float]:
    """(C, L) choices minimizing the refined residual when eps' = 0 and
    M(mu) <= f''(mu)^7."""
    fpp = float(model.f2(mu))
    M = float(profile.M(mu))
    _, _, dist_p = fprime_nearest(model, mu)
    if dist_p != 0.0:
        raise RefinementParameterError("optimized choices require integral f'(mu)")
    if M > fpp ** 7:
        raise RefinementParameterError("optimized choices require M(mu) <= f''(mu)^7")
    eps = nearest_decomp(mu).dist
    lo_cut = fpp ** -0.6 * M ** -0.2
    hi_cut = fpp ** -0.4 * M ** 0.2
    if eps <= lo_cut or eps >= hi_cut:
        return fpp ** -0.4 * M ** 0.2, fpp ** (8.0 / 15.0) * M ** (1.0 / 15.0)
    if eps <= fpp ** -0.5:
        return 1.0 / (fpp * eps), fpp ** (1.0 / 3.0) * eps ** (-1.0 / 3.0)
    return eps / 2.0, fpp ** (2.0 / 3.0) * eps ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# the to-infinity variants
# ---------------------------------------------------------------------------

def _locate_kb(profile: ConditionMProfile, a: float, b: float) -> float:
    """Left edge of K_b = {x in [a,b] : x + M(x) > b} for nondecreasing M."""
    if a + float(profile.M(a)) > b:
        return a
    lo, hi = bisect(lambda x: x + profile.M(x) - b, a, b)
    return float(0.5 * (lo + hi))


def _monotone_horizon(fn: Callable[[float], float], b: float) -> float:
    """Doubling horizon where the integrand falls below 1e-16 of its start,
    verified decreasing along the probes."""
    f0 = abs(fn(b + 1.0)) or 1.0
    h = max(2.0 * b, b + 16.0)
    prev = abs(fn(h))
    while abs(fn(h)) > 1e-16 * f0 and h < 1e15:
        h *= 2.0
        cur = abs(fn(h))
        if cur > prev * 1.0000001:
            warnings.warn("integrand not monotone on the truncation tail")
            break
        prev = cur
    return h


def toinfinity_deltas(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                      a: float, b: float) -> Tuple[float, float, float]:
    """(Delta3'(b), Delta4'(b), Delta5) for the fixed-a, growing-b estimate."""
    U, fpp, M = profile.U, model.f2, profile.M

    d3p = float(U(b) / (fpp(b) ** 2 * (b - a) ** 3)
                + U(b) / (fpp(b) ** 2 * M(b) ** 3) * (1.0 + np.sqrt(fpp(b)) * M(b)))

    k_lo = _locate_kb(profile, a, b)
    _, bbar = eb.abar_bbar(model, eb.endpoint(model, profile, a), eb.endpoint(model, profile, b),
                           profile)

    d4p = 0.0
    if bbar is not None and k_lo < bbar:
        def near_b(x):
            return U(x) / (fpp(x) * (b - x) ** 3) * (
                1.0 + 1.0 / (fpp(x) * M(x)) + 1.0 / (M(x) * (b - x)))
        d4p += eb._quad(near_b, k_lo, bbar, "Delta4'(b) near b")
        for x in (k_lo, bbar):
            d4p += float(U(x) / (fpp(x) ** 2 * (b - x) ** 3))
    _, d2b = eb.endpoint_deltas(eb.endpoint(model, profile, b), b - a)
    d4p += d2b
    smooth = eb._delta4_smooth_integrand(model, profile)
    d4p += eb._quad(smooth, k_lo, b, "Delta4'(b) smooth")
    for x in (k_lo, b):
        d4p += float(U(x) / (fpp(x) ** 2 * M(x) ** 3) * (1.0 + np.sqrt(fpp(x)) * M(x)))

    # Delta5: integral tails past b plus the K terms over [b, infinity)
    tail3 = eb._delta3_integrand(model, profile, a)
    h3 = _monotone_horizon(tail3, b)
    v3 = eb._quad(tail3, b, h3, "Delta5 Delta3 tail")
    h4 = _monotone_horizon(smooth, b)
    v4 = eb._quad(smooth, b, h4, "Delta5 smooth tail")

    part = eb.partition_assumptions(model, b, max(h3, h4))
    k0, kp, km, jn = eb._k_terms(model, part)
    return d3p, d4p, v3 + v4 + k0 + kp + km + jn
