"""Nearest-integer arithmetic, the one integer rule, e(x), sawtooth functions,
correctly rounded summation, and the one batched bisection behind every root
the package finds.

The sawtooth ladder used throughout the package:

    {x}        fractional part, in [0, 1)
    s(x)       {x} - 1/2
    psi(x)     s(x) for non-integer x, 0 at integers
    psi(x, e)  the modified sawtooth, a conditionally convergent bilateral
               series -(1/2 pi i) sum_{0<|r|<R} e(rx)/(r+e) as R -> oo

plus the nearest-integer quadruple (nearest, signed fractional part,
distance to nearest, starred distance) as a small value type.

psi(x, e) is evaluated as a genuine partial sum at a truncation R chosen
from the tail bound ``TAIL_CONSTANT * min(1, 1/(R ||x||*))``.  Terms r and
-r are paired before accumulation; the pairing collapses the conditional
convergence into an absolutely summable real part plus an O(1/R) imaginary
part.  For large R the partial sum is still produced exactly (to floating
precision) by summing directly up to a modest index and expressing the two
remaining tail segments in closed form via repeated Abel summation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi

# Measured worst case of |partial(R) - limit| / min(1, 1/(R ||x||*)) over a
# random grid of (x, eps, R); see tests/test_numutil.py::test_tail_constant.
# Truncation logic doubles it for safety.
TAIL_CONSTANT = 0.32
TRUNCATION_CONSTANT = 2.0 * TAIL_CONSTANT

DEFAULT_MAX_R = 1 << 34


class TailAccuracyError(RuntimeError):
    """Requested tolerance needs a truncation beyond the configured cap.

    Carries the truncation that would be needed and the tail bound actually
    achievable at the cap.
    """

    def __init__(self, r_needed: int, r_cap: int, achievable: float):
        self.r_needed = r_needed
        self.r_cap = r_cap
        self.achievable = achievable
        super().__init__(
            f"modified sawtooth needs R={r_needed} > cap {r_cap}; "
            f"tail bound achievable at cap is {achievable:.3e}"
        )


# ---------------------------------------------------------------------------
# scalar sawtooth helpers
# ---------------------------------------------------------------------------

def floor_frac(x: float) -> float:
    """Fractional part {x} in [0, 1)."""
    return x - math.floor(x)


def sawtooth_s(x: float) -> float:
    """s(x) = {x} - 1/2."""
    return floor_frac(x) - 0.5


def sawtooth_psi(x: float) -> float:
    """The smoothed sawtooth: s(x) off the integers, 0 on them."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite input {x!r}")
    if x == math.floor(x):
        return 0.0
    return sawtooth_s(x)


def check_finite(**limits: float) -> None:
    """Raise ValueError naming the first keyword whose value is not finite."""
    for name, x in limits.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {name}={x}")


def is_integer_like(x: float) -> bool:
    """Floating integer detection: |x - round(x)| <= 1e-9 max(1, |x|)."""
    return abs(x - round(x)) <= 1e-9 * max(1.0, abs(x))


def integer_range(lo: float, hi: float) -> Tuple[int, int, bool, bool]:
    """(n_lo, n_hi, lo_hit, hi_hit): the integers n_lo..n_hi in [lo, hi]; a limit
    that is_integer_like is hit, and is that integer, n_lo or n_hi itself."""
    lo_hit, hi_hit = is_integer_like(lo), is_integer_like(hi)
    n_lo = round(lo) if lo_hit else math.ceil(lo)
    n_hi = round(hi) if hi_hit else math.floor(hi)
    return n_lo, n_hi, lo_hit, hi_hit


# ---------------------------------------------------------------------------
# nearest-integer decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NearestIntDecomp:
    """Nearest integer, signed offset and distance of x.

    ``nearest + signed_frac == x`` up to rounding and ``dist == |signed_frac|``.
    """

    nearest: int
    signed_frac: float
    dist: float


def nearest_decomp(x: float) -> NearestIntDecomp:
    """Decompose x relative to its nearest integer.

    Half-integers round toward +infinity, so 3.5 has nearest integer 4 and
    signed fractional part -1/2; the signed part always lies in [-1/2, 1/2).
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite input {x!r}")
    n = math.floor(x + 0.5)
    frac = x - n
    # floor(x + 0.5) can land on the wrong side when x + 0.5 rounds up to an
    # exact integer; repair so that frac stays in [-1/2, 1/2).
    if frac < -0.5:
        n -= 1
        frac = x - n
    elif frac >= 0.5:
        n += 1
        frac = x - n
    return NearestIntDecomp(n, frac, abs(frac))


def dist_to_nearest_star(x: float) -> float:
    """||x||*: distance to the nearest integer, with 1 substituted at 0."""
    return nearest_decomp(x).dist or 1.0


# ---------------------------------------------------------------------------
# e(x) = exp(2 pi i x)
# ---------------------------------------------------------------------------

def reduced_angle(f) -> np.ndarray:
    """2*pi*(f mod 1) as a new array (0-d for a scalar); f is left as it was.

    f - floor(f) has the bits of np.mod(f, 1.0) for every finite f (a tiny
    negative f gives 1.0 in both) at a fraction of its cost.
    """
    f = np.asarray(f, dtype=float)
    th = np.floor(f, out=np.empty_like(f))
    np.subtract(f, th, out=th)
    th *= TWO_PI
    return th


def _is_0d(x) -> bool:
    """np.ndim(x) == 0 for a number or an array, without its cost on a float."""
    return isinstance(x, (int, float)) or getattr(x, "ndim", None) == 0


def amplitude_e(g, t):
    """g e(t) as g cos 2 pi {t} + i g sin 2 pi {t}; 0-d inputs give a complex scalar.

    For every nonzero g these are the bits of g * exp(2j pi mod(t, 1)),
    without its complex angle array.  That product's imaginary part is
    g sin + 0 cos, which is +0 where g sin is -0 (a negative g at an integral
    t); the + 0.0 here does the same.  A zero g gives a zero of either sign.
    Two 0-d inputs take math's floor, cos and sin, with the same bits; a
    non-finite t gives nan there as well.
    """
    if _is_0d(g) and _is_0d(t):
        t = float(t)
        th = (t - math.floor(t)) * TWO_PI if math.isfinite(t) else math.nan
        g = float(g)
        return np.complex128(complex(g * math.cos(th), g * math.sin(th) + 0.0))
    th = reduced_angle(t)
    g = np.asarray(g, dtype=float)
    out = np.empty(np.broadcast(g, th).shape, dtype=complex)
    np.multiply(g, np.cos(th), out=out.real)
    np.multiply(g, np.sin(th), out=out.imag)
    out.imag += 0.0
    return out if out.ndim else out[()]


# ---------------------------------------------------------------------------
# correctly rounded summation
# ---------------------------------------------------------------------------

def csum(values: Sequence[complex]) -> complex:
    """Sum of complex values, math.fsum on the real and the imaginary parts.

    Each part is correctly rounded, so the result does not depend on the
    order of the values.  Parts that are not finite fall back to the plain
    IEEE sum (inf or nan) instead of raising.
    """
    z = np.asarray(values, dtype=np.complex128)
    re, im = z.real.tolist(), z.imag.tolist()
    try:
        return complex(math.fsum(re), math.fsum(im))
    except (ValueError, OverflowError):
        return complex(sum(re), sum(im))


# ---------------------------------------------------------------------------
# batched bisection
# ---------------------------------------------------------------------------

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


def sign_change_roots(fn: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
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


# ---------------------------------------------------------------------------
# the modified sawtooth psi(x, eps)
# ---------------------------------------------------------------------------

def psi_tail_bound(r: int, x: float) -> float:
    """Measured-constant tail bound for the partial sum truncated at r."""
    return TAIL_CONSTANT * min(1.0, 1.0 / (r * dist_to_nearest_star(x)))


def _psi_partial_direct(fx: float, eps: float, lo: int, hi: int) -> complex:
    """Paired partial sum over lo <= r <= hi, vectorized in chunks.

    fx is {x}; each pair (r, -r) contributes
    (i/2pi) * [z^r/(r+eps) - conj(z)^r/(r-eps)] with z = e(fx).
    """
    parts = []
    chunk = 1 << 18
    r0 = lo
    while r0 <= hi:
        r1 = min(r0 + chunk - 1, hi)
        r = np.arange(r0, r1 + 1, dtype=np.float64)
        ang = reduced_angle(r * fx)
        c = np.cos(ang)
        s = np.sin(ang)
        den = r * r - eps * eps
        # real part: -(1/pi) sum r sin / den; imag: -(eps/pi) sum cos / den
        parts.append(complex(-np.sum(r * s / den) / math.pi,
                             -eps * np.sum(c / den) / math.pi))
        r0 = r1 + 1
    return csum(parts)


_ABEL_LEVELS = 18


def _abel_tail(fx: float, s: float, m: int) -> complex:
    """Closed form for G = sum_{r>m} z^r / (r+s) with z = e(fx), fx not in Z.

    Repeated summation by parts:
        G = sum_k (-1)^(k-1) (k-1)! z^(m+k) / [(1-z)^k prod_{t<=k}(m+s+t)]
    The terms shrink by roughly k / (m |1-z|), so callers must keep
    m |1-z| comfortably above ``_ABEL_LEVELS``.  Powers z^(m+k) are rebuilt
    from (m+k) fx mod 1 so no phase accuracy is lost at large m.
    """
    one_minus = 1.0 - cmath.exp(2j * math.pi * fx)
    acc = 0j
    term_coef = 1.0 / one_minus  # (-1)^(k-1) (k-1)! / (1-z)^k, sign folded in
    prod = 1.0
    for k in range(1, _ABEL_LEVELS + 1):
        prod *= m + s + k
        acc += term_coef * cmath.exp(2j * math.pi * math.fmod((m + k) * fx, 1.0)) / prod
        term_coef *= -k / one_minus
    return acc


def _psi_tail_segment(fx: float, eps: float, m: int) -> complex:
    """sum_{r>m} of the paired psi terms, in closed form (requires {x} != 0)."""
    g_plus = _abel_tail(fx, eps, m)
    g_minus = _abel_tail(-fx, -eps, m)
    return (1j / TWO_PI) * (g_plus - g_minus)


_EM_START = 32


def _inverse_square_tail(eps: float, n: int) -> float:
    """sum_{k>n} 1/(k^2 - eps^2) by Euler-Maclaurin: the integral, f/2 and the
    first, third and fifth derivatives; the next term is below n^-9 / 30, a
    rounding error for n >= 32."""
    x = float(n)
    x2, e2 = x * x, eps * eps
    d = x2 - e2
    f1 = -2.0 * x / d ** 2
    f3 = -24.0 * x * (x2 + e2) / d ** 4
    f5 = -x * (720.0 * x2 * x2 + 2400.0 * x2 * e2 + 720.0 * e2 * e2) / d ** 6
    return math.atanh(eps / x) / eps - 0.5 / d - f1 / 12.0 + f3 / 720.0 - f5 / 30240.0


def _psi_partial_integer_x(eps: float, r: int) -> complex:
    """Partial sum at integer x: phases vanish, and each pair (k, -k) leaves
    -(eps/pi) / (k^2 - eps^2), summed exactly up to k = 32 and through the
    Euler-Maclaurin tails beyond."""
    if eps == 0.0:
        return 0j
    terms = [1.0 / (k * k - eps * eps) for k in range(1, min(r, _EM_START) + 1)]
    if r > _EM_START:
        terms += [_inverse_square_tail(eps, _EM_START), -_inverse_square_tail(eps, r)]
    return complex(0.0, -eps * math.fsum(terms) / math.pi)


def modified_sawtooth_partial(x: float, eps: float, r: int) -> complex:
    """The paired partial sum of psi(x, eps) truncated at |r| < R = r+1.

    Exact to floating precision for any truncation; large truncations route
    the two tail segments through the Abel closed form instead of looping.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite input {x!r}")
    if abs(eps) > 0.5:
        raise ValueError(f"eps must lie in [-1/2, 1/2], got {eps}")
    if r < 1:
        return 0j
    fx = floor_frac(x)
    if fx == 0.0:
        return _psi_partial_integer_x(eps, r)
    dist = min(fx, 1.0 - fx)
    # direct up to m, then closed-form tails: partial(R) = direct(m) + T(m) - T(R)
    m = max(64, int(math.ceil(24.0 / dist)))
    if r <= 2 * m:
        return _psi_partial_direct(fx, eps, 1, r)
    direct = _psi_partial_direct(fx, eps, 1, m)
    return direct + _psi_tail_segment(fx, eps, m) - _psi_tail_segment(fx, eps, r)


def modified_sawtooth(x: float, eps: float, tol: float) -> complex:
    """psi(x, eps) to within tol, as a partial sum at the bound-implied truncation.

    The truncation R satisfies TRUNCATION_CONSTANT / (R ||x||*) <= tol; if that
    R exceeds ``DEFAULT_MAX_R`` a :class:`TailAccuracyError` reports the tail
    bound that the cap could achieve.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not math.isfinite(x):
        raise ValueError(f"non-finite input {x!r}")
    if abs(eps) > 0.5:
        raise ValueError(f"eps must lie in [-1/2, 1/2], got {eps}")
    r_needed = int(math.ceil(TRUNCATION_CONSTANT / (tol * dist_to_nearest_star(x))))
    r_needed = max(r_needed, 8)
    if r_needed > DEFAULT_MAX_R:
        raise TailAccuracyError(r_needed, DEFAULT_MAX_R, psi_tail_bound(DEFAULT_MAX_R, x))
    return modified_sawtooth_partial(x, eps, r_needed)
