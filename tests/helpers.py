"""Helpers shared by the tests: a grid evaluator for the modified sawtooth's
partial sums, the starred distance to the nearest integer, the fitted-
constant convention of the acceptance suite, the recursive reference for the
quadrature's batched pre-split, models and single-order views built from
per-order callables, and the one-function-per-call critical-point formulas
that the derivative jets of the K functionals replaced."""

import math
from typing import Sequence

import numpy as np

from vdcorput.errbudget import WRFunctions
from vdcorput.numutil import TWO_PI, floor_frac, nearest_decomp


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


def fitted_constant(ratios: Sequence[float]) -> float:
    """The empirical constant of a sweep: the largest observed ratio."""
    finite = [r for r in ratios if math.isfinite(r)]
    if not finite:
        raise ValueError("no finite ratios to fit")
    return max(finite)


def split_fit(ratios: Sequence[float]) -> float:
    """Fit on the even-indexed half of a sweep (the odd half validates it)."""
    return fitted_constant(ratios[::2])


def presplit_reference(phase_slope, lo: float, hi: float, depth: int = 0) -> list:
    """The oracle's pre-split as a scalar depth-first recursion: [(lo, hi)]
    pieces with width * max|phase'| <= 1 at their ends, or at depth 48."""
    slope = max(abs(phase_slope(lo)), abs(phase_slope(hi)))
    if (hi - lo) * slope <= 1.0 or depth >= 48:
        return [(lo, hi)]
    mid = 0.5 * (lo + hi)
    return (presplit_reference(phase_slope, lo, mid, depth + 1)
            + presplit_reference(phase_slope, mid, hi, depth + 1))


def jet_of(*orders):
    """A jet (x, lo, hi) -> [orders[lo](x), ..., orders[hi](x)] from one
    callable per derivative order."""
    return lambda x, lo, hi: [fn(x) for fn in orders[lo:hi + 1]]


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
        return m.f2(x) - (Pp / (2.0 * g2) - P * g3 / (2.0 * g2 ** 2))

    def W_branch(self, x, sigma):
        m = self.m
        P = self._P(x, sigma)
        g1, g2 = m.g1(x), m.g2(x)
        return (2.0 * g2) ** 2 * g1 / P ** 2 - (2.0 * g2) ** 3 * m.f2(x) * m.g(x) / P ** 3

    def W_branch_prime(self, x, sigma):
        m = self.m
        P, Pp = self._P(x, sigma), self._P_prime(x, sigma)
        g, g1, g2, g3 = m.g(x), m.g1(x), m.g2(x), m.g3(x)
        f2, f3 = m.f2(x), m.f3(x)
        A_p = (8.0 * g2 * g3 * g1 + 4.0 * g2 ** 3) / P ** 2 \
            - 8.0 * g2 ** 2 * g1 * Pp / P ** 3
        B_p = 8.0 * (3.0 * g2 ** 2 * g3 * f2 * g + g2 ** 3 * f3 * g + g2 ** 3 * f2 * g1) / P ** 3 \
            - 24.0 * g2 ** 3 * f2 * g * Pp / P ** 4
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

    def W0(self, x):
        m = self.m
        return -self.H(x) ** 2 * m.f3(x) / (27.0 * m.g(x) * m.f2(x) ** 5)

    def W0_prime(self, x):
        m = self.m
        H, Hp = self.H(x), self.H_prime(x)
        g, g1 = m.g(x), m.g1(x)
        f2, f3, f4 = m.f2(x), m.f3(x), m.f4(x)
        return (-(2.0 * H * Hp * f3 + H ** 2 * f4) / (27.0 * g * f2 ** 5)
                + H ** 2 * f3 * (g1 * f2 + 5.0 * g * f3) / (27.0 * g ** 2 * f2 ** 6))
