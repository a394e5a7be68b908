"""Helpers shared by the tests: a grid evaluator for the modified sawtooth,
the fitted-constant convention of the acceptance suite, and the recursive
reference for the quadrature's batched pre-split."""

import math
from typing import Sequence

import numpy as np

from vdcorput.numutil import TWO_PI, floor_frac


def modified_sawtooth_grid(xs: np.ndarray, epss: np.ndarray, r: int) -> np.ndarray:
    """Partial sums of psi(x, eps) at truncation r on the outer grid xs x epss,
    shape (len(xs), len(epss)).  Phases are computed once per x and reused
    across all eps, keeping the transcendental cost at O(len(xs) * r)."""
    xs = np.asarray(xs, dtype=np.float64)
    epss = np.asarray(epss, dtype=np.float64)
    out = np.empty((xs.size, epss.size), dtype=np.complex128)
    rr = np.arange(1, r + 1, dtype=np.float64)
    den = (rr * rr)[:, None] - (epss * epss)[None, :]
    for i, x in enumerate(xs):
        ang = TWO_PI * np.mod(rr * floor_frac(float(x)), 1.0)
        re = -(rr * np.sin(ang)) @ (1.0 / den) / math.pi
        im = -(np.cos(ang) @ (1.0 / den)) * epss / math.pi
        out[i] = re + 1j * im
    return out


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
