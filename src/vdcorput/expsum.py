"""Direct evaluation of starred exponential sums and curve sampling.

The starred sum halves the summand when a summation limit is an integer.
Each term's e(f(n)) is ``numutil.cis_turns``: f is reduced modulo 1 in turns,
exactly, before anything rounds, and the table kernel is within an ulp of
e(.) at the float phase, where cos and sin of the rounded angle 2 pi {f}
err by up to 6 ulps with a bias that adds up over a long sum.  The
partial-sum curve S(t) follows the usual convention of linear interpolation
by the fractional part between integer arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, TextIO

import numpy as np

from .numutil import (CHUNK, amplitude_e, check_finite, check_interval, cis_turns, csum,
                      integer_range, nearest_integer)
from .phase import PhaseAmplitudeModel

# the most samples a curve may take; each sample is a Python object of some
# 200 bytes next to its term, so this is a few hundred MB
_CURVE_MAX_SAMPLES = 10 ** 6


@dataclass(frozen=True)
class CurveSample:
    t: float
    value: complex


def direct_starred_sum(model: PhaseAmplitudeModel, a: float, b: float,
                       conjugate: bool = False) -> complex:
    """Sum of g(n) e(f(n)) over integers n in [a, b], halved at integer limits.

    The terms are taken in chunks of ``numutil.CHUNK``: the chunk's real and
    imaginary parts are the dot products of g with the two parts of e(f) from
    ``numutil.cis_turns``.  The chunk totals are merged with a
    correctly rounded sum, so the result is reproducible.  Raises ValueError
    when a limit is not finite or b < a.
    """
    check_interval(a, b)
    # a limit taken as an integer is that integer, so the halved term is
    # always the first or last one summed
    n_lo, n_hi, half_lo, half_hi = integer_range(nearest_integer(a), nearest_integer(b))
    if n_hi < n_lo:
        return 0j
    parts = []
    n = n_lo
    while n <= n_hi:
        m = min(n + CHUNK - 1, n_hi)
        ns = np.arange(n, m + 1, dtype=np.float64)
        c, s = cis_turns(model.f(ns))
        g = np.asarray(model.g(ns), dtype=float)
        first, last = n == n_lo and half_lo, m == n_hi and half_hi
        if first or last:
            g = g.copy()  # the model may hand out an array it keeps
            if first:
                g[0] *= 0.5
            if last:
                g[-1] *= 0.5
        parts.append(complex(np.dot(g, c), np.dot(g, s)))
        n = m + 1
    s = csum(parts)
    return s.conjugate() if conjugate else s


def curve_samples(model: PhaseAmplitudeModel, t_max: float,
                  samples_per_unit: int = 1) -> List[CurveSample]:
    """S(t) on the uniform grid with the fractional-part interpolation rule.

    S(t) = sum_{1 <= n <= t} g(n) e(f(n)) + {t} g(floor(t)+1) e(f(floor(t)+1)),
    computed incrementally in one pass.  A curve of more than
    ``_CURVE_MAX_SAMPLES`` samples, t_max * samples_per_unit, raises
    ValueError before any work.
    """
    check_finite(t_max=t_max)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if samples_per_unit < 1:
        raise ValueError("samples_per_unit must be at least 1")
    if not t_max * samples_per_unit <= _CURVE_MAX_SAMPLES:
        raise ValueError(f"the curve takes {t_max * samples_per_unit:.4g} samples, "
                         f"more than {_CURVE_MAX_SAMPLES:.0e}")
    n_max = math.floor(t_max) + 1
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    terms = amplitude_e(model.g(ns), model.f(ns))
    prefix = np.concatenate(([0j], np.cumsum(terms)))

    out: List[CurveSample] = []
    steps = int(round(t_max * samples_per_unit))
    for i in range(1, steps + 1):
        t = i / samples_per_unit
        if t > t_max:
            break
        k = math.floor(t)
        frac = t - k
        val = prefix[k]
        if frac > 0.0 and k + 1 <= n_max:
            val = val + frac * terms[k]
        out.append(CurveSample(t, complex(val)))
    return out


def write_curve_csv(samples: Sequence[CurveSample], fp: TextIO) -> None:
    """CSV emitter: header ``t,re,im``, '.' decimal separator, newline-terminated."""
    fp.write("t,re,im\n")
    for s in samples:
        fp.write(f"{s.t:.12g},{s.value.real:.15g},{s.value.imag:.15g}\n")

