"""Oscillatory-integral oracle, the modified Fresnel function, derivative-test
bounds, and the explicit one-sided stationary-phase expansion.

The integrator is deliberately plain: panels are pre-split so the phase
advances at most one cycle per panel (the phase derivative is monotone for
all models here, so the per-panel slope bound is exact), bisecting all pieces
of one level in a batch.  Each panel gets QUADPACK's Gauss-Kronrod 7/15 pair
(qk15, Piessens et al., 1983): a Kronrod 15 value and an |K15 - G7| error
estimate from the same 15 evaluations; the panels carrying most of the
estimate are bisected until the summed estimate clears the tolerance.
No Filon/Levin machinery; this is an oracle, not a production integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .numutil import amplitude_e, csum
from .phase import ConditionMProfile, PhaseAmplitudeModel, invert_fprime

# QUADPACK qk15: the Kronrod nodes in (0, 1] downward and 0, their weights,
# and the Gauss 7 weights of the nodes _XGK[1], _XGK[3], _XGK[5] and 0
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the 15 nodes in [-1, 1] ascending; weight columns K15 and G7 (the odd-indexed
# nodes are the Gauss 7 ones, the others weigh 0 in it)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_WEIGHTS = np.zeros((15, 2))
_WEIGHTS[:, 0] = _WGK[:-1] + _WGK[::-1]
_WEIGHTS[1::2, 1] = _WG[:-1] + _WG[::-1]

DEFAULT_PANEL_CAP = 200_000
_STALL_PANELS = 64


@dataclass
class QuadResult:
    value: complex
    abs_error_estimate: float
    panels: int
    converged: bool


def _eval_panels(fn, los: np.ndarray, his: np.ndarray):
    """(Kronrod 15 values, |K15 - G7| estimates) of fn on a batch of panels,
    from one call of fn on the (panels, 15) array of the Kronrod nodes."""
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    v = (fn(mid[:, None] + half[:, None] * _NODES[None, :]) @ _WEIGHTS) * half[:, None]
    return v[:, 0], np.abs(v[:, 0] - v[:, 1])


def _phase_pieces(phase_slope, edges: np.ndarray):
    """Pre-split [edges[0], edges[-1]] so width * max|phase'| <= 1 on each
    piece (the slope is monotone, so its ends bound it; a nan end bounds
    nothing), or the piece sits at depth 48.  Returns (los, his, pieces),
    sorted by lo, with pieces = los.size.

    All pieces of one level are tested in one batch, and phase_slope sees
    each new midpoint once, in one array per level.  A level that would
    make more than ``DEFAULT_PANEL_CAP`` pieces is not split; then los and
    his are None and pieces counts the pieces so far, that level's unsplit
    ones included.
    """
    def speed(x):
        return np.abs(np.broadcast_to(np.asarray(phase_slope(x), dtype=float), x.shape))

    s = speed(edges)
    lo, hi, slo, shi = edges[:-1], edges[1:], s[:-1], s[1:]
    done_lo, done_hi = [], []
    count = 0
    for depth in range(49):
        keep = ((hi - lo) * np.maximum(slo, shi) <= 1.0) | (depth >= 48)
        done_lo.append(lo[keep])
        done_hi.append(hi[keep])
        count += int(keep.sum())
        split = ~keep
        if not split.any():
            break
        if count + 2 * int(split.sum()) > DEFAULT_PANEL_CAP:
            return None, None, count + int(split.sum())
        lo, hi, slo, shi = lo[split], hi[split], slo[split], shi[split]
        mid = 0.5 * (lo + hi)
        smid = speed(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        slo, shi = np.concatenate([slo, smid]), np.concatenate([smid, shi])
    los, his = np.concatenate(done_lo), np.concatenate(done_hi)
    order = np.lexsort((his, los))
    return los[order], his[order], count


def panel_integral(fn: Callable, los: np.ndarray, his: np.ndarray, tol: float,
                   rel_tol: float = 0.0) -> QuadResult:
    """integral of the vectorized ``fn`` (real or complex) over the panels
    [los[i], his[i]], refined until the estimate is at most
    max(tol, rel_tol |value|) or the panels reach ``DEFAULT_PANEL_CAP``.

    A panel gives K15 and |K15 - G7| from 15 evaluations (``_eval_panels``).
    Each sweep bisects, in one batch, the panels carrying 95 % of the error
    estimate.  A sweep that cuts the estimate by less than 20 % has stalled.
    On the floating noise floor a stall bisects panels all over the range
    and gains nothing; at a steep edge it bisects the edge panel, which needs
    about one bisection per halving of its scale before the estimate drops.
    So stalled sweeps may bisect ``_STALL_PANELS`` panels in all, more than
    the halvings a double can take.  The panel values are summed correctly
    rounded.  A non-finite integrand value comes back as a non-finite,
    unconverged result.
    """
    vals, errs = _eval_panels(fn, los, his)
    stalled = 0
    prev_total = math.inf
    while los.size < DEFAULT_PANEL_CAP:
        total = float(errs.sum())
        if not total > max(tol, rel_tol * abs(vals.sum())):
            break
        order = np.argsort(errs)[::-1]
        cum = np.cumsum(errs[order])
        k = int(np.searchsorted(cum, 0.95 * cum[-1])) + 1
        if total > 0.8 * prev_total:
            stalled += k
            if stalled > _STALL_PANELS:
                break
        prev_total = total
        split, keep = order[:k], order[k:]
        mids = 0.5 * (los[split] + his[split])
        new_lo = np.concatenate([los[split], mids])
        new_hi = np.concatenate([mids, his[split]])
        new_v, new_e = _eval_panels(fn, new_lo, new_hi)
        los = np.concatenate([los[keep], new_lo])
        his = np.concatenate([his[keep], new_hi])
        vals = np.concatenate([vals[keep], new_v])
        errs = np.concatenate([errs[keep], new_e])

    value = csum(vals)
    if not np.iscomplexobj(vals):
        value = value.real
    total_err = float(errs.sum())
    converged = bool(np.isfinite(value)) and total_err <= max(tol, rel_tol * abs(value))
    return QuadResult(value, total_err, int(los.size), converged)


def oscillatory_integral_raw(gfun: Callable, phase: Callable, phase_slope: Callable,
                             alpha: float, beta: float, tol: float,
                             stationary: Optional[float] = None) -> QuadResult:
    """integral of gfun(x) e(phase(x)) over [alpha, beta] by adaptive panels.

    ``gfun``, ``phase`` and ``phase_slope`` are vectorized: each takes an
    array of points and returns an array of the same shape (a scalar
    return is broadcast).  ``phase_slope`` must be monotone on the interval;
    ``stationary`` names its zero when one lies inside, so the pre-split
    starts there.  A pre-split that would need more than
    ``DEFAULT_PANEL_CAP`` pieces (a steep or non-finite slope) stops there,
    and the result is nan and unconverged, with nothing evaluated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if beta <= alpha:
        return QuadResult(0j, 0.0, 0, True)
    if stationary is not None and alpha < stationary < beta:
        edges = np.array([alpha, stationary, beta], dtype=float)
    else:
        edges = np.array([alpha, beta], dtype=float)
    los, his, pieces = _phase_pieces(phase_slope, edges)
    if los is None:
        return QuadResult(complex(math.nan, math.nan), math.inf, pieces, False)

    return panel_integral(lambda x: amplitude_e(gfun(x), phase(x)), los, his, tol)


def oscillatory_integral(model: PhaseAmplitudeModel, r: float,
                         alpha: float, beta: float, tol: float) -> QuadResult:
    """integral of g(x) e(f(x) - r x) over [alpha, beta]."""
    phase = lambda x: np.asarray(model.f(x), dtype=float) - r * np.asarray(x, dtype=float)
    slope = lambda x: np.asarray(model.f1(x), dtype=float) - r
    stationary = None
    fa, fb = slope(alpha), slope(beta)
    if fa < 0 < fb:
        stationary = invert_fprime(model, r)
    return oscillatory_integral_raw(model.g, phase, slope, alpha, beta, tol,
                                    stationary=stationary)


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
    res = oscillatory_integral_raw(
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
        lambda x: np.asarray(x, dtype=float),
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
