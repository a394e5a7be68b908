"""The panel quadrature engine and the oscillatory-integral oracle built on it.

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
from typing import Callable, Optional

import numpy as np

from .numutil import amplitude_e, csum
from .phase import PhaseAmplitudeModel, invert_fprime

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

    The first levels are split untested while every piece of them must
    split: on a segment between edges where the slope keeps its sign, no
    piece is slower than the segment's slower end, smin, so each piece at
    depth d fails the test while width * smin > 2 * 2^d (the factor 2, and
    a width of 2^(d + 3) ulps at least, keep the pieces' rounding clear).
    Those midpoints are the loop's own 0.5 (lo + hi), and the slope is
    evaluated once on the grid they make, so the pieces are the same.
    """
    def slope(x):
        return np.broadcast_to(np.asarray(phase_slope(x), dtype=float), x.shape)

    s = slope(edges)
    width = edges[1:] - edges[:-1]
    smin = np.where(np.sign(s[:-1]) * np.sign(s[1:]) > 0.0,
                    np.minimum(np.abs(s[:-1]), np.abs(s[1:])), 0.0)
    ulp = np.spacing(np.maximum(np.abs(edges[:-1]), np.abs(edges[1:])))
    x, depth = edges, 0
    while (depth < 48 and 2 * (x.size - 1) <= DEFAULT_PANEL_CAP
           and np.all(width * smin > 2.0 ** (depth + 1))
           and np.all(width >= 2.0 ** (depth + 3) * ulp)):
        grid = np.empty(2 * x.size - 1)
        grid[::2] = x
        grid[1::2] = 0.5 * (x[:-1] + x[1:])
        x, depth = grid, depth + 1
    s = np.abs(slope(x) if depth else s)

    lo, hi, slo, shi = x[:-1], x[1:], s[:-1], s[1:]
    done_lo, done_hi = [], []
    count = 0
    for depth in range(depth, 49):
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
        smid = np.abs(slope(mid))
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
