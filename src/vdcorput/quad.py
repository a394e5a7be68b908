"""The panel quadrature engine and the oscillatory-integral oracle on it,
whose one entry point is ``oscillatory_integral(model, r, alpha, beta, tol)``.

The integrator is deliberately plain: panels are pre-split so the phase
advances at most three cycles per panel (the phase derivative is monotone
for all models here, so the per-panel slope bound is exact), bisecting all
pieces of one level in a batch.  Each panel gets QUADPACK's Gauss-Kronrod
15/31 pair (qk31, Piessens et al., 1983): a Kronrod 31 value and an
|K31 - G15| error estimate from the same 31 evaluations, both fixed-order
sums over the nodes of a node-major block (no BLAS); the panels carrying
most of the estimate are bisected until the summed estimate clears the
tolerance.  The oscillatory integrand g e(phase) is the pair of real arrays
g cos, g sin.  No Filon/Levin machinery; this is an oracle, not a
production integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numutil import cis_turns, csum
from .phase import PhaseAmplitudeModel, invert_fprime

# QUADPACK qk31: the Kronrod nodes in (0, 1] downward and 0, their weights,
# and the Gauss 15 weights of the nodes _XGK[1], _XGK[3], ..., _XGK[15] = 0
# (the roots of P15 and of the Stieltjes polynomial E16, correctly rounded)
_XGK = (0.998002298693397060285172840152271, 0.987992518020485428489565718586613,
        0.967739075679139134257347978784337, 0.937273392400705904307758947710209,
        0.897264532344081900882509656454496, 0.848206583410427216200648320774217,
        0.790418501442465932967649294817947, 0.724417731360170047416186054613938,
        0.650996741297416970533735895313275, 0.570972172608538847537226737253911,
        0.485081863640239680693655740232351, 0.394151347077563369897207370981045,
        0.299180007153168812166780024266389, 0.201194093997434522300628303394596,
        0.101142066918717499027074231447392, 0.0)
_WGK = (0.005377479872923348987792051430128, 0.015007947329316122538374763075807,
        0.025460847326715320186874001019653, 0.035346360791375846222037948478360,
        0.044589751324764876608227299373280, 0.053481524690928087265343147239430,
        0.062009567800670640285139230960803, 0.069854121318728258709520077099147,
        0.076849680757720378894432777482659, 0.083080502823133021038289247286104,
        0.088564443056211770647275443693774, 0.093126598170825321225486872747346,
        0.096642726983623678505179907627589, 0.099173598721791959332393173484603,
        0.100769845523875595044946662617570, 0.101330007014791549017374792767493)
_WG = (0.030753241996117268354628393577204, 0.070366047488108124709267416450667,
       0.107159220467171935011869546685869, 0.139570677926154314447804794511028,
       0.166269205816993933553200860481209, 0.186161000015562211026800561866423,
       0.198431485327111576456118326443839, 0.202578241925561272880620199967519)
# the 31 nodes in [-1, 1] ascending, as a column, and the K31 weights; the
# odd-indexed nodes are the Gauss 15 ones, with the weights _G15
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))[:, None]
_K31 = np.array(_WGK[:-1] + _WGK[::-1])[:, None]
_G15 = np.array(_WG + _WG[-2::-1])[:, None]

DEFAULT_PANEL_CAP = 200_000
_STALL_PANELS = 64
# panels per integrand call: a (31, 173) array is 43 KB, so the integrand's
# temporaries stay clear of malloc's mmap threshold (128 KB), past which they
# would be mapped and page-faulted afresh on every call
_BLOCK = 173
# phase cycles a pre-split piece may span: width * max|phase'| <= _CYCLES
_CYCLES = 3.0


@dataclass
class QuadResult:
    value: complex
    abs_error_estimate: float
    panels: int
    converged: bool


def _rule(y: np.ndarray):
    """(K31, |K31 - G15|) of the node-major values y, each a sum over the
    nodes in their order (numpy sums a lone column pairwise, so it is
    summed as two)."""
    n = y.shape[1]
    if n == 1:
        y = np.concatenate((y, y), axis=1)
    k = np.add.reduce(_K31 * y, axis=0)[:n]
    return k, np.abs(k - np.add.reduce(_G15 * y[1::2], axis=0)[:n])


def _eval_panels(fn, los: np.ndarray, his: np.ndarray):
    """(Kronrod 31 values, |K31 - G15| estimates) of fn on a batch of panels.

    fn gets the (31, panels) node-major array of the Kronrod nodes of at most
    ``_BLOCK`` panels at a time and returns one real array of that shape, or
    a (real, imaginary) pair of them, which makes the values complex.  The
    rule's sums run over the nodes in a fixed order with no BLAS call, so a
    panel's bits depend neither on the batch nor on the machine's BLAS.
    """
    mid, half = 0.5 * (los + his), 0.5 * (his - los)
    n = los.size
    parts = max(1, -(-n // _BLOCK))  # equal blocks: none is a lone panel
    vals, errs = [], []
    for j in range(parts):
        block = slice(j * n // parts, (j + 1) * n // parts)
        h = half[block]
        y = fn(mid[block] + h * _NODES)
        if isinstance(y, tuple):
            (k, d), (ki, di) = _rule(y[0]), _rule(y[1])
            k, d = k + 1j * ki, np.hypot(d, di)
        else:
            k, d = _rule(y)
        vals.append(k * h)
        errs.append(d * h)
    return np.concatenate(vals), np.concatenate(errs)


def _phase_pieces(phase_slope, edges: np.ndarray):
    """Pre-split [edges[0], edges[-1]] so width * max|phase'| <= ``_CYCLES``
    on each piece (the slope is monotone, so its ends bound it; a nan end
    bounds nothing), or the piece sits at depth 48.  Returns (los, his,
    pieces), sorted by lo, with pieces = los.size.

    All pieces of one level are tested in one batch, and phase_slope sees
    each new midpoint once, in one array per level.  A level that would
    make more than ``DEFAULT_PANEL_CAP`` pieces is not split; then los and
    his are None and pieces counts the pieces so far, that level's unsplit
    ones included.

    The first levels are split untested while every piece of them must
    split: on a segment between edges where the slope keeps its sign, no
    piece is slower than the segment's slower end, smin, so each piece at
    depth d fails the test while width * smin > _CYCLES * 2 * 2^d (the
    factor 2, and a width of 2^(d + 3) ulps at least, keep the pieces'
    rounding clear).  A segment whose slope changes sign (a stationary
    edge) has smin = 0, so a split with such a segment skips no level.
    Those midpoints are the loop's own 0.5 (lo + hi), and the slope is
    evaluated once on the grid they make, so the pieces are the same.
    """
    s = phase_slope(edges)
    width = edges[1:] - edges[:-1]
    smin = np.where(np.sign(s[:-1]) * np.sign(s[1:]) > 0.0,
                    np.minimum(np.abs(s[:-1]), np.abs(s[1:])), 0.0)
    ulp = np.spacing(np.maximum(np.abs(edges[:-1]), np.abs(edges[1:])))
    # the least width * smin and width in ulps (exact: ulp is a power of 2)
    reach, ulps = float(np.min(width * smin)), float(np.min(width / ulp))
    x, depth = edges, 0
    while (depth < 48 and 2 * (x.size - 1) <= DEFAULT_PANEL_CAP
           and reach > _CYCLES * 2.0 ** (depth + 1) and ulps >= 2.0 ** (depth + 3)):
        grid = np.empty(2 * x.size - 1)
        grid[::2] = x
        grid[1::2] = 0.5 * (x[:-1] + x[1:])
        x, depth = grid, depth + 1
    s = np.abs(phase_slope(x) if depth else s)

    lo, hi, slo, shi = x[:-1], x[1:], s[:-1], s[1:]
    done_lo, done_hi = [], []
    count = 0
    for depth in range(depth, 49):
        keep = ((hi - lo) * np.maximum(slo, shi) <= _CYCLES) | (depth >= 48)
        done_lo.append(lo[keep])
        done_hi.append(hi[keep])
        nkeep = np.count_nonzero(keep)
        count += nkeep
        nsplit = keep.size - nkeep
        if not nsplit:
            break
        if count + 2 * nsplit > DEFAULT_PANEL_CAP:
            return None, None, count + nsplit
        split = ~keep
        lo, hi, slo, shi = lo[split], hi[split], slo[split], shi[split]
        mid = 0.5 * (lo + hi)
        smid = np.abs(phase_slope(mid))
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        slo, shi = np.concatenate([slo, smid]), np.concatenate([smid, shi])
    los, his = np.concatenate(done_lo), np.concatenate(done_hi)
    order = np.lexsort((his, los))
    return los[order], his[order], count


def panel_integral(fn: Callable, los: np.ndarray, his: np.ndarray, tol: float,
                   rel_tol: float = 0.0) -> QuadResult:
    """integral of the vectorized ``fn`` over the panels [los[i], his[i]],
    refined until the estimate is at most max(tol, rel_tol |value|) or the
    panels reach ``DEFAULT_PANEL_CAP``.  fn returns a real array, or a
    (real, imaginary) pair of them for a complex integrand.

    A panel gives K31 and |K31 - G15| from 31 evaluations (``_eval_panels``).
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


def oscillatory_integral(model: PhaseAmplitudeModel, r: float,
                         alpha: float, beta: float, tol: float) -> QuadResult:
    """integral of g(x) e(f(x) - r x) over [alpha, beta] by adaptive panels.

    f' must be monotone; where f' - r rises through 0 inside [alpha, beta],
    the pre-split starts at x_r = (f')^{-1}(r).  A pre-split that would need
    more than ``DEFAULT_PANEL_CAP`` pieces (a steep or non-finite slope)
    stops there, and the result is nan and unconverged, with nothing evaluated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if beta <= alpha:
        return QuadResult(0j, 0.0, 0, True)
    slope = lambda x: model.f1(x) - r
    edges = np.array([alpha, beta], dtype=float)
    fa, fb = slope(edges)
    if fa < 0 < fb:
        xr = invert_fprime(model, r)
        if alpha < xr < beta:
            edges = np.array([alpha, xr, beta], dtype=float)
    los, his, pieces = _phase_pieces(slope, edges)
    if los is None:
        return QuadResult(complex(math.nan, math.nan), math.inf, pieces, False)

    def integrand(x):
        c, s = cis_turns(model.f(x) - r * x)
        g = model.g(x)
        return np.multiply(c, g, out=c), np.multiply(s, g, out=s)

    return panel_integral(integrand, los, his, tol)
