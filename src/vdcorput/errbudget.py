"""Local-regularity verification and the complete transform error budget.

The budget of the main estimate splits into:

    Delta1(a), Delta1(b)   stationary point adjacent to an endpoint
    Delta2(a), Delta2(b)   second-order endpoint contributions
    Delta3(a), Delta3(b)   tail integrals from abar/bbar outward
    Delta4                 smooth global variation integral, the K
                           functionals over the critical-point partition,
                           and the isolated amplitude-zero sum

All big-O terms are evaluated with implicit constant 1 and reported as
magnitudes; empirical constants are fitted separately and never folded in
here.

The partition of the extended interval J classifies where the second
integration by parts has interior critical points: J_pm collects intervals
where G != 0 and H^2 - G >= 0 (two real branches), J_0 where g'' vanishes
identically but g and H do not (single branch), and J_null the isolated
amplitude zeros with g' and g'' nonzero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .numutil import (NearestIntDecomp, check_interval, integer_range, nearest_decomp,
                      nearest_integer, sawtooth_s, sign_change_roots)
from .phase import ConditionMProfile, PhaseAmplitudeModel, invert_fprime
from .quad import panel_integral


# ---------------------------------------------------------------------------
# condition (M) verification
# ---------------------------------------------------------------------------

_INEQUALITIES = (
    "f2_upper", "f2_lower", "f3", "f4", "g0", "g1", "g2",
)
_GRID = 24  # Chebyshev nodes of the sweep


@dataclass(frozen=True)
class Endpoint:
    """What D(x), Delta1, Delta2 and J read at a limit x: f, f'', f''', g, g',
    U and M there, the integer decision of f'(x) (:func:`fprime_nearest`),
    and m, the number of integers other than f' in the open interval
    (f' - f'', f' + f'')."""

    x: float
    f: float
    f2: float
    f3: float
    g: float
    g1: float
    U: float
    M: float
    slope: NearestIntDecomp
    m: int


@dataclass
class ConditionMReport:
    passed: bool
    part1_ok: bool
    part3_ok: bool
    worst_ratios: dict
    violations: List[dict]
    interval: Tuple[float, float]
    extended_interval: Tuple[float, float]
    grid: int
    ends: Optional[Tuple[Endpoint, Endpoint]] = None  # the records of a and b

    def to_json(self) -> dict:
        return {
            "schema": "condition-m-report/1",
            "passed": self.passed,
            "parts": {"I": self.part1_ok, "III": self.part3_ok},
            "worstRatios": self.worst_ratios,
            "violations": self.violations,
            "interval": list(self.interval),
            "extendedInterval": list(self.extended_interval),
            "grid": self.grid,
        }


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


def endpoint(model: PhaseAmplitudeModel, profile: ConditionMProfile, mu: float) -> Endpoint:
    """The record of the limit mu from one f' decision, one f jet and one g jet."""
    slope = fprime_nearest(model, mu)
    f, f1, f2, f3 = map(float, model.fjet(mu, 0, 3))
    g, g1 = map(float, model.gjet(mu, 0, 1))
    lo, hi = f1 - f2, f1 + f2
    # an integral f' inside its own window is not counted
    m = math.ceil(hi) - math.floor(lo) - 1 - (slope.dist == 0.0 and lo < f1 < hi)
    return Endpoint(mu, f, f2, f3, g, g1, float(profile.U(mu)), float(profile.M(mu)),
                    slope, max(m, 0))


def extended_interval(model: PhaseAmplitudeModel, ea: Endpoint,
                      eb: Endpoint) -> Tuple[float, float, bool]:
    """J = [a - c(a) M(a), b + c(b) M(b)], c = 1 where m >= 1, else 0, clipped to
    the model's domain, and whether J lay inside it: (lo, hi, inside)."""
    lo = ea.x - (1.0 if ea.m >= 1 else 0.0) * ea.M
    hi = eb.x + (1.0 if eb.m >= 1 else 0.0) * eb.M
    dlo, dhi = model.domain
    return max(lo, dlo), min(hi, dhi), lo >= dlo - 1e-12 and hi <= dhi + 1e-12


def check_condition_M(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                      a: float, b: float) -> ConditionMReport:
    """Sweep the regularity inequalities on 24 Chebyshev nodes of [a, b].

    For each node x, 64 points z of I_x = [x - M(x), x + M(x)] cut to J are
    tested against the f'' sandwich, the f''' and f'''' decay bounds and the
    three amplitude bounds, from one f jet and one g jet on one block of points.
    The report gives the worst ratios (value / allowance), the located
    violations and the records of a and b, which set J; it never raises.
    """
    ea, eb = endpoint(model, profile, a), endpoint(model, profile, b)
    part1 = max(ea.M, eb.M) <= (b - a) * (1 + 1e-12)
    jlo, jhi, part3 = extended_interval(model, ea, eb)

    k = np.arange(_GRID)
    xs = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * k + 1) * np.pi / (2 * _GRID))
    # one (grid, 65) block: row n holds node xs[n], then the 64 points z of I_x
    Mx = np.asarray(profile.M(xs), dtype=float)[:, None]
    Ux = np.asarray(profile.U(xs), dtype=float)[:, None]
    zs = np.linspace(np.maximum(xs - Mx[:, 0], jlo), np.minimum(xs + Mx[:, 0], jhi), 64, axis=1)
    f2, f3, f4 = model.fjet(np.column_stack((xs, zs)), 2, 4)
    fppx, f2z, f3z, f4z = f2[:, :1], f2[:, 1:], np.abs(f3[:, 1:]), np.abs(f4[:, 1:])
    g0z, g1z, g2z = (np.abs(v) for v in model.gjet(zs, 0, 2))
    eta = profile.eta
    ratios = np.stack((
        f2z / (profile.C2 * fppx),
        fppx / (profile.C2_minus * f2z),
        f3z * Mx / (eta * fppx),
        f4z * Mx * Mx / (eta * eta * profile.C4 * fppx),
        g0z / (profile.D0 * Ux),
        g1z * Mx / (profile.D1 * Ux),
        g2z * Mx * Mx / (profile.D2 * Ux),
    ))
    # (inequality, node) maxima; a worst ratio starts from 0 and skips nan
    # nodes, and the violations are listed node by node
    at, rmax = ratios.argmax(axis=2), ratios.max(axis=2)
    worst = dict(zip(_INEQUALITIES, np.where(rmax > 0.0, rmax, 0.0).max(axis=1).tolist()))
    n, i = np.nonzero((rmax > 1.0 + 1e-12).T)
    violations = [{"inequality": _INEQUALITIES[k], "x": x, "z": z, "ratio": r}
                  for k, x, z, r in zip(i.tolist(), xs[n].tolist(), zs[n, at[i, n]].tolist(),
                                        rmax[i, n].tolist())]
    passed = part1 and part3 and not violations
    return ConditionMReport(passed, part1, part3, worst, violations,
                            (a, b), (jlo, jhi), _GRID, (ea, eb))


# ---------------------------------------------------------------------------
# the (W, W', r') triples of the critical-point branches
# ---------------------------------------------------------------------------

@dataclass
class WRFunctions:
    """The (W, W', r') triples that the K functionals of the pm branches and
    of the 0 branch integrate, each from one f jet and one g jet.

    With H = g f''' + 3 g' f'' and G = 12 g g'' f''^2, the pm branches are
    r_pm = f' - (H + sigma sqrt(H^2 - G)) / (2 g''), sigma = +1 or -1, and
    the 0 branch is r_0 = f' - 3 g f''^2 / H.  Each assumes the point is
    inside the region where its branch is defined (g'' != 0 for the pm pair,
    H != 0 for the 0 pair); no masking is done here.

    Both take the jets and what their terms share at every point x; given
    ``parts``, slices of x, one per row of (W, W', r') as ``kappa_cuts``
    asks, they take each row on its slice only, with the same bits.
    """

    model: PhaseAmplitudeModel

    def pm_terms(self, x, sigma, parts=None):
        """(W_sigma, W_sigma', r_sigma') at the points x from g ... g''' and
        f'' ... f''''; sigma is +1, -1 or a column of them, a branch a row."""
        g, g1, g2, g3 = self.model.gjet(x, 0, 3)
        f2, f3, f4 = self.model.fjet(x, 2, 4)
        H = g * f3 + 3.0 * g1 * f2
        Hp = 4.0 * g1 * f3 + 3.0 * g2 * f2 + g * f4
        # every power is a product: numpy's pow of a negative base (g'' and P
        # change sign along an interval) takes a slow path
        f2_2 = f2 * f2
        G = 12.0 * g * g2 * f2_2
        Gp = 12.0 * (g1 * g2 * f2_2 + g * g3 * f2_2 + 2.0 * g * g2 * f2 * f3)
        S = np.sqrt(H * H - G)
        P = H + sigma * S
        Pp = Hp + sigma * (2.0 * H * Hp - Gp) / (2.0 * S)
        g2_2 = g2 * g2
        g2_3 = g2_2 * g2
        P2 = P * P
        P3 = P2 * P
        jets, branch = (g, g1, g2, g3, f2, f3, g2_2, g2_3), (P, Pp, P2, P3)
        if parts is None:
            return _pm_terms(range(3), *jets, *branch)
        k = np.size(sigma)
        return _sliced(parts, lambda c, s: _pm_terms(
            (c // k,), *(v[s] for v in jets), *(v.reshape(k, -1)[c % k, s] for v in branch))[0])

    def zero_terms(self, x, parts=None):
        """(W_0, W_0', r_0') at the points x from g ... g'' and f'' ... f'''' (the 0
        branch needs no g''')."""
        g, g1, g2 = self.model.gjet(x, 0, 2)
        f2, f3, f4 = self.model.fjet(x, 2, 4)
        H = g * f3 + 3.0 * g1 * f2
        Hp = 4.0 * g1 * f3 + 3.0 * g2 * f2 + g * f4
        # every power is a product, as numpy's pow of a negative base is slow
        H2, f2_2 = H * H, f2 * f2
        f2_4 = f2_2 * f2_2
        f2_5, f2_6 = f2_4 * f2, f2_4 * f2_2
        shared = (g, g1, f2, f3, f4, H, Hp, H2, f2_2, f2_5, f2_6)
        if parts is None:
            return _zero_terms(range(3), *shared)
        return _sliced(parts, lambda c, s: _zero_terms((c,), *(v[s] for v in shared))[0])


def _sliced(parts, term):
    """term(c, s) for each component c and its slice s, empty for an empty s."""
    return [term(c, s) if s.stop > s.start else np.empty(0) for c, s in enumerate(parts)]


def _pm_terms(parts, g, g1, g2, g3, f2, f3, g2_2, g2_3, P, Pp, P2, P3):
    """W, W' and r' (parts 0, 1, 2) of a pm branch, those of parts in turn."""
    terms = (lambda: 4.0 * g2_2 * g1 / P2 - 8.0 * g2_3 * f2 * g / P3,
             lambda: ((8.0 * g2 * g3 * g1 + 4.0 * g2_3) / P2 - 8.0 * g2_2 * g1 * Pp / P3)
             - (8.0 * (3.0 * g2_2 * g3 * f2 * g + g2_3 * f3 * g + g2_3 * f2 * g1) / P3
                - 24.0 * g2_3 * f2 * g * Pp / (P2 * P2)),
             lambda: f2 - (Pp / (2.0 * g2) - P * g3 / (2.0 * g2_2)))
    return [terms[part]() for part in parts]


def _zero_terms(parts, g, g1, f2, f3, f4, H, Hp, H2, f2_2, f2_5, f2_6):
    """W_0, W_0' and r_0' (parts 0, 1, 2), those of parts in turn."""
    terms = (lambda: -H2 * f3 / (27.0 * g * f2_5),
             lambda: (-(2.0 * H * Hp * f3 + H2 * f4) / (27.0 * g * f2_5)
                      + H2 * f3 * (g1 * f2 + 5.0 * g * f3) / (27.0 * (g * g) * f2_6)),
             lambda: f2 - 3.0 * ((g1 * f2_2 + 2.0 * g * f2 * f3) * H - g * f2_2 * Hp) / H2)
    return [terms[part]() for part in parts]


# ---------------------------------------------------------------------------
# partition of the extended interval
# ---------------------------------------------------------------------------

class PartitionDegeneracyError(RuntimeError):
    """A branch denominator vanishes at a partition endpoint."""


@dataclass
class AssumptionPartition:
    jpm: List[Tuple[float, float]]
    j0: List[Tuple[float, float]]
    jnull: List[float]
    jpm_isolated: List[float]
    j0_isolated: List[float]


def _tangential_zeros(xs: np.ndarray, D: np.ndarray) -> List[float]:
    """Tangential zeros of H^2 - G inside its negative regions: the zero
    samples between two negative ones."""
    neg = D < 0.0
    return xs[1:-1][neg[:-2] & neg[2:] & (D[1:-1] == 0.0)].tolist()


def _endpoints(intervals: List[Tuple[float, float]]) -> np.ndarray:
    """x0 + w, x1 - w for each interval [x0, x1] in order, w = 1e-6 (x1 - x0)."""
    e = np.array(intervals, dtype=float).reshape(-1, 2)
    w = (e[:, 1] - e[:, 0]) * 1e-6
    return np.column_stack((e[:, 0] + w, e[:, 1] - w)).ravel()


_PARTITION_SCAN = 4096  # scan points of the partition's sign changes
_KAPPA_SCAN = 4096      # scan points of each K functional interval
_KAPPA_PAD = 1e-9       # the share of an interval its scan and integral leave at each end
_SIGMAS = np.array([[1.0], [-1.0]])  # both pm branches at once, one per row


def partition_assumptions(model: PhaseAmplitudeModel, lo: float, hi: float,
                          ) -> AssumptionPartition:
    """Partition [lo, hi] by the sign pattern of G, H^2-G, g''.

    Sign changes of G, H^2-G, H, g and g'' are located by a scan of 4 096
    points and bisected to the float limit together, in one
    ``sign_change_roots`` loop on the one jet; tangential (double) roots
    below the scan resolution are not found.
    Raises PartitionDegeneracyError when H^2-G tends to 0 at a J_pm endpoint
    or g at a J_0 endpoint.
    """
    def signs(x, parts=None):
        # G, H^2 - G, H, g, g'' and g' at x from one f jet and one g jet, with
        # H = g f''' + 3 g' f'' and G = 12 g g'' f''^2; given parts, slices of
        # x, each of the first len(parts) on its slice only
        g, g1, g2 = model.gjet(x, 0, 2)
        f2, f3 = model.fjet(x, 2, 3)
        H = g * f3 + 3.0 * g1 * f2
        G = 12.0 * g * g2 * f2 ** 2
        if parts is None:
            return [G, H ** 2 - G, H, g, g2, g1]
        return _sliced(parts, lambda c, s: H[s] ** 2 - G[s] if c == 1 else (G, H, H, g, g2)[c][s])

    xs = np.linspace(lo, hi, _PARTITION_SCAN)
    *vals, g1 = signs(xs)
    G, D, H, g, g2 = vals
    if not np.any(g):
        return AssumptionPartition([], [], [], [], [])

    # breakpoints where any governing sign can flip, and samples landing
    # exactly on a zero of a function that is not zero everywhere
    roots = sign_change_roots(signs, xs, vals)
    g_roots, g2_roots = np.array(roots[3]), np.array(roots[4])
    cuts = {lo, hi}.union(*roots)
    for v in vals:
        if not np.all(v == 0.0):
            cuts.update(xs[v == 0.0].tolist())
    pts = np.array(sorted(cuts), dtype=float)

    # one (pieces, 7) block: row i holds 7 interior points of piece i
    x0, x1 = pts[:-1], pts[1:]
    keep = x1 - x0 > 1e-12 * np.maximum(1.0, np.abs(x0))
    x0, x1 = x0[keep], x1[keep]
    w = x1 - x0
    mids = np.linspace(x0 + w * 1e-3, x1 - w * 1e-3, 7, axis=1)
    Gm, Dm, Hm, gm, g2m, _ = signs(mids)
    is_pm = np.all(Gm != 0.0, axis=1) & np.all(Dm >= 0.0, axis=1)
    is_0 = (~is_pm & np.all(g2m == 0.0, axis=1) & np.all(gm != 0.0, axis=1)
            & np.all(Hm != 0.0, axis=1))

    # adjacent J_pm pieces stay distinct: a g'' root between them makes G
    # vanish there, so those cuts are genuine boundaries; J_0 pieces merge
    jpm = list(zip(x0[is_pm].tolist(), x1[is_pm].tolist()))
    j0: List[Tuple[float, float]] = []
    for seg in zip(x0[is_0].tolist(), x1[is_0].tolist()):
        if j0 and abs(j0[-1][1] - seg[0]) <= 1e-12 * max(1.0, abs(seg[0])):
            j0[-1] = (j0[-1][0], seg[1])
        else:
            j0.append(seg)

    # isolated points; "nonzero" is judged against the sampled scale so that
    # bisection residue at a root does not masquerade as a nonzero value
    def nonzero(at, v):
        return np.abs(at) > 1e-6 * (float(np.max(np.abs(v))) or 1.0)

    _, _, H_at, g_at, _, _ = signs(g2_roots)
    j0_isolated = g2_roots[nonzero(g_at, g) & nonzero(H_at, H)]
    # isolated amplitude zeros with g', g'' nonzero
    _, _, _, _, g2_at, g1_at = signs(g_roots)
    jnull = g_roots[nonzero(g1_at, g1) & nonzero(g2_at, g2)]

    # final degeneracy assumption: branch denominators must not vanish at
    # interval endpoints
    p = _endpoints(jpm)
    d = np.abs(signs(p)[1])
    bad = p[(0.0 < d) & (d < 1e-12 * (float(np.max(np.abs(D))) or 1.0))]
    if bad.size:
        raise PartitionDegeneracyError(f"H^2-G tends to 0 at J_pm endpoint {bad[0]:.6g}")
    p = _endpoints(j0)
    bad = p[np.abs(model.g(p)) < 1e-12 * max(1.0, float(np.max(np.abs(g))))]
    if bad.size:
        raise PartitionDegeneracyError(f"g tends to 0 at J_0 endpoint {bad[0]:.6g}")

    return AssumptionPartition(jpm, j0, jnull.tolist(), _tangential_zeros(xs, D),
                               j0_isolated.tolist())


# ---------------------------------------------------------------------------
# the K variation functional
# ---------------------------------------------------------------------------

def _quad(fn, lo: float, hi: float, what: str, points: Sequence[float] = ()) -> float:
    """integral of the vectorized, nonnegative fn over [lo, hi] on quad's
    panels to 1e-10 relative, plus the quadrature's own error estimate, so
    the term errs high by what that estimate covers; a warning names
    ``what`` when it does not converge.

    The start panels break at ``points`` and, on huge positive ranges, at x4
    geometric edges, so mass concentrated near the lower limit is never lost.
    Their width is not tied to the scale of fn, so a panel may span dozens
    of periods of an oscillating f'', where the panel rule's |K31 - G15|
    estimate must not agree by aliasing: Delta3(b) of oscillatory(1, 1, 1)
    on [1000, 2000] is the test case.
    """
    if hi <= lo:
        return 0.0
    edges = {lo, hi, *(p for p in points if lo < p < hi)}
    if lo > 0 and hi / lo > 16.0:
        edge = 4.0 * lo
        while edge < hi:
            edges.add(edge)
            edge *= 4.0
    e = np.array(sorted(edges))
    res = panel_integral(fn, e[:-1], e[1:], 0.0, rel_tol=1e-10)
    if not res.converged:
        warnings.warn(f"{what} integral did not converge cleanly")
    return float(res.value) + res.abs_error_estimate


def _resolved(v: np.ndarray, probe: np.ndarray) -> bool:
    """Whether the scan values v resolve their function, given probe, its
    values a third into each gap: not when two adjacent gaps both change sign
    or a probe (off the midpoint, where aliasing can repeat) shows two
    changes inside its gap."""
    neg, probe = v < 0, probe < 0
    flip = neg[:-1] != neg[1:]
    return not ((flip[:-1] & flip[1:]).any() or ((neg[:-1] != probe) & (probe != neg[1:])).any())


def kappa_cuts(terms: Callable, intervals: Sequence[Tuple[float, float]],
               ) -> List[List[Tuple[List[float], List[float]]]]:
    """The break points of the K functionals of each branch of ``terms`` on
    each interval: [branch][interval] -> (sign changes of r', kinks).

    ``terms(x)`` gives (W, W', r') at the points x, each of shape
    (branches, len(x)) or, for one branch, (len(x),), so the branches share
    their jets, and ``terms(x, parts)`` each row on its slice of x only.
    Each interval is scanned at 4 096 points, and a W or W' row that changes
    sign there (one that keeps it has no root either way) a third into each
    gap too, in one more call (one call on both would make the J_pm pair's
    arrays 131 KB, past malloc's mmap threshold: mapped afresh each call).
    The sign changes of r' and the zeros of W and W' (the integrand's kinks)
    of all intervals and branches are bisected in one ``sign_change_roots``
    loop; a zero of W or W' joins only on an interval whose scan resolves
    that function (``_resolved``).
    """
    e = np.array(intervals, dtype=float).reshape(-1, 2)
    pad = (e[:, 1] - e[:, 0]) * _KAPPA_PAD
    xs = np.linspace(e[:, 0] + pad, e[:, 1] - pad, _KAPPA_SCAN, axis=1)
    probes = xs[:, :-1] + (xs[:, 1:] - xs[:, :-1]) / 3.0

    scans = [[r for part in terms(x) for r in part.reshape(-1, x.size)] for x in xs]
    vals = np.array(list(zip(*scans)))  # [row of terms][interval][scan point]
    branches = len(vals) // 3
    neg = vals[:2 * branches] < 0
    flips = (neg[..., 1:] != neg[..., :-1]).any(axis=2)
    # the probes of an interval are not kept: a heap grown past what the rest
    # of a transform uses is trimmed after the budget and faulted in again
    use = np.ones(vals.shape[:2], dtype=bool)
    for j in np.flatnonzero(flips.any(axis=0)).tolist():
        rows = flips[:, j].tolist() + [False] * branches
        got = terms(probes[j], [slice(0, probes[j].size * f) for f in rows])
        for c in np.flatnonzero(rows).tolist():
            use[c, j] = _resolved(vals[c, j], got[c])
    roots = sign_change_roots(terms, xs, vals, use)
    W, W_p, r_p = (roots[part * branches:(part + 1) * branches] for part in range(3))
    return [[(r, w + w_p) for w, w_p, r in zip(*branch)] for branch in zip(W, W_p, r_p)]


def kappa_functional(terms: Callable, intervals: Sequence[Tuple[float, float]],
                     isolated: Sequence[float],
                     cuts: Sequence[Tuple[List[float], List[float]]]) -> float:
    """K(I, W, r): variation integral plus isolated-point and boundary terms.

    ``terms(x)`` gives (W, W', r') at the points x from one evaluation of the
    model's derivatives (``WRFunctions.pm_terms`` or ``zero_terms``), and
    ``cuts`` the (sign changes of r', kinks) of each interval, from
    ``kappa_cuts``.  One ``terms`` call gives W at every point term: |W(x)|
    at each isolated point, |s(x) W(x)| at each sign change of r' and each
    distinct interval end.  The integrand |W||r'| + |W'| has kinks at the
    zeros of r', W and W', and the panels break at all the scan resolves.
    """
    def integrand(t):
        W, W_p, r_p = terms(t)
        return np.abs(W) * np.abs(r_p) + np.abs(W_p)

    total = 0.0
    for (x0, x1), (roots, kinks) in zip(intervals, cuts):
        pad = (x1 - x0) * _KAPPA_PAD
        total += _quad(integrand, x0 + pad, x1 - pad, "K functional", roots + kinks)
    sawtoothed = [x for roots, _ in cuts for x in roots]
    sawtoothed += sorted({x for seg in intervals for x in seg})
    points = [*isolated, *sawtoothed]
    W = terms(np.array(points))[0].tolist() if points else []
    for w in W[:len(isolated)]:
        total += abs(w)
    for x, w in zip(sawtoothed, W[len(isolated):]):
        total += abs(sawtooth_s(x) * w)
    return total


# ---------------------------------------------------------------------------
# the Delta terms
# ---------------------------------------------------------------------------

def abar_bbar(model: PhaseAmplitudeModel, ea: Endpoint, eb: Endpoint,
              profile: ConditionMProfile) -> Tuple[Optional[float], Optional[float]]:
    """Innermost points of [a, b] (offset by min(M, 1/C2)) where f' is integral,
    from the records of a and b and an f' decision at each inner point.

    Returns (abar, bbar); a side is None when no integer value of f' exists
    in its window, in which case the corresponding Delta3 vanishes.
    """
    a, b = ea.x, eb.x
    abar = bbar = None
    lo = a + min(ea.M, 1.0 / profile.C2)
    if lo <= b:
        r_lo, r_hi, _, _ = integer_range(fprime_nearest(model, lo), eb.slope)
        if r_lo <= r_hi:
            abar = max(invert_fprime(model, float(r_lo)), lo)
    hi = b - min(eb.M, 1.0 / profile.C2)
    if hi >= a:
        r_lo, r_hi, _, _ = integer_range(ea.slope, fprime_nearest(model, hi))
        if r_lo <= r_hi:
            bbar = min(invert_fprime(model, float(r_hi)), hi)
    return abar, bbar


def endpoint_deltas(ep: Endpoint, span: float) -> Tuple[float, float]:
    """(Delta1, Delta2) at the limit of the record ep of an interval of length span."""
    U, M, fpp, dist, m = ep.U, ep.M, ep.f2, ep.slope.dist, ep.m

    if dist == 0.0:
        d1 = U / (fpp ** 2 * span ** 3)
    elif m >= 1:
        d1 = min(U / math.sqrt(fpp), U / dist)
    else:
        d1 = 0.0

    d2 = U / (fpp ** 2 * M ** 3) * (1.0 + math.sqrt(fpp) * M) * (1.0 + fpp)
    d2 += U * m / (fpp * M)
    if dist == 0.0 or m >= 1:
        d2 += (U / M) * min(1.0, 1.0 / fpp) + U * min(fpp, 1.0 / fpp)
    else:
        d2 += U / (M * dist ** 2) + U * fpp / dist ** 3
    return d1, d2


def _delta3_integrand(model, profile, origin):
    def fn(x):
        fpp = model.f2(x)
        d = np.abs(x - origin)
        return profile.U(x) / (fpp * d ** 3) * (1.0 + 1.0 / (fpp * profile.M(x))
                                                 + 1.0 / (fpp * d))
    return fn


def tail_deltas(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                ea: Endpoint, eb: Endpoint, abar: Optional[float], bbar: Optional[float],
                ) -> Tuple[float, float]:
    """(Delta3(a), Delta3(b)) from the records of a and b: tail integrals plus boundary terms."""
    a, b = ea.x, eb.x
    d3a = 0.0
    if abar is not None:
        d3a = _quad(_delta3_integrand(model, profile, a), abar, b, "Delta3(a)") \
            + float(profile.U(abar)) / (float(model.f2(abar)) ** 2 * (abar - a) ** 3) \
            + eb.U / (eb.f2 ** 2 * (b - a) ** 3)
    d3b = 0.0
    if bbar is not None:
        d3b = _quad(_delta3_integrand(model, profile, b), a, bbar, "Delta3(b)") \
            + float(profile.U(bbar)) / (float(model.f2(bbar)) ** 2 * (b - bbar) ** 3) \
            + ea.U / (ea.f2 ** 2 * (b - a) ** 3)
    return d3a, d3b


def _delta4_smooth_integrand(model, profile):
    def fn(x):
        fpp = model.f2(x)
        M = profile.M(x)
        return profile.U(x) / (fpp * M ** 3) * (1.0 + np.sqrt(fpp) * M) \
            * (1.0 + (1.0 + np.abs(profile.M_prime(x))) / (fpp * M))
    return fn


def alternate4_applies(profile: ConditionMProfile, ea: Endpoint, eb: Endpoint) -> bool:
    """True when M(x) >= max(b-x, x-a) at 257 points of [a, b] and
    m_a = m_b = 0, in which case Delta4 reduces to the smooth integral alone."""
    if ea.m or eb.m:
        return False
    a, b = ea.x, eb.x
    xs = np.linspace(a, b, 257)
    M = np.asarray(profile.M(xs), dtype=float)
    return bool(np.all(M >= np.maximum(b - xs, xs - a) - 1e-12 * max(1.0, b - a)))


@dataclass
class Delta4Breakdown:
    smooth_integral: float
    kappa_j0: float
    kappa_plus: float
    kappa_minus: float
    jnull_sum: float
    simplified: bool  # smooth integral only (wide-M, zero-m regime)

    @property
    def total(self) -> float:
        return (self.smooth_integral + self.kappa_j0 + self.kappa_plus
                + self.kappa_minus + self.jnull_sum)


def _k_terms(model: PhaseAmplitudeModel,
             partition: AssumptionPartition) -> Tuple[float, float, float, float]:
    """(kappa_0, kappa_+, kappa_-, J_null sum): the K functionals over J_0 and
    both branches of J_pm, and the isolated amplitude-zero sum."""
    wr = WRFunctions(model)
    (cuts,) = kappa_cuts(lambda x, parts=None: wr.zero_terms(x, parts),
                         partition.j0) if partition.j0 else ([],)
    k0 = kappa_functional(wr.zero_terms, partition.j0, partition.j0_isolated, cuts)
    # both branches from one jet per scan point, sigma = +1 and -1 as rows
    pm = ([], [])
    if partition.jpm:
        pm = kappa_cuts(lambda x, parts=None: wr.pm_terms(x, _SIGMAS, parts), partition.jpm)
    kp, km = (kappa_functional(lambda x, s=sigma: wr.pm_terms(x, s), partition.jpm,
                               partition.jpm_isolated, cuts)
              for sigma, cuts in zip((+1, -1), pm))
    jn = 0.0
    if partition.jnull:
        x = np.array(partition.jnull)
        g1, g2 = model.gjet(x, 1, 2)
        f2 = model.f2(x)
        for g1x, g2x, f2x in zip(g1.tolist(), g2.tolist(), f2.tolist()):
            jn += abs(g2x ** 2 / (g1x * f2x ** 2))
    return k0, kp, km, jn


def global_delta4(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                  ea: Endpoint, eb: Endpoint) -> Delta4Breakdown:
    """Delta4 = smooth variation integral + K functionals + amplitude-zero sum
    on [a, b], from the records of a and b; the partition covers J."""
    smooth = _quad(_delta4_smooth_integrand(model, profile), ea.x, eb.x, "Delta4 smooth")
    if alternate4_applies(profile, ea, eb):
        return Delta4Breakdown(smooth, 0.0, 0.0, 0.0, 0.0, True)
    partition = partition_assumptions(model, *extended_interval(model, ea, eb)[:2])
    return Delta4Breakdown(smooth, *_k_terms(model, partition), False)


# ---------------------------------------------------------------------------
# the full budget
# ---------------------------------------------------------------------------

@dataclass
class ErrorBudget:
    delta1_a: float
    delta1_b: float
    delta2_a: float
    delta2_b: float
    delta3_a: float
    delta3_b: float
    delta4: Delta4Breakdown
    m_a: int
    m_b: int
    abar: Optional[float]
    bbar: Optional[float]

    @property
    def total(self) -> float:
        return (self.delta1_a + self.delta1_b + self.delta2_a + self.delta2_b
                + self.delta3_a + self.delta3_b + self.delta4.total)

    def to_json(self) -> dict:
        return {
            "schema": "error-budget/1",
            "delta1": {"a": self.delta1_a, "b": self.delta1_b},
            "delta2": {"a": self.delta2_a, "b": self.delta2_b},
            "delta3": {"a": self.delta3_a, "b": self.delta3_b},
            "delta4": {
                "smoothIntegral": self.delta4.smooth_integral,
                "kappaJ0": self.delta4.kappa_j0,
                "kappaPlus": self.delta4.kappa_plus,
                "kappaMinus": self.delta4.kappa_minus,
                "jnullSum": self.delta4.jnull_sum,
                "simplified": self.delta4.simplified,
                "total": self.delta4.total,
            },
            "mCounts": {"a": self.m_a, "b": self.m_b},
            "abar": self.abar,
            "bbar": self.bbar,
            "total": self.total,
        }


def check_span(a: float, b: float) -> None:
    """Raise ValueError when a limit of [a, b] is not finite or b <= a: Delta1
    at an integral f' and the Delta3 boundary terms divide by b - a."""
    check_interval(a, b)
    if b == a:
        raise ValueError(f"the budget needs b > a, got a = b = {a}")


def compute_budget(model: PhaseAmplitudeModel, profile: ConditionMProfile,
                   a: float, b: float, report: Optional[ConditionMReport] = None,
                   ) -> ErrorBudget:
    """Delta1-Delta4 on [a, b], from the limit records of ``report`` when the
    caller has swept [a, b] already, else from records built here; raises
    ValueError when a limit is not finite or b <= a, and
    PartitionDegeneracyError when the Delta4 partition is degenerate."""
    check_span(a, b)
    if report is not None:
        ea, eb = report.ends
    else:
        ea, eb = endpoint(model, profile, a), endpoint(model, profile, b)
    abar, bbar = abar_bbar(model, ea, eb, profile)
    d1a, d2a = endpoint_deltas(ea, b - a)
    d1b, d2b = endpoint_deltas(eb, b - a)
    d3a, d3b = tail_deltas(model, profile, ea, eb, abar, bbar)
    d4 = global_delta4(model, profile, ea, eb)
    return ErrorBudget(d1a, d1b, d2a, d2b, d3a, d3b, d4, ea.m, eb.m, abar, bbar)
