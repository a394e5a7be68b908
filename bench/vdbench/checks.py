"""Independent references and the per-op correctness gate.

References never call vdcorput.  Direct sums are recomputed from the
families' closed forms with the phase f(n) formed and reduced mod 1 in x87
extended precision (numpy longdouble, 64-bit mantissa), each term evaluated to
double accuracy and the terms summed exactly (math.fsum).  Dual-side sums are
recomputed in 30-digit mpmath, solving f'(x) = r afresh.  They
are computed once per op, before the timed passes.

The gate returns a list of failure codes for one op; an empty list passes.
Codes listed in ``KNOWN_DEFECTS`` are defects of the program that the
workloads keep on purpose.  They count as failed ops like any other, but a
run whose failures are all known still reports ``correct``; any other code
makes the run incorrect.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import mpmath
import numpy as np

U = 2.0 ** -53                      # unit roundoff of float64
LD = np.longdouble
PI_LD = 4 * np.arctan(LD(1))
_CHUNK = 1 << 16
_SLACK_REL = 1e-9                   # the program's integer-detection slack
_ROUND_REL = 1e-12                  # the program's ceil/floor widening

KNOWN_DEFECTS = {
    "kappa-nonfinite": "compute_budget -> global_delta4 -> kappa_functional returns a "
                       "non-finite K functional (oscillatory(1,1,1) on [100, 2000] or "
                       "[1000, 2000], sine_amplitude(0.01) on [200, 400])",
    "endpoint-integer-slack": "a summation limit within 1e-9 relative of an integer is "
                              "treated as integral and its term halved (ROADMAP item 3)",
}

GOLDEN_ABS = 1e-9                   # of term scale, for direct and dual values
GOLDEN_REL = 1e-6                   # relative, for budget totals


def is_known(codes: List[str]) -> bool:
    return bool(codes) and all(c in KNOWN_DEFECTS for c in codes)


def _finite(*xs) -> bool:
    return all(x is not None and math.isfinite(x) for x in xs)


# ---------------------------------------------------------------------------
# direct sums in extended precision
# ---------------------------------------------------------------------------

def _cis(cycles):
    """(cos, sin) of 2 pi cycles for a longdouble array: the angle is reduced
    and formed in longdouble, then split into a double and its remainder, so
    double cos/sin plus a first-order correction keep double accuracy."""
    th = 2 * PI_LD * np.mod(cycles, LD(1))
    hi = th.astype(np.float64)
    lo = (th - hi).astype(np.float64)
    c, s = np.cos(hi), np.sin(hi)
    return c - lo * s, s + lo * c


def _phase_amp_ld(family: str, params, n):
    """(f(n) in longdouble, g(n) in double or None for g = 1) from the closed forms."""
    if family in ("power_phase", "sine_amplitude"):
        f = n * np.sqrt(n) / (LD(3) * np.sqrt(LD(3)))
        g = None
        if family == "sine_amplitude":
            g = _cis(LD(params[0]) * n / (2 * PI_LD))[1]
        return f, g
    if family == "zeta_log":
        sigma, t = params
        return -(LD(t) / (2 * PI_LD)) * np.log(n), n.astype(np.float64) ** -sigma
    raise ValueError(f"no extended-precision reference for family {family!r}")


def term_sums(family, params, lo: int, hi: int):
    """(sum of g e(f), sum |g|, sum |g| 2 pi |f|) over integers lo..hi; the
    chunk sums are accumulated with math.fsum."""
    re, im, gabs, scaled = [], [], [], []
    for s in range(lo, hi + 1, _CHUNK):
        n = np.arange(s, min(s + _CHUNK, hi + 1), dtype=LD)
        f, g = _phase_amp_ld(family, params, n)
        c, sn = _cis(f)
        ga = np.ones(n.size) if g is None else np.abs(g)
        if g is not None:
            c, sn = c * g, sn * g
        re.append(math.fsum(c))
        im.append(math.fsum(sn))
        gabs.append(float(ga.sum()))
        scaled.append(float((ga * 2 * math.pi * np.abs(f).astype(np.float64)).sum()))
    return complex(math.fsum(re), math.fsum(im)), math.fsum(gabs), math.fsum(scaled)


def _term(family, params, n: int) -> complex:
    return term_sums(family, params, n, n)[0]


def _starred_from(base, lo0, hi0, family, params, lo, hi, half_lo, half_hi):
    """Sum over lo..hi with optional halving, given the full sum over lo0..hi0;
    lo and hi differ from lo0 and hi0 by at most a term or two."""
    s = base
    for n in range(lo, lo0):
        s += _term(family, params, n)
    for n in range(lo0, lo):
        s -= _term(family, params, n)
    for n in range(hi0 + 1, hi + 1):
        s += _term(family, params, n)
    for n in range(hi + 1, hi0 + 1):
        s -= _term(family, params, n)
    if half_lo:
        s -= 0.5 * _term(family, params, lo)
    if half_hi:
        s -= 0.5 * _term(family, params, hi)
    return s


def direct_reference(op: Dict) -> Dict:
    """Extended-precision starred sum, the a-priori float64 rounding bound
    sum |g| 2 pi |f(n)| u, and the value the program's 1e-9 integer slack
    would give instead (None when the slack changes nothing)."""
    family, params, a, b = op["family"], op["params"], op["a"], op["b"]
    lo, hi = math.ceil(a), math.floor(b)
    base, gabs, scaled = term_sums(family, params, lo, hi)
    value = _starred_from(base, lo, hi, family, params, lo, hi, a == lo, b == hi)

    def slack_int(x):
        return abs(x - round(x)) <= _SLACK_REL * max(1.0, abs(x))

    slo = math.ceil(a - _ROUND_REL * max(1.0, abs(a)))
    shi = math.floor(b + _ROUND_REL * max(1.0, abs(b)))
    slack = None
    if (slo, shi, slack_int(a), slack_int(b)) != (lo, hi, a == lo, b == hi):
        slack = _starred_from(base, lo, hi, family, params, slo, shi,
                              slack_int(a), slack_int(b))
    return {"value": value, "abs_sum": gabs, "bound": U * scaled, "slack_value": slack}


# ---------------------------------------------------------------------------
# dual-side sums in mpmath
# ---------------------------------------------------------------------------

_DPS = 30


def _mp_family(family: str, params):
    """(f, f', f'', g, inverse of f' or None) as mpmath callables."""
    mpf = mpmath.mpf
    if family == "power_phase":
        return (lambda x: (x / 3) ** mpf(1.5), lambda x: mpmath.sqrt(x / 12),
                lambda x: 1 / (4 * mpmath.sqrt(3 * x)), lambda x: mpf(1),
                lambda r: 12 * r * r)
    if family == "ik_monomial":
        A, N, X = (mpf(p) for p in params)
        return (lambda x: X / A * (x / N) ** A, lambda x: X / N * (x / N) ** (A - 1),
                lambda x: X * (A - 1) / N ** 2 * (x / N) ** (A - 2),
                lambda x: mpmath.sqrt(A / x), lambda r: N * (r * N / X) ** (1 / (A - 1)))
    if family == "zeta_log":
        sigma, t = (mpf(p) for p in params)
        c = t / (2 * mpmath.pi)
        return (lambda x: -c * mpmath.log(x), lambda x: -c / x, lambda x: c / x ** 2,
                lambda x: x ** -sigma, lambda r: -c / r)
    if family == "oscillatory":
        al, be, ga = (mpf(p) for p in params)
        return (lambda x: al * x * x + be * mpmath.sin(ga * x) / x,
                lambda x: 2 * al * x + be * (ga * mpmath.cos(ga * x) / x - mpmath.sin(ga * x) / x ** 2),
                lambda x: 2 * al + be * (-ga ** 2 * mpmath.sin(ga * x) / x
                                         - 2 * ga * mpmath.cos(ga * x) / x ** 2
                                         + 2 * mpmath.sin(ga * x) / x ** 3),
                lambda x: mpf(1), None)
    raise ValueError(f"no mpmath reference for family {family!r}")


def _newton(f1, f2, r, x0):
    x = x0
    for _ in range(50):
        step = (f1(x) - r) / f2(x)
        x -= step
        if abs(step) <= mpmath.mpf(10) ** (4 - _DPS) * abs(x):
            return x
    raise RuntimeError(f"mpmath Newton did not converge for r={r}")


def dual_reference(family: str, params, a: float, b: float) -> Dict:
    """sum over integers r in [f'(a), f'(b)] of g(x_r) e(f(x_r) - r x_r + 1/8)
    / sqrt(f''(x_r)), halved where f'(a) or f'(b) is an integer, and an
    a-priori float64 tolerance u sum |w| (2 pi (|f(x_r)| + |r x_r|) + 64)."""
    with mpmath.workdps(_DPS):
        f, f1, f2, g, inv = _mp_family(family, params)
        fa, fb = f1(mpmath.mpf(a)), f1(mpmath.mpf(b))
        r_lo, r_hi = int(mpmath.ceil(fa)), int(mpmath.floor(fb))
        total = mpmath.mpc(0)
        abs_sum = scaled = 0.0
        x = None
        for r in range(r_lo, r_hi + 1):
            if inv is not None:
                x = inv(mpmath.mpf(r))
            else:
                guess = mpmath.mpf(r) / (2 * mpmath.mpf(params[0])) if x is None else x
                x = _newton(f1, f2, r, guess)
            w = g(x) / mpmath.sqrt(f2(x))
            if (r == r_lo and fa == r) or (r == r_hi and fb == r):
                w /= 2
            fx = f(x)
            total += w * mpmath.expjpi(2 * (mpmath.frac(fx - r * x) + mpmath.mpf(1) / 8))
            abs_sum += abs(float(w))
            scaled += abs(float(w)) * (2 * math.pi * (abs(float(fx)) + abs(float(r * x))) + 64)
    return {"value": complex(total), "abs_sum": abs_sum, "tol": U * scaled,
            "terms": r_hi - r_lo + 1}


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _check_direct(value: complex, ref: Dict) -> List[str]:
    if not _finite(value.real, value.imag):
        return ["nonfinite-value"]
    if abs(value - ref["value"]) <= ref["bound"]:
        return []
    slack = ref.get("slack_value")
    if slack is not None and abs(value - slack) <= ref["bound"]:
        return ["endpoint-integer-slack"]
    return ["oracle-mismatch"]


def _check_transform(rec: Dict) -> List[str]:
    codes = []
    vals = [*rec["rhs"], *rec["d_a"], *rec["d_b"]]
    for key in ("direct", "measured_delta"):
        if rec.get(key) is not None:
            vals.extend(rec[key])
    if not _finite(*vals):
        codes.append("nonfinite-value")
    if rec["dropped"]:
        codes.append("dropped-term")
    budget = rec.get("budget")
    if budget is not None:
        kappas = [budget[k] for k in ("kappaJ0", "kappaPlus", "kappaMinus")]
        rest = [v for k, v in budget.items()
                if k not in ("kappaJ0", "kappaPlus", "kappaMinus", "total")]
        if not _finite(*rest):
            codes.append("budget-nonfinite")
        if not _finite(*kappas):
            codes.append("kappa-nonfinite")
    return codes


def _check_golden(rec: Dict, golden: Dict, scales: Dict) -> List[str]:
    for key, scale in scales.items():
        want = golden.get(key)
        if want is None or rec.get(key) is None:
            continue
        if abs(_c(rec[key]) - _c(want)) > GOLDEN_ABS * scale:
            return ["golden-mismatch"]
    want, got = golden.get("budget_total"), rec.get("budget_total")
    if want is not None and got is not None:
        if math.isfinite(want) or math.isfinite(got):
            if not (math.isfinite(want) and math.isfinite(got)
                    and abs(got - want) <= GOLDEN_REL * abs(want)):
                return ["golden-mismatch"]
        elif math.isnan(want) != math.isnan(got):
            return ["golden-mismatch"]
    return []


def gate(op: Dict, rec: Dict, ref: Dict, golden: Optional[Dict] = None) -> List[str]:
    """Failure codes of one op's record against its reference (and golden)."""
    if "error" in rec:
        return ["raised"]
    kind = op["kind"]
    scales = {}
    if kind == "direct":
        codes = _check_direct(_c(rec["value"]), ref)
        scales = {"value": ref["abs_sum"]}
    elif kind == "dual":
        codes = _check_transform(rec)
        if abs(_c(rec["rhs"]) - ref["value"]) > ref["tol"]:
            codes.append("dual-mismatch")
        scales = {"rhs": ref["abs_sum"]}
    elif kind == "audit":
        codes = _check_transform(rec)
        if rec.get("poisson") is not None:
            p = _c(rec["poisson"])
            if not _finite(p.real, p.imag) or abs(p - _c(rec["direct"])) > ref["poisson_gap_max"]:
                codes.append("poisson-mismatch")
        scales = {"direct": ref["g_abs_sum"], "rhs": rec["rhs_abs_sum"]}
    else:
        codes = _check_cli(op, rec, ref)
        scales = {k: ref[k]["abs_sum"] for k in ("value", "rhs") if k in ref}
    if golden is not None and not codes:
        codes += _check_golden(rec, golden, scales)
    return codes


def _check_cli(op: Dict, rec: Dict, ref: Dict) -> List[str]:
    if rec["returncode"] != 0:
        return ["exit-code"]
    if rec.get("unparsable"):
        return ["unparsable"]
    if not _finite(*rec["numbers"]):
        return ["nonfinite-value"]
    codes = []
    if rec.get("flags"):
        codes.append("dropped-term")
    if rec.get("passed") is False:
        codes.append("check-failed")
    if "value" in ref and abs(_c(rec["value"]) - ref["value"]["value"]) > ref["value"]["bound"]:
        codes.append("oracle-mismatch")
    if "rhs" in ref and abs(_c(rec["rhs"]) - ref["rhs"]["value"]) > ref["rhs"]["tol"]:
        codes.append("dual-mismatch")
    cur = ref.get("curve")
    if cur is not None and (rec["curve_rows"] != cur["rows"] or rec["svg_bytes"] == 0
                            or abs(_c(rec["curve_last"]) - cur["value"]) > cur["bound"]):
        codes.append("curve-mismatch")
    return codes
