"""Seeded op sets for the four workloads.

Every workload is a fixed list of ops (plain JSON-able dicts) drawn from the
seed.  Each op belongs to a slot: the slot fixes the family, the size class
and the interval shape, and the seed jitters parameters and endpoints inside
it.  Slots keep the cost of one pass over the op set nearly the same from
seed to seed, so run-to-run spreads measure the program, not the draw.

Anchor ops are fixed inputs that every seed carries: the ROADMAP headline sum
on the dual side, and the known-defect reproducers that must stay visible
(see ``checks.KNOWN_DEFECTS``).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

WORKLOADS = ("oracle", "audit", "dual", "cli")
DEFAULT_SEED = 0

_ORACLE_SIZES = (1e5, 1e6, 1e7)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"vdbench:{workload}:{seed}")


def _off_int(rng: random.Random, lo: float, hi: float) -> float:
    """A point of [lo, hi] whose fractional part lies in [0.1, 0.9].

    Non-integral limits stay this far from the integers throughout: an
    endpoint correction needs psi(x, eps) to the requested tolerance, with a
    truncation that grows like 1 / ||x||, and the program rightly refuses
    one beyond its cap.  Limits within the 1e-9 integer slack are the
    subject of one anchor op instead."""
    return round(math.floor(rng.uniform(lo, hi)) + rng.uniform(0.1, 0.9), 4)


def _endpoints(rng: random.Random, start: float, count: int):
    """(a, b) spanning about ``count`` integers; each limit is integral or
    off-integer (``_off_int``), by a fair coin per limit."""
    a = float(start) if rng.random() < 0.5 else _off_int(rng, start, start)
    b = float(int(a) + count)
    if rng.random() >= 0.5:
        b = _off_int(rng, b, b)
    return a, b


def oracle_ops(seed: int) -> List[Dict]:
    rng = _rng("oracle", seed)
    fams = [
        ("power_phase", []),
        ("zeta_log", [round(rng.uniform(0.4, 0.6), 4), round(rng.uniform(1e3, 1e5), 1)]),
        ("sine_amplitude", [round(rng.uniform(0.001, 0.1), 6)]),
    ]
    ops = []
    for size in _ORACLE_SIZES:
        for name, params in fams:
            count = int(size * rng.uniform(0.995, 1.005))
            a, b = _endpoints(rng, 1.0, count)
            ops.append({"kind": "direct", "family": name, "params": params,
                        "domain": None, "a": a, "b": b})
    # known defect: a limit within the 1e-9 relative integer slack is halved
    ops.append({"kind": "direct", "family": "power_phase", "params": [],
                "domain": None, "a": 1.0, "b": 1e6 + 1e-4,
                "anchor": "endpoint-integer-slack"})
    return ops


def audit_ops(seed: int) -> List[Dict]:
    """Per pass: eight cheap ops, five power_phase ops of about the same cost
    in the middle (so the median latency lands inside one cluster whatever
    the pass count), and nine costly ones: zeta_log, sine_amplitude,
    oscillatory, the quadratic Poisson sums and the two known-defect anchors."""
    rng = _rng("audit", seed)
    u = rng.uniform
    ops = []

    def add(family, params, a, b, domain=None, **extra):
        op = {"kind": "audit", "family": family, "params": params,
              "domain": domain, "a": a, "b": b}
        op.update(extra)
        ops.append(op)

    add("power_phase", [], 1.0, float(round(u(19600, 20400))))
    for _ in range(4):
        add("power_phase", [], _off_int(rng, 2, 5), _off_int(rng, 19500, 25500))
    for poisson_R in (32, 32, None, None):
        omega = round(u(0.36, 0.40), 4)
        a = _off_int(rng, 0, 5)
        b = _off_int(rng, a + 29.5, a + 30.5)
        span = b - a
        add("quadratic", [omega, span], a, b, domain=[a - span - 1.0, b + span + 1.0],
            poisson_R=poisson_R)
    for alpha, width in ((2.0, 2.0), (1.5, 3.0), (2.5, 2.0)):
        n = round(u(95, 105))
        add("ik_monomial", [alpha, float(n), round(1e4 * u(0.98, 1.02))], float(n), width * n)
    for alpha, beta, lo, width in ((1.0, 2.0, 4.2, 4.0), (1.0, 1.7, 5.9, 4.5), (1.3, 2.0, 3.9, 4.0)):
        a = round(u(lo, lo + 0.2), 3)
        add("exponential", [alpha, beta], a, a + width)
    add("zeta_log", [round(u(0.45, 0.55), 3), round(1e4 * u(0.98, 1.02))],
        _off_int(rng, 48, 52), _off_int(rng, 490, 510))
    add("zeta_log", [0.5, round(1e3 * u(0.98, 1.02))], _off_int(rng, 19, 21),
        _off_int(rng, 195, 205))
    a = _off_int(rng, 120, 130)
    add("sine_amplitude", [round(u(0.0038, 0.0042), 5)], a, _off_int(rng, a + 190, a + 210))
    a = _off_int(rng, 100, 105)
    add("sine_amplitude", [round(u(0.0059, 0.0061), 5)], a, _off_int(rng, a + 195, a + 205))
    a = _off_int(rng, 115, 125)
    add("oscillatory", [1.0, 1.0, 1.0], a, _off_int(rng, a + 48, a + 52))
    # known defect: a K functional of the Delta4 budget comes back non-finite.
    # [1000, 2000] gives the same kappaJ0 = inf as [100, 2000] at a third of
    # the cost, which leaves room for more passes in a run.
    add("sine_amplitude", [0.01], 200.0, 400.0, anchor="kappa-nonfinite")
    add("oscillatory", [1.0, 1.0, 1.0], 1000.0, 2000.0, anchor="kappa-nonfinite")
    return ops


def dual_ops(seed: int) -> List[Dict]:
    """Term counts are fixed per slot (the seed moves the phases, not the work)."""
    rng = _rng("dual", seed)
    u = rng.uniform
    ops = []

    def add(family, params, a, b, domain=None, **extra):
        op = {"kind": "dual", "family": family, "params": params,
              "domain": domain, "a": a, "b": b}
        op.update(extra)
        ops.append(op)

    # the headline: 1.2e9 direct terms against 10^4 dual terms
    add("power_phase", [], 1.0, 1.2e9, anchor="headline")
    a = _off_int(rng, 1, 1000)                        # f' = sqrt(x/12): 8000 terms
    add("power_phase", [], a, _off_int(rng, *[12.0 * ((a / 12.0) ** 0.5 + 8000 + d) ** 2
                                              for d in (-0.4, 0.4)]))
    x = round(u(140.0, 180.0), 2)                     # f' = (X/N) sqrt(x/N): 5000 terms
    add("ik_monomial", [1.5, 100.0, x], 100.0, round(100.0 * ((5000 + u(0.1, 0.9)) * 100.0 / x) ** 2))
    t = round(u(0.8e8, 1.2e8))                        # f' = -t / (2 pi x): 1600 terms
    a = t / (2 * math.pi) / 1600
    add("zeta_log", [0.5, float(t)], _off_int(rng, 0.999 * a, a), 1e9)
    alpha = round(u(0.0009, 0.0011), 7)               # f' ~ 2 alpha x: 1000 terms
    a = _off_int(rng, 1.0e5, 1.1e5)
    b = a + 1000 / (2 * alpha)
    add("oscillatory", [alpha, 1.0, 1.0], a, _off_int(rng, b, b + 0.4 / alpha), domain=[5e4, 2e6])
    return ops


def cli_ops(seed: int) -> List[Dict]:
    rng = _rng("cli", seed)
    u, ri = rng.uniform, rng.randint
    specs = [
        ("sum", ["--family", "power_phase", "--a", "1", "--b", str(ri(39000, 41000)),
                 "--json", "{out}"]),
        ("transform", ["--family", "power_phase", "--a", str(_off_int(rng, 1, 3)),
                       "--b", str(ri(1150, 1250)), "--json", "{out}"]),
        ("budget", ["--family", "zeta_log", "--params", f"0.5,{ri(950, 1050)}",
                    "--a", str(_off_int(rng, 19, 21)), "--b", str(_off_int(rng, 195, 205)),
                    "--json", "{out}"]),
        ("example", ["--N", str(ri(19000, 21000)), "--json", "{out}"]),
        ("estimate-c", ["--kmin", str(ri(10, 12)), "--kmax", str(ri(19, 21)), "--json", "{out}"]),
        ("ck", ["--random", "20", "--seed", str(ri(0, 10 ** 6)), "--json", "{out}"]),
        ("kl", ["--family", "quadratic", "--params", "0.001", "--domain", "0,1e6",
                "--a", str(_off_int(rng, 195, 205)), "--b", str(_off_int(rng, 395, 405)),
                "--json", "{out}"]),
        ("ik", ["--alpha", "2", "--nu", "2", "--N", str(ri(85, 95)), "--X", "10000",
                "--json", "{out}"]),
        ("curve", ["--family", "power_phase", "--tmax", str(ri(1150, 1250)),
                   "--svg", "{out}/spiral.svg", "--csv", "{out}/curve.csv"]),
    ]
    return [{"kind": "cli", "command": cmd, "args": args} for cmd, args in specs]


_GENERATORS = {"oracle": oracle_ops, "audit": audit_ops, "dual": dual_ops, "cli": cli_ops}


def make_ops(workload: str, seed: int) -> List[Dict]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](seed)
