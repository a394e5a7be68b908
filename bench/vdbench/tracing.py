"""Spans around the layer boundaries of vdcorput, recorded from outside.

``install`` wraps the public functions named in ``LAYERS`` by rebinding every
module attribute that refers to the original function, so callers inside
vdcorput (which look names up in their own module globals) reach the
wrapper.  Each call records a span: name, start, end, parent span, op id and
the layer's work counts.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _direct_terms(args, kwargs, out):
    a, b = args[1], args[2]
    lo = math.ceil(a - 1e-12 * max(1.0, abs(a)))
    hi = math.floor(b + 1e-12 * max(1.0, abs(b)))
    return {"terms": max(0, hi - lo + 1)}


def _grid_points(args, kwargs, out):
    return {"points": out.grid * 64}


def _partition_intervals(args, kwargs, out):
    return {"intervals": len(out.jpm) + len(out.j0)}


# (module, function, counts extracted from (args, kwargs, result))
LAYERS = (
    ("numutil", "modified_sawtooth", None),
    ("phase", "builtin_family", None),
    ("phase", "invert_fprime", None),
    ("expsum", "direct_starred_sum", _direct_terms),
    ("expsum", "curve_samples", lambda a, k, out: {"samples": len(out)}),
    ("quad", "oscillatory_integral",
     lambda a, k, out: {"panels": out.panels, "converged": int(out.converged)}),
    ("transform", "rhs_main_sum",
     lambda a, k, out: {"terms": len(out.terms), "dropped": len(out.flags)}),
    ("transform", "endpoint_term",
     lambda a, k, out: {"explicit": int(out.regime.startswith("explicit"))}),
    ("transform", "full_transform", None),
    ("errbudget", "check_condition_M", _grid_points),
    ("errbudget", "partition_assumptions", _partition_intervals),
    ("errbudget", "tail_deltas", None),
    ("errbudget", "global_delta4", None),
    ("errbudget", "kappa_functional",
     lambda a, k, out: {"nonfinite": int(not math.isfinite(out))}),
    ("errbudget", "compute_budget", None),
    ("experiments", "cli_main", None),
)


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def span(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[5] = counts(args, kwargs, out)
            return out

        wrapper.__wrapped_original__ = fn
        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn under a span of its own (the op-level span)."""
        return self.span(name, fn)(*args, **kwargs)

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if n == "vdcorput" or n.startswith("vdcorput.")]
        for mod_name, fn_name, counts in LAYERS:
            mod = importlib.import_module(f"vdcorput.{mod_name}")
            orig = getattr(mod, fn_name)
            wrapper = self.span(f"{mod_name}.{fn_name}", orig, counts)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fp:
            for s in self.spans:
                fp.write(json.dumps(s, separators=(",", ":")) + "\n")


def load_spans(path) -> List[list]:
    with open(path) as fp:
        return [json.loads(line) for line in fp]


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def aggregate(spans: List[list], select: Callable[[list], bool] = lambda s: True,
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self_s and summed counts, over the selected spans."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        if not select(s):
            continue
        row = table[s[0]]
        row["calls"] += 1
        row["self_s"] += own
        for k, v in (s[5] or {}).items():
            row[k] += v
    return {k: dict(v) for k, v in table.items()}
