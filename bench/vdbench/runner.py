"""Set-up, timed passes, metrics and the traced run of one workload.

One run: build the workload's op set from the seed, set up (import vdcorput,
build the families, run one warm-up op), compute references, then repeat
passes over the op set in a closed loop, one client, until ``seconds`` of
wall time have elapsed (at least one pass).  Every op of every pass goes
through the gate.

The ``cli`` workload runs each op as a cold ``python -m vdcorput.experiments``
child, so interpreter start-up and imports are inside every op.

Every op, pass and set-up is timed in CPU seconds of the process that does
the work: ``time.process_time`` in-process and in set-up probes, the rusage
of the waited-for child for ``cli`` ops and their set-up.  Ops and passes are
timed in wall seconds too.  The program is single-threaded with BLAS pinned
to one thread, so the two clocks agree on an idle machine.  On a shared host
the CPU clock leaves out the time the process or its virtual CPU was not
running (where the kernel accounts steal time apart), but not the slow-down
from neighbours sharing the physical core and its caches.  That slow-down
comes in phases of seconds to minutes, up to about 1.6x for
interpreter-heavy code, and only ever adds time.

So a fixed calibration kernel (``calibrate``: no vdcorput code, only the
interpreter, math, numpy and first touches of fresh pages) runs before the
first op and after every op, and every op's CPU time is scaled by
``CAL_REF_S`` over the mean of the kernel runs just before and after it
(``at_ref_speed``): the op's time relative to the kernel's at that moment,
expressed at the reference core speed at which the kernel takes
``CAL_REF_S``.  Set-ups are scaled the same way.  The whole run, its
children included, stays on one CPU (``pin_to_one_cpu``), so the kernel runs
on the core the ops ran on.  The raw CPU and wall figures go to the printed
lines and the report.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional

import mpmath
import numpy as np

from . import checks
from .tracing import Tracer, load_spans
from .workloads import DEFAULT_SEED

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
GOLDENS = BENCH_DIR / "goldens.json"
SETUP_SAMPLES = 7
CAL_REF_S = 0.0075      # the kernel's CPU seconds on an idle core of a 2-vCPU AMD EPYC VM
CAL_WARMUP = 10         # kernel runs before the first timed one: the first few run slow
TAIL_BEYOND = 10

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


_CAL_SHORT = np.linspace(0.0, 1.0, 64)
_CAL_VECTOR = np.linspace(0.0, 1.0, 1 << 17)        # 1 MiB: beyond L2, within L3
_CAL_SCRATCH = np.empty_like(_CAL_VECTOR)
_CAL_FRESH_BYTES = 8 << 20                          # fresh anonymous pages, touched once


def _cal_loop(n: int) -> float:
    acc, seen = 0.0, {}
    for i in range(n):
        x = i * 1e-3
        acc += math.sin(x) * math.exp(-x * 1e-3)
        seen[i & 63] = acc
    return acc


def calibrate() -> float:
    """CPU seconds of one run of the calibration kernel in this process: a
    fixed mix of interpreter loop, short numpy calls, vector arithmetic over
    arrays that live in the last-level cache, and first touches of fresh
    pages (what a cold process start is made of), about CAL_REF_S on an idle
    core."""
    c0 = process_time()
    _cal_loop(4000)
    for _ in range(150):
        np.exp(_CAL_SHORT * 0.3).sum()
    for _ in range(4):
        np.multiply(_CAL_VECTOR, 3.7, out=_CAL_SCRATCH)
        np.sin(_CAL_SCRATCH, out=_CAL_SCRATCH).sum()
    fresh = mmap.mmap(-1, _CAL_FRESH_BYTES)
    for off in range(0, _CAL_FRESH_BYTES, mmap.PAGESIZE):
        fresh[off] = 1
    fresh.close()
    return process_time() - c0


def warm_calibration() -> float:
    for _ in range(CAL_WARMUP):
        cal = calibrate()
    return cal


_CPUS = sorted(os.sched_getaffinity(0))           # before pin_to_one_cpu


def pin_to_one_cpu() -> int:
    """Keep this process and the children it starts on one CPU of its set."""
    os.sched_setaffinity(0, {_CPUS[0]})
    return _CPUS[0]


def at_ref_speed(cpu: float, cal_before: float, cal_after: float) -> float:
    """CPU seconds rescaled to the core speed at which the kernel takes
    CAL_REF_S, from the kernel runs just before and after them."""
    return cpu * CAL_REF_S / (0.5 * (cal_before + cal_after))


def children_cpu() -> float:
    """User plus system CPU seconds of all waited-for children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def child_env(**extra) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def machine_info() -> Dict:
    info = {"nproc": len(_CPUS), "pinned_to": sorted(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or "unknown",
            "llc": "unknown", "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "mpmath": mpmath.__version__,
            "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                        "MKL_NUM_THREADS")}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        if caches:
            last = caches[-1]
            info["llc"] = f"L{(last / 'level').read_text().strip()} " \
                          f"{(last / 'size').read_text().strip()}"
    except OSError:
        pass
    return info


def _pair(z) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# in-process workloads: oracle, audit, dual
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """The imported program modules and the models built at set-up.

    Ops call through the module objects, never through names bound at import,
    so a traced run reaches the wrappers ``Tracer.install`` puts in place."""

    transform: object = None
    expsum: object = None
    quad: object = None
    models: Dict = field(default_factory=dict)

    @staticmethod
    def key(op) -> tuple:
        return op["family"], tuple(op["params"]), tuple(op["domain"] or ())


def timed_setup(ops: List[Dict], tracer: Optional[Tracer] = None):
    """(set-up seconds at reference speed, raw CPU seconds, context)."""
    cal = warm_calibration()
    t0 = process_time()
    ctx = setup_in_process(ops, tracer)
    cpu = process_time() - t0
    return at_ref_speed(cpu, cal, calibrate()), cpu, ctx


def setup_in_process(ops: List[Dict], tracer: Optional[Tracer] = None) -> Context:
    """Import vdcorput, build every family of the op set, run ops[0] once."""
    import vdcorput
    from vdcorput import expsum, phase, quad, transform

    if not Path(vdcorput.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"vdcorput imported from {vdcorput.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    ctx = Context(transform, expsum, quad)
    for op in ops:
        k = Context.key(op)
        if k not in ctx.models:
            ctx.models[k] = phase.builtin_family(op["family"], op["params"],
                                                 domain=tuple(op["domain"]) if op["domain"] else None)
    execute(ops[0], ctx)
    return ctx


def execute(op: Dict, ctx: Context):
    """Call the program for one op; returns its raw outputs."""
    model, profile = ctx.models[Context.key(op)]
    a, b = op["a"], op["b"]
    kind = op["kind"]
    if kind == "direct":
        return ctx.expsum.direct_starred_sum(model, a, b)
    if kind == "dual":
        opts = ctx.transform.TransformOptions(measure=False, budget=False)
        return ctx.transform.full_transform(model, profile, a, b, opts)
    res, budget = ctx.transform.full_transform(model, profile, a, b,
                                               ctx.transform.TransformOptions())
    quads = []
    if op.get("poisson_R"):
        R = op["poisson_R"]
        quads = [ctx.quad.oscillatory_integral(model, float(r), a, b, 1e-9)
                 for r in range(-R, R + 1)]
    return res, budget, quads


def record(op: Dict, out) -> Dict:
    """The numbers one op produced, as plain JSON values."""
    if op["kind"] == "direct":
        return {"value": _pair(out)}
    res, budget, quads = (*out, []) if op["kind"] == "dual" else out
    ends = [[t.explicit.real, t.explicit.imag, t.bound] for t in (res.d_a, res.d_b)]
    rec = {"rhs": _pair(res.rhs_main), "rhs_abs_sum": float(sum(abs(v) for _, _, v in res.terms)),
           "terms": len(res.terms), "r_range": list(res.r_range), "dropped": len(res.flags),
           "flags": res.flags[:5], "d_a": ends[0], "d_b": ends[1],
           "regimes": [res.d_a.regime, res.d_b.regime],
           "condition_passed": bool(res.condition_report.passed)}
    if res.direct_value is not None:
        rec["direct"] = _pair(res.direct_value)
        rec["measured_delta"] = _pair(res.measured_delta)
    if budget is not None:
        js = budget.to_json()
        d4 = js["delta4"]
        rec["budget"] = {"delta1_a": js["delta1"]["a"], "delta1_b": js["delta1"]["b"],
                         "delta2_a": js["delta2"]["a"], "delta2_b": js["delta2"]["b"],
                         "delta3_a": js["delta3"]["a"], "delta3_b": js["delta3"]["b"],
                         **{k: float(d4[k]) for k in ("smoothIntegral", "kappaJ0", "kappaPlus",
                                                      "kappaMinus", "jnullSum")},
                         "total": float(budget.total)}
        rec["budget_total"] = float(budget.total)
        total = float(budget.total) + ends[0][2] + ends[1][2]
        rec["ratio"] = abs(res.measured_delta) / total if total > 0 else None
    if quads:
        rec["poisson"] = _pair(sum(q.value for q in quads))
        rec["poisson_unconverged"] = sum(not q.converged for q in quads)
    return rec


def reference(op: Dict, ctx: Optional[Context]) -> Dict:
    kind = op["kind"]
    if kind == "direct":
        return checks.direct_reference(op)
    if kind == "dual":
        return checks.dual_reference(op["family"], op["params"], op["a"], op["b"])
    if kind == "audit":
        model, _ = ctx.models[Context.key(op)]
        ns = np.arange(np.ceil(op["a"]), np.floor(op["b"]) + 1)
        ref = {"g_abs_sum": float(np.abs(model.g(ns)).sum())}
        if op.get("poisson_R"):
            fb = op["params"][0] * op["b"]           # quadratic: f'(b) = omega b
            ref["poisson_gap_max"] = 10 * (fb + 2) / (np.pi * (op["poisson_R"] - fb))
        return ref
    return cli_reference(op)


# ---------------------------------------------------------------------------
# the cli workload
# ---------------------------------------------------------------------------

def cli_reference(op: Dict) -> Dict:
    args = dict(zip(op["args"][::2], op["args"][1::2]))
    if op["command"] == "sum":
        return {"value": checks.direct_reference(
            {"family": "power_phase", "params": [], "a": float(args["--a"]), "b": float(args["--b"])})}
    if op["command"] == "transform":
        return {"rhs": checks.dual_reference("power_phase", [], float(args["--a"]), float(args["--b"]))}
    if op["command"] == "curve":
        n = int(float(args["--tmax"]))
        value, gabs, scaled = checks.term_sums("power_phase", [], 1, n)
        # CSV carries 15 significant digits
        return {"curve": {"value": value, "rows": n, "bound": checks.U * scaled + 1e-14 * gabs}}
    return {}


def _numbers(obj) -> List[float]:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, dict):
        return [x for k, v in obj.items() if k != "config" for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return []


_CLI_JSON = {"sum": "sum.json", "transform": "transform.json", "budget": "budget.json",
             "estimate-c": "estimate_c.json", "ck": "ck.json", "kl": "kl.json", "ik": "ik.json"}


def cli_record(op: Dict, proc: subprocess.CompletedProcess, out_dir: Path) -> Dict:
    rec = {"returncode": proc.returncode, "stdout_tail": proc.stdout[-300:],
           "stderr_tail": proc.stderr[-300:]}
    cmd = op["command"]
    try:
        if cmd == "curve":
            rows = (out_dir / "curve.csv").read_text().splitlines()
            t, re_, im_ = rows[-1].split(",")
            rec.update(numbers=[float(t), float(re_), float(im_)], curve_last=[float(re_), float(im_)],
                       curve_rows=len(rows) - 1, svg_bytes=(out_dir / "spiral.svg").stat().st_size)
            return rec
        name = (f"example_{op['args'][op['args'].index('--N') + 1]}.json"
                if cmd == "example" else _CLI_JSON[cmd])
        js = json.loads((out_dir / name).read_text())
    except (OSError, ValueError, IndexError):
        rec["unparsable"] = True
        return rec
    rec["numbers"] = _numbers(js)
    if cmd == "sum":
        rec["value"] = [js["value"]["re"], js["value"]["im"]]
    elif cmd == "transform":
        rec["rhs"] = [js["rhsMain"]["re"], js["rhsMain"]["im"]]
        rec["flags"] = js["flags"]
        rec["budget_total"] = js["budget"]["total"]
    elif cmd == "budget":
        rec["budget_total"] = js["total"]
    elif cmd == "ck":
        rec["passed"] = js["allPassed"]
    elif cmd == "kl":
        rec["passed"] = js["classicalOk"]
    return rec


class CliRunner:
    """Runs cli ops as cold children, writing into a scratch dir in bench/out."""

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def argv(self, op: Dict, out_dir: Path, traced: bool) -> List[str]:
        args = [a.replace("{out}", str(out_dir)) for a in op["args"]]
        entry = [str(BENCH_DIR / "cli_child.py")] if traced else ["-m", "vdcorput.experiments"]
        return [sys.executable, *entry, op["command"], *args]

    def run(self, op: Dict, index: int, traced_op: Optional[str] = None):
        out_dir = self.tmp / f"op{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        extra = {}
        if traced_op is not None:
            extra = {"VDBENCH_OP": traced_op, "VDBENCH_SPANS": str(self.tmp / f"op{index}.spans")}
        argv = self.argv(op, out_dir, traced_op is not None)
        env = child_env(**extra)
        c0, t0 = children_cpu(), perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        return children_cpu() - c0, wall, proc, out_dir

    def setup_once(self):
        """(seconds at reference speed, raw CPU seconds) of one cold
        ``vdcorput.experiments --help`` child."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        cal = calibrate()
        c0 = children_cpu()
        proc = subprocess.run([sys.executable, "-m", "vdcorput.experiments", "--help"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"vdcorput CLI does not start: {proc.stderr[-500:]}")
        cpu = children_cpu() - c0
        return at_ref_speed(cpu, cal, calibrate()), cpu


# ---------------------------------------------------------------------------
# timed passes and metrics
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    """Per pass and per op: CPU seconds at reference speed (``ref_passes``,
    ``ref_latencies``), raw CPU seconds (``cpu``, ``latencies``, ``per_op``)
    and wall seconds (``walls``, ``wall_latencies``); and the CPU seconds of
    the calibration kernel runs (``cal``)."""

    ref_passes: List[float] = field(default_factory=list)
    ref_latencies: List[float] = field(default_factory=list)

    cpu: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    wall_latencies: List[float] = field(default_factory=list)
    per_op: List[List[float]] = field(default_factory=list)
    cal: List[float] = field(default_factory=list)
    records: List[Dict] = field(default_factory=list)
    codes: List[List[str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unknown_failures: int = 0
    known: Dict[str, int] = field(default_factory=dict)
    err: Dict[str, float] = field(default_factory=dict)


def _account(res: PassResult, i: int, cpu: float, wall: float, ref: float, rec: Dict,
             codes: List[str], first: bool):
    res.ref_latencies.append(ref)
    res.latencies.append(cpu)
    res.wall_latencies.append(wall)
    res.per_op[i].append(cpu)
    res.attempted += 1
    if first:
        res.records.append(rec)
        res.codes.append(codes)
    if codes:
        res.failed += 1
        if checks.is_known(codes):
            for c in codes:
                res.known[c] = res.known.get(c, 0) + 1
        else:
            res.unknown_failures += 1


def run_passes(ops, refs, goldens, seconds, ctx=None, cli: Optional[CliRunner] = None,
               tracer: Optional[Tracer] = None, pass_offset: int = 0) -> PassResult:
    res = PassResult(per_op=[[] for _ in ops])
    start = perf_counter()
    res.cal.append(calibrate())
    p = 0
    while True:
        pass_ref = pass_cpu = pass_wall = 0.0
        for i, op in enumerate(ops):
            op_id = f"p{pass_offset + p}.o{i}"
            golden = goldens[i] if goldens else None
            if cli is not None:
                if tracer is not None:
                    idx = len(tracer.spans)
                    tracer.op = op_id
                    cpu, wall, proc, out_dir = tracer.call("op.cli", cli.run, op, i, op_id)
                    child = load_spans(cli.tmp / f"op{i}.spans")
                    for s in child:
                        s[3] = idx if s[3] < 0 else s[3] + len(tracer.spans)
                    tracer.spans.extend(child)
                else:
                    cpu, wall, proc, out_dir = cli.run(op, i)
                rec = cli_record(op, proc, out_dir)
            else:
                if tracer is not None:
                    tracer.op = op_id
                c0, t0 = process_time(), perf_counter()
                try:
                    out = tracer.call(f"op.{op['kind']}", execute, op, ctx) if tracer \
                        else execute(op, ctx)
                except Exception as exc:    # a raising op is a failed op, not a crashed run
                    out = exc
                cpu, wall = process_time() - c0, perf_counter() - t0
                rec = ({"error": f"{type(out).__name__}: {out}"} if isinstance(out, Exception)
                       else record(op, out))
            res.cal.append(calibrate())
            ref = at_ref_speed(cpu, res.cal[-2], res.cal[-1])
            codes = checks.gate(op, rec, refs[i], golden)
            _track_error(res, op, rec, refs[i], codes)
            pass_ref += ref
            pass_cpu += cpu
            pass_wall += wall
            _account(res, i, cpu, wall, ref, rec, codes, first=(p == 0))
        res.ref_passes.append(pass_ref)
        res.cpu.append(pass_cpu)
        res.walls.append(pass_wall)
        p += 1
        if perf_counter() - start >= seconds:
            return res


def _track_error(res: PassResult, op, rec, ref, codes):
    """Max relative error against the references, over ops that passed."""
    if codes or op["kind"] not in ("direct", "dual"):
        return
    key, field_ = ("oracle_err_max", "value") if op["kind"] == "direct" else ("dual_err_max", "rhs")
    err = abs(complex(*rec[field_]) - ref["value"]) / ref["abs_sum"]
    res.err[key] = max(res.err.get(key, 0.0), err)


def tail(latencies: List[float]):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_goldens(workload: str, seed: int, ops: List[Dict]):
    if seed != DEFAULT_SEED or not GOLDENS.is_file():
        return None
    entry = json.loads(GOLDENS.read_text()).get(workload)
    if entry is None:
        return None
    if entry["ops"] != json.loads(json.dumps(ops)):
        raise RuntimeError(f"{GOLDENS.name} was taken for another {workload} op set; retake it")
    return entry["records"]


GOLDEN_KEYS = ("value", "rhs", "direct", "budget_total")


def golden_subset(rec: Dict) -> Dict:
    return {k: rec[k] for k in GOLDEN_KEYS if k in rec}


def setup_probe(workload: str, seed: int):
    """(seconds at reference speed, raw CPU seconds) of a set-up in a fresh
    interpreter, timed as the run itself does."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-800:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_cpu_s"]


def importtime_probe() -> Dict[str, float]:
    """vdcorput and scipy import seconds from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vdcorput"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import of vdcorput failed: {proc.stderr[-800:]}")
    vd = sc = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            own, cum = int(parts[0]), int(parts[1])
        except ValueError:
            continue
        name = parts[2].strip()
        if name == "vdcorput":
            vd = cum / 1e6
        if name == "scipy" or name.startswith("scipy."):
            sc += own / 1e6
    return {"vdcorput_s": vd, "scipy_s": sc}
