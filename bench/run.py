"""The vdcorput benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {oracle,audit,dual,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it times half of ``--seconds`` untraced and half with spans on
every layer boundary, and prints the per-layer metrics (per pass over the op
set) and the tracing overhead.  End-to-end times are CPU seconds of the
process doing the work, scaled to reference core speed by a calibration
kernel run next to every op (see ``vdbench.runner``); the raw CPU and
wall-clock figures are printed beside them.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  A full report (machine, every
op with the numbers it produced and its gate codes, latencies, the per-layer
table) goes to ``bench/out/``, and the spans of a traced run next to it.

BLAS/OpenMP pools are pinned to one thread, so one process and its children
keep at most one busy thread each.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

from vdbench import runner  # noqa: E402
from vdbench.checks import KNOWN_DEFECTS  # noqa: E402
from vdbench.tracing import Tracer, aggregate  # noqa: E402
from vdbench.workloads import WORKLOADS, make_ops  # noqa: E402

# (metric, unit): per-pass layer metrics named "<module>.<function>.<what>"
LAYER_METRICS = (
    ("expsum.direct_starred_sum", ("calls", "terms", "self_s", "ns_per_term")),
    ("expsum.curve_samples", ("calls", "samples", "self_s")),
    ("transform.rhs_main_sum", ("calls", "terms", "self_s", "ns_per_term", "dropped")),
    ("transform.endpoint_term", ("calls", "self_s", "explicit_share")),
    ("numutil.modified_sawtooth", ("calls", "self_s")),
    ("phase.invert_fprime", ("calls", "self_s")),
    ("phase.builtin_family", ("self_s",)),
    ("errbudget.check_condition_M", ("calls", "points", "self_s")),
    ("errbudget.partition_assumptions", ("self_s", "intervals")),
    ("errbudget.tail_deltas", ("self_s",)),
    ("errbudget.global_delta4", ("self_s",)),
    ("errbudget.kappa_functional", ("calls", "self_s", "nonfinite")),
    ("errbudget.compute_budget", ("self_s",)),
    ("quad.oscillatory_integral", ("calls", "panels", "converged_share", "self_s")),
    ("experiments.cli_main", ("self_s",)),
)
UNITS = {"self_s": "s", "ns_per_term": "ns", "explicit_share": "ratio",
         "converged_share": "ratio"}
# ratio -> (numerator count, base count)
RATIOS = {"ns_per_term": ("self_s", "terms"), "explicit_share": ("explicit", "calls"),
          "converged_share": ("converged", "calls")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print it (used by the run)")
    return p.parse_args(argv)


def layer_metrics(agg_pass, agg_setup, passes):
    """Per-pass values of LAYER_METRICS; also the table rows with ratio bases."""
    metrics, rows = {}, []
    for name, whats in LAYER_METRICS:
        row = agg_pass.get(name, {})
        for what in whats:
            if what in RATIOS:
                num, base = RATIOS[what]
                denom = row.get(base, 0)
                value = row.get(num, 0) / denom if denom else 0.0
                if what == "ns_per_term":
                    value *= 1e9
                rows.append(f"{name}.{what} = {value:.6g} {UNITS[what]} "
                            f"(base: {denom / passes:.6g} {base} per pass)")
            else:
                value = row.get(what, 0) / passes
                if name == "phase.builtin_family":
                    value += agg_setup.get(name, {}).get("self_s", 0.0)
            metrics[f"{name}.{what}"] = {"value": value, "unit": UNITS.get(what, "count")}
    return metrics, rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (runner.SRC / "vdcorput" / "__init__.py").is_file():
        print(f"error: no vdcorput sources under {runner.SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    runner.pin_to_one_cpu()
    ops = make_ops(args.workload, args.seed)
    cli = args.workload == "cli"

    if args.setup_only:
        setup_s, setup_cpu_s, _ = runner.timed_setup(ops)
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
        return 0

    runner.OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    tracer = Tracer() if args.trace else None
    ctx = cli_runner = None
    if cli:
        cli_runner = runner.CliRunner(runner.OUT / f"tmp-{tag}-{os.getpid()}")
        runner.warm_calibration()
        setups = [cli_runner.setup_once() for _ in range(runner.SETUP_SAMPLES)]
    else:
        probes = runner.SETUP_SAMPLES - 1 if tracer is None else 0
        setups = [runner.setup_probe(args.workload, args.seed) for _ in range(probes)]
        setup_s, setup_cpu_s, ctx = runner.timed_setup(ops, tracer)
        setups.append((setup_s, setup_cpu_s))
        if tracer is not None:
            tracer.uninstall()

    try:
        refs = [runner.reference(op, ctx) for op in ops]
        goldens = runner.load_goldens(args.workload, args.seed, ops)
        kw = dict(ctx=ctx, cli=cli_runner)
        if tracer is None:
            res = runner.run_passes(ops, refs, goldens, args.seconds, **kw)
            plain = None
        else:
            plain = runner.run_passes(ops, refs, goldens, args.seconds / 2, **kw)
            if not cli:
                tracer.install()
            res = runner.run_passes(ops, refs, goldens, args.seconds / 2, tracer=tracer,
                                    pass_offset=len(plain.cpu), **kw)
            tracer.uninstall()
    finally:
        if cli_runner is not None:
            shutil.rmtree(cli_runner.tmp, ignore_errors=True)

    both = [r for r in (plain, res) if r is not None]
    attempted = sum(r.attempted for r in both)
    failed = sum(r.failed for r in both)
    unknown = sum(r.unknown_failures for r in both)
    known = {}
    for r in both:
        for k, v in r.known.items():
            known[k] = known.get(k, 0) + v
    tail_s, tail_pct = runner.tail(res.ref_latencies)
    summary = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "opset_s": (statistics.median(res.ref_passes), "s"),
        "op_p50_ms": (1e3 * statistics.median(res.ref_latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (runner.peak_rss_mb(children=cli), "MB"),
    }
    cpu_tail_s, _ = runner.tail(res.latencies)
    wall_tail_s, _ = runner.tail(res.wall_latencies)
    info = {"op_tail_percentile": (tail_pct, "%"), "op_samples": (len(res.latencies), "count"),
            "calibration_ms": (1e3 * statistics.median(res.cal), "ms"),
            "setup_cpu_s": (statistics.median(c for _, c in setups), "s"),
            "opset_cpu_s": (statistics.median(res.cpu), "s"),
            "op_cpu_p50_ms": (1e3 * statistics.median(res.latencies), "ms"),
            "op_cpu_tail_ms": (1e3 * cpu_tail_s, "ms"),
            "wall_s": (statistics.median(res.walls), "s"),
            "op_wall_p50_ms": (1e3 * statistics.median(res.wall_latencies), "ms"),
            "op_wall_tail_ms": (1e3 * wall_tail_s, "ms"),
            "fail_share": (failed / attempted, "ratio"),
            "passes": (len(res.cpu), "count")}
    for key, val in sorted(res.err.items()):
        info[key] = (val, "ratio")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": runner.machine_info(),
              "setup_samples_s": setups, "pass_ref_s": res.ref_passes, "pass_cpu_s": res.cpu,
              "pass_walls_s": res.walls,
              "summary": {k: {"value": v, "unit": u} for k, (v, u) in {**summary, **info}.items()},
              "known_defects": {k: {"failed_ops": v, "what": KNOWN_DEFECTS[k]}
                                for k, v in known.items()},
              "ops": [{"op": op, "record": rec, "codes": codes,
                       "cpu_s": lat}
                      for op, rec, codes, lat in zip(ops, res.records, res.codes, res.per_op)],
              "calibration_s": res.cal}

    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in {**summary, **info}.items()]
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}
    else:
        agg_setup = aggregate(tracer.spans, lambda s: s[4] == "setup")
        agg_pass = aggregate(tracer.spans, lambda s: s[4] != "setup")
        metrics, rows = layer_metrics(agg_pass, agg_setup, len(res.cpu))
        imports = [runner.importtime_probe() for _ in range(runner.SETUP_SAMPLES)]
        for key in ("vdcorput_s", "scipy_s"):
            metrics[f"experiments.import.{key}"] = {
                "value": statistics.median(i[key] for i in imports), "unit": "s"}
        traced, untraced = statistics.median(res.ref_passes), statistics.median(plain.ref_passes)
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        lines = [f"untraced opset_s = {untraced:.6g} s, traced opset_s = "
                 f"{traced:.6g} s, overhead = {traced - untraced:.6g} s",
                 f"untraced wall_s = {statistics.median(plain.walls):.6g} s, traced wall_s = "
                 f"{statistics.median(res.walls):.6g} s"]
        lines += rows + [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        report["layers"] = {"per_pass": agg_pass, "setup": agg_setup, "passes": len(res.cpu)}
        report["per_layer"] = metrics
        tracer.dump(runner.OUT / f"{tag}.spans.jsonl")
    report["metrics"] = metrics
    (runner.OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    m = report["machine"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: nproc={m['nproc']} "
          f"cpu={m['cpu_model']!r} llc={m['llc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} mpmath={m['mpmath']}")
    for line in lines:
        print(line)
    for k, v in known.items():
        print(f"known defect {k}: {v} failed ops -- {KNOWN_DEFECTS[k]}")
    if unknown:
        bad = [(i, c) for i, c in enumerate(res.codes) if c and not set(c) <= set(KNOWN_DEFECTS)]
        print(f"INCORRECT: {unknown} ops failed outside the known defects, e.g. {bad[:5]}")
    print(json.dumps({"correct": unknown == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
