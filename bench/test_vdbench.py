"""Tests of the benchmark harness itself (generator, tracing, gate)."""

import math

import pytest

from vdbench import checks, runner
from vdbench.tracing import Tracer, aggregate
from vdbench.workloads import WORKLOADS, make_ops

SMALL_OPS = [
    {"kind": "direct", "family": "power_phase", "params": [], "domain": None,
     "a": 1.0, "b": 2000.5},
    {"kind": "dual", "family": "power_phase", "params": [], "domain": None,
     "a": 1.0, "b": 1.2e5},
    {"kind": "audit", "family": "power_phase", "params": [], "domain": None,
     "a": 1.0, "b": 1200.0},
    {"kind": "audit", "family": "quadratic", "params": [0.37, 30.0], "domain": [-31.0, 61.0],
     "a": 0.0, "b": 30.0, "poisson_R": 16},
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        make_ops("nope", 0)


def _traced_pass():
    tracer = Tracer()
    try:
        ctx = runner.setup_in_process(SMALL_OPS, tracer)
        refs = [runner.reference(op, ctx) for op in SMALL_OPS]
        res = runner.run_passes(SMALL_OPS, refs, None, 0.0, ctx=ctx, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, res


def test_spans_nest_and_carry_op_ids():
    tracer, res = _traced_pass()
    assert res.failed == 0 and res.attempted == len(SMALL_OPS)
    names = {s[0] for s in tracer.spans}
    assert {"op.audit", "transform.full_transform", "errbudget.compute_budget",
            "expsum.direct_starred_sum", "quad.oscillatory_integral"} <= names
    for s in tracer.spans:
        name, start, end, parent, op, _ = s
        assert op is not None
        assert start <= end
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2]
            assert p[4] == op
        elif op != "setup":
            assert name.startswith("op.")


def test_layer_counts_repeat_exactly():
    def counts(tracer):
        agg = aggregate(tracer.spans, lambda s: s[4] != "setup")
        return {name: {k: v for k, v in row.items() if k != "self_s"}
                for name, row in agg.items()}

    first, _ = _traced_pass()
    second, _ = _traced_pass()
    assert counts(first) == counts(second)


def test_install_and_uninstall_restore_the_program():
    from vdcorput import errbudget, transform
    before = (transform.rhs_main_sum, errbudget.kappa_functional, transform.direct_starred_sum)
    tracer = Tracer()
    tracer.install()
    try:
        assert transform.rhs_main_sum is not before[0]
        assert transform.direct_starred_sum.__wrapped_original__ is before[2]
    finally:
        tracer.uninstall()
    assert (transform.rhs_main_sum, errbudget.kappa_functional,
            transform.direct_starred_sum) == before


class _WrongSum:
    """Stands in for vdcorput.expsum with a sum that is off by one unit."""

    def __init__(self, real):
        self.real = real

    def direct_starred_sum(self, model, a, b):
        return self.real.direct_starred_sum(model, a, b) + 1.0


def test_a_wrong_value_counts_as_a_failure():
    ops = SMALL_OPS[:1]
    ctx = runner.setup_in_process(ops)
    refs = [runner.reference(op, ctx) for op in ops]
    ctx.expsum = _WrongSum(ctx.expsum)
    res = runner.run_passes(ops, refs, None, 0.0, ctx=ctx)
    assert res.failed == res.attempted == 1
    assert res.unknown_failures == 1
    assert res.codes == [["oracle-mismatch"]]


def test_golden_drift_counts_as_a_failure():
    op = SMALL_OPS[0]
    ctx = runner.setup_in_process([op])
    ref = runner.reference(op, ctx)
    rec = runner.record(op, runner.execute(op, ctx))
    golden = runner.golden_subset(rec)
    assert checks.gate(op, rec, ref, golden) == []
    golden["value"] = [golden["value"][0] + 1e-6 * ref["abs_sum"], golden["value"][1]]
    assert checks.gate(op, rec, ref, golden) == ["golden-mismatch"]


def test_known_defects_are_classified_by_mechanism():
    rec = {"rhs": [1.0, 0.0], "d_a": [0.0, 0.0, 0.0], "d_b": [0.0, 0.0, 0.0], "dropped": 0,
           "budget": {"delta1_a": 1.0, "smoothIntegral": 2.0, "kappaJ0": math.inf,
                      "kappaPlus": 0.0, "kappaMinus": 0.0, "jnullSum": 0.0, "total": math.inf}}
    codes = checks._check_transform(rec)
    assert codes == ["kappa-nonfinite"] and checks.is_known(codes)
    rec["budget"]["delta1_a"] = math.nan
    codes = checks._check_transform(rec)
    assert "budget-nonfinite" in codes and not checks.is_known(codes)
    rec["dropped"] = 1
    assert "dropped-term" in checks._check_transform(rec)


def test_integer_slack_is_recognised_against_the_reference():
    op = {"kind": "direct", "family": "power_phase", "params": [], "domain": None,
          "a": 1.0, "b": 1000.0 + 1e-7}
    ctx = runner.setup_in_process([op])
    ref = runner.reference(op, ctx)
    assert ref["slack_value"] is not None
    rec = runner.record(op, runner.execute(op, ctx))
    assert checks.gate(op, rec, ref) == ["endpoint-integer-slack"]


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(100)]
    value, pct = runner.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == 90.0


def test_times_are_rescaled_by_the_calibration_around_them():
    assert runner.at_ref_speed(2.0, runner.CAL_REF_S, runner.CAL_REF_S) == 2.0
    assert runner.at_ref_speed(2.0, runner.CAL_REF_S, 3 * runner.CAL_REF_S) == 1.0
    ops = SMALL_OPS[:1]
    ctx = runner.setup_in_process(ops)
    refs = [runner.reference(op, ctx) for op in ops]
    res = runner.run_passes(ops, refs, None, 0.0, ctx=ctx)
    assert len(res.cal) == 2
    assert res.ref_latencies == [runner.at_ref_speed(res.latencies[0], *res.cal)]
