"""Benchmark harness for vdcorput: workloads, references, gate, tracing."""
