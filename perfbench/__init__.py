"""Benchmark for the repro package: workloads, runner and tracing."""
