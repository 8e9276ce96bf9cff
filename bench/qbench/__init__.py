"""Benchmark of the qdeconv package: workloads, timing loop and tracing."""
