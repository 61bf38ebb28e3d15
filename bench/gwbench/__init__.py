"""Benchmark harness for geowidth: seeded workloads, metrics and layer tracing."""
