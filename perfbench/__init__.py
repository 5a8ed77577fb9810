"""Benchmark for replica-anneal: workloads, output checks and a per-layer tracer.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root. ``BENCHMARK.json`` at the
root lists the workloads and metrics; ``perfbench/BASELINE.md`` explains them.
"""
