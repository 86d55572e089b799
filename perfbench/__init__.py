"""Benchmark of the repro bus-power simulator: workloads, metrics, traces.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/METRICS.md`` is
the guide to every workload and metric.
"""
