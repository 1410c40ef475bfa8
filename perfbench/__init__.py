"""The repository benchmark: sweep throughput and cold/hit job latency.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` explains
the workloads, the metrics and the map from layer metrics to end-to-end
metrics.
"""
