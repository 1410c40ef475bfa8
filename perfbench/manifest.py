"""The benchmark's workloads and metrics: the source of ``BENCHMARK.json``.

``python3 perfbench/run.py --write-manifest`` regenerates the root
``BENCHMARK.json`` from these tables; ``perfbench/tests`` checks that the
committed file matches them.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 15

WORKLOADS = {
    "sweep": (
        "the paper's 44-cell grid at default size through run_cells: app "
        "callbacks and the core drain loop do the work, the service is idle"
    ),
    "service-cold": (
        "unique small jobs through repro serve over HTTP: every request misses "
        "the cache and pays kernel build, engine, digest and cache write"
    ),
    "service-hit": (
        "12 cached results of 17 KB to 1.3 MB resubmitted over HTTP: only HTTP, "
        "job_key and ResultCache.get work, the engine is idle"
    ),
}

#: name -> (unit, better, bound); bound is the share of the parent's median
#: a metric may worsen by before a change counts as a regression.  Each is
#: at least three times the run-to-run spread (quartile distance over
#: median) measured across seeds on a noisy shared 2-vCPU host; set-up,
#: the noisiest, gets the largest.
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.2),
    "latency_ms_p50": ("ms", "lower", 0.22),
    "latency_ms_p90": ("ms", "lower", 0.22),
    "sim_tasks_per_s": ("1/s", "higher", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.2),
    "setup_s": ("s", "lower", 0.25),
}

#: name -> (unit, better); reported by the traced run (``--trace 1``)
PER_LAYER = {
    "graph.build_ms": ("ms", "lower"),
    "graph.edit_ms": ("ms", "lower"),
    "apps.make_kernel_ms": ("ms", "lower"),
    "apps.work_estimate_ms": ("ms", "lower"),
    "apps.on_read_ms": ("ms", "lower"),
    "apps.on_complete_ms": ("ms", "lower"),
    "apps.final_check_ms": ("ms", "lower"),
    "apps.callback_calls": ("count", "lower"),
    "core.run_policy_ms": ("ms", "lower"),
    "core.self_ms": ("ms", "lower"),
    "core.host_ns_per_task": ("ns", "lower"),
    "bsp.run_ms": ("ms", "lower"),
    "queueing.pops": ("count", "lower"),
    "queueing.empty_pops": ("count", "lower"),
    "queueing.empty_pop_ratio": ("ratio", "lower"),
    "queueing.items_pushed": ("count", "lower"),
    "queueing.steals": ("count", "lower"),
    "sim.tasks": ("count", "lower"),
    "sim.elapsed_ns": ("count", "lower"),
    "sim.work_units": ("count", "lower"),
    "sim.trace_samples": ("count", "lower"),
    "service.http_ms": ("ms", "lower"),
    "service.job_key_ms": ("ms", "lower"),
    "service.cache_lookup_ms": ("ms", "lower"),
    "service.cache_entry_bytes": ("bytes", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.engine_ms": ("ms", "lower"),
    "service.executor_hop_ms": ("ms", "lower"),
    "service.finish_ms": ("ms", "lower"),
    "service.retries": ("count", "lower"),
    "service.timeouts": ("count", "lower"),
    "service.cache_hits": ("count", "higher"),
    "service.cache_misses": ("count", "lower"),
    "bench.latency_samples": ("count", "higher"),
    "bench.trace_overhead": ("ratio", "lower"),
}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, (unit, better) in PER_LAYER.items()
        ],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render(), encoding="utf-8")
    return path
