"""Service load benchmark: the scenario behind ``BENCH_service.json``.

Two-phase measurement against an in-process broker:

1. **cold** — each distinct job in the mix is submitted once; every one
   is a cache miss that runs the full simulation.  Before the broker
   sees anything, the same specs are executed serially through
   independent Labs to produce the *reference digests* every service
   response is checked against — the end-to-end correctness number
   (``digest_match_ratio``) is part of the committed artifact, not just
   a test assertion.
2. **warm** — ``clients`` concurrent submitters (default 1000), spread
   round-robin over ``tenants``, each draw a seeded-random job from the
   same mix.  Every request is a content-address hit, so this measures
   the service path itself: queue-free hit latency (exact p50/p99 over
   all requests) and sustained request throughput.

``warm_speedup`` (mean cold latency / mean warm latency) is the
headline; :func:`validate_service_report` enforces the acceptance floor
— warm hits at least 100x faster than cold misses, perfect digest
match, a nonzero hit ratio — so a committed report *is* a passing
acceptance run.  Wall noise across machines is handled exactly like
``BENCH_perf.json``: the report embeds a calibration spin score and
``python -m repro diff`` rescales before comparing.
"""

from __future__ import annotations

import asyncio
import json
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

from repro.perf.bench import calibrate
from repro.service.broker import Broker, BrokerConfig
from repro.service.jobs import RunSpec, execute_spec, job_key, result_digest, spec_from_dict

__all__ = [
    "SERVICE_BENCH_SCHEMA",
    "BENCH_JOB_MIX",
    "run_service_bench",
    "validate_service_report",
    "format_service_report",
    "write_service_report",
    "load_service_report",
]

SERVICE_BENCH_SCHEMA = "repro.service/bench-v1"

#: the mixed-tenant workload: static, perturbed (seeded) and dynamic
#: (edit-replay) jobs over both headline datasets — one spec per job
#: class the service distinguishes in its cache key
BENCH_JOB_MIX: tuple[dict, ...] = (
    {"app": "bfs", "dataset": "roadNet-CA", "config": "persist-CTA"},
    {"app": "pagerank", "dataset": "soc-LiveJournal1", "config": "persist-CTA"},
    {"app": "coloring", "dataset": "roadNet-CA", "config": "discrete-CTA"},
    {"app": "bfs", "dataset": "soc-LiveJournal1", "config": "persist-warp", "seed": 3},
    {"app": "pagerank", "dataset": "roadNet-CA", "config": "BSP"},
    {"app": "bfs-inc", "dataset": "roadNet-CA", "config": "persist-CTA", "edits": "2x16@3"},
)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Exact empirical quantile (nearest-rank) over a sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


async def _run(
    specs: list[RunSpec],
    *,
    clients: int,
    tenants: int,
    workers: int,
    rng_seed: int,
) -> dict:
    refs = {job_key(spec): result_digest(execute_spec(spec)) for spec in specs}

    config = BrokerConfig(workers=workers, tenant_queue_limit=max(64, clients))
    matches = 0
    responses = 0
    async with Broker(config) as broker:
        cold_ms: list[float] = []
        for spec in specs:
            res = await broker.submit(spec, tenant="cold")
            cold_ms.append(res.wall_ms)
            responses += 1
            matches += res.digest == refs[job_key(spec)]

        rng = random.Random(rng_seed)
        draws = [rng.randrange(len(specs)) for _ in range(clients)]

        async def one_client(i: int) -> tuple[float, bool]:
            spec = specs[draws[i]]
            t0 = time.perf_counter()
            res = await broker.submit(spec, tenant=f"tenant-{i % tenants}")
            return (
                (time.perf_counter() - t0) * 1e3,
                res.digest == refs[job_key(spec)],
            )

        t0 = time.perf_counter()
        warm = await asyncio.gather(*(one_client(i) for i in range(clients)))
        warm_wall_s = time.perf_counter() - t0
        stats = broker.stats()

    warm_ms = sorted(ms for ms, _ in warm)
    responses += len(warm)
    matches += sum(ok for _, ok in warm)
    cold_mean = sum(cold_ms) / len(cold_ms)
    warm_mean = sum(warm_ms) / len(warm_ms)
    return {
        "cold_ms": cold_ms,
        "cold_ms_mean": cold_mean,
        "warm_ms_mean": warm_mean,
        "warm_ms_p50": _quantile(warm_ms, 0.50),
        "warm_ms_p99": _quantile(warm_ms, 0.99),
        "warm_wall_s": warm_wall_s,
        "throughput_rps": clients / warm_wall_s,
        "warm_speedup": cold_mean / warm_mean if warm_mean else 0.0,
        "digest_match_ratio": matches / responses,
        "hit_ratio": stats.cache.hit_ratio,
        "coalesced": stats.coalesced,
        "rejected": stats.rejected,
        "peak_queue_depth": stats.peak_queue_depth,
    }


def run_service_bench(
    *,
    size: str = "tiny",
    clients: int = 1000,
    tenants: int = 8,
    workers: int = 4,
    job_mix: tuple[dict, ...] = BENCH_JOB_MIX,
    rng_seed: int = 20250807,
) -> dict:
    """Run the two-phase load scenario and return the report document."""
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    specs = [spec_from_dict(dict(doc, size=size)) for doc in job_mix]
    calib_ns = calibrate()
    t_start = time.time()
    measured = asyncio.run(
        _run(specs, clients=clients, tenants=tenants, workers=workers, rng_seed=rng_seed)
    )
    t_end = time.time()
    return {
        "schema": SERVICE_BENCH_SCHEMA,
        "size": size,
        "clients": clients,
        "tenants": tenants,
        "workers": workers,
        "distinct_jobs": len(specs),
        "job_mix": [dict(doc) for doc in job_mix],
        # span tracing is on by default in BrokerConfig; recorded so the
        # committed baseline pins the <5% overhead claim (diff's service.*
        # threshold catches a tracing-induced throughput regression)
        "tracing": BrokerConfig().tracing,
        "t_start": t_start,
        "t_end": t_end,
        "calibration_loop_ns": calib_ns,
        **measured,
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }


_REQUIRED = {
    "schema": str,
    "size": str,
    "clients": int,
    "tenants": int,
    "workers": int,
    "distinct_jobs": int,
    "t_start": float,
    "t_end": float,
    "calibration_loop_ns": float,
    "cold_ms": list,
    "cold_ms_mean": float,
    "warm_ms_mean": float,
    "warm_ms_p50": float,
    "warm_ms_p99": float,
    "warm_wall_s": float,
    "throughput_rps": float,
    "warm_speedup": float,
    "digest_match_ratio": float,
    "hit_ratio": float,
    "machine": dict,
}


def validate_service_report(doc: dict) -> list[str]:
    """Schema check *plus* the acceptance floor; empty list = valid.

    A report that fails these is not a benchmark with bad numbers, it is
    a broken service: warm hits must be >= 100x faster than cold misses,
    every response digest-identical to the serial reference, and the
    cache actually exercised.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"report must be a dict, got {type(doc).__name__}"]
    for key, typ in _REQUIRED.items():
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif typ is float and isinstance(doc[key], int) and not isinstance(doc[key], bool):
            continue
        elif not isinstance(doc[key], typ):
            problems.append(f"{key!r} must be {typ.__name__}, got {type(doc[key]).__name__}")
    if problems:
        return problems
    if doc["schema"] != SERVICE_BENCH_SCHEMA:
        problems.append(f"schema {doc['schema']!r} != {SERVICE_BENCH_SCHEMA!r}")
    if doc["clients"] < 1:
        problems.append("clients must be positive")
    if doc["throughput_rps"] <= 0:
        problems.append("throughput_rps must be positive (sustained throughput)")
    if not doc["warm_ms_p50"] <= doc["warm_ms_p99"]:
        problems.append("warm_ms_p50 must be <= warm_ms_p99")
    if doc["warm_speedup"] < 100.0:
        problems.append(
            f"warm_speedup {doc['warm_speedup']:.1f} below the 100x acceptance floor"
        )
    if doc["digest_match_ratio"] != 1.0:
        problems.append(
            f"digest_match_ratio {doc['digest_match_ratio']!r} != 1.0 "
            "(service responses must be digest-identical to serial runs)"
        )
    if not doc["hit_ratio"] > 0.0:
        problems.append("hit_ratio must be nonzero (warm phase never hit the cache)")
    if doc["calibration_loop_ns"] <= 0:
        problems.append("calibration_loop_ns must be positive")
    if doc["t_end"] < doc["t_start"]:
        problems.append("t_end must be >= t_start (monotonic timestamps)")
    return problems


def format_service_report(doc: dict) -> str:
    """Human-readable summary of a service bench report."""
    return "\n".join(
        [
            f"repro.service bench  size={doc['size']}  clients={doc['clients']}  "
            f"tenants={doc['tenants']}  workers={doc['workers']}  "
            f"jobs={doc['distinct_jobs']}",
            f"  cold latency    {doc['cold_ms_mean']:.3f} ms mean  (all: "
            + ", ".join(f"{c:.3f}" for c in doc["cold_ms"])
            + ")",
            f"  warm latency    p50={doc['warm_ms_p50']:.3f} ms  "
            f"p99={doc['warm_ms_p99']:.3f} ms  mean={doc['warm_ms_mean']:.3f} ms",
            f"  warm speedup    {doc['warm_speedup']:.0f}x  (floor: 100x)",
            f"  throughput      {doc['throughput_rps']:.0f} req/s over "
            f"{doc['warm_wall_s']:.3f} s",
            f"  digest match    {doc['digest_match_ratio']:.3f}   "
            f"hit ratio {doc['hit_ratio']:.3f}   coalesced {doc.get('coalesced', 0)}",
            f"  calibration     {doc['calibration_loop_ns'] / 1e6:.1f} ms/spin",
        ]
    )


def write_service_report(doc: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_service_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
