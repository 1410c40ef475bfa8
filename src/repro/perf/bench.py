"""Wall-clock benchmark: the scenario behind ``BENCH_perf.json``.

The benchmark scenario is the full evaluation surface at one size preset:
all eight applications on the two headline datasets, each kernel app
under the three engine presets the paper's tables use (BSP-only apps run
their BSP implementation).  Graphs are prebuilt outside the timed region;
every repeat re-simulates every cell (:func:`~repro.perf.parallel.run_cells`
memoises nothing), while the process-wide build cache keeps graph
construction out of the loop.

Two throughput numbers are reported:

* ``cells_per_s`` — sweep cells completed per wall second (the number a
  developer feels);
* ``sim_ns_per_wall_ms`` — simulated nanoseconds advanced per wall
  millisecond (normalises for scenario composition).

Wall timings on shared machines are noisy, so the report keeps every
repeat, headlines the *best* one (minimum is the standard low-noise
estimator for deterministic workloads), and embeds a calibration score —
the wall time of a fixed pure-Python/numpy spin — so a later run on a
slower machine can normalise before comparing (see the gated regression
test in ``tests/test_perf.py``).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.perf.parallel import CellError, run_cells
from repro.service.jobs import RunSpec

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_PRESETS",
    "BENCH_DATASETS",
    "METRICS_CELLS",
    "bench_cells",
    "bench_metrics",
    "calibrate",
    "run_bench",
    "validate_report",
    "format_report",
    "write_report",
    "load_report",
]

BENCH_SCHEMA = "repro.perf/bench-v1"
BENCH_PRESETS = ("persist-warp", "persist-CTA", "discrete-CTA")
BENCH_DATASETS = ("roadNet-CA", "soc-LiveJournal1")

#: cells re-run (untimed) with a streaming MetricsSink when
#: ``run_bench(metrics=True)`` — one per engine preset, covering a
#: traversal, a data-centric and a speculative app
METRICS_CELLS = (
    ("bfs", "roadNet-CA", "persist-warp"),
    ("pagerank", "soc-LiveJournal1", "persist-CTA"),
    ("coloring", "roadNet-CA", "discrete-CTA"),
)


def bench_cells() -> list[RunSpec]:
    """The benchmark grid: 8 apps x presets x 2 datasets (44 cells)."""
    from repro.apps.common import app_names, get_adapter

    cells = []
    for app in app_names():
        adapter = get_adapter(app)
        if adapter.dynamic:
            # incremental variants run multi-epoch through replay_app
            # (benchmarks/bench_dynamic.py), not as single static cells
            continue
        kernel_app = adapter.make_kernel is not None
        impls = BENCH_PRESETS if kernel_app else ("BSP",)
        for impl in impls:
            for ds in BENCH_DATASETS:
                cells.append(RunSpec(app, ds, impl))
    return cells


def calibrate(loops: int = 400_000) -> float:
    """Machine-speed score: wall nanoseconds for a fixed spin workload.

    Mixes interpreter-bound work (the Python accumulation loop the
    simulator's hot path resembles) with a few numpy calls (the vector
    ops the apps lean on), so the score moves roughly like the benchmark
    itself when the machine speeds up or slows down.
    """
    arr = np.arange(4096, dtype=np.int64)
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 1023
    for _ in range(200):
        (arr * 2 + 1).sum()
    t1 = time.perf_counter()
    del acc
    return (t1 - t0) * 1e9


def run_bench(
    *,
    size: str = "small",
    repeats: int = 3,
    workers: int | None = None,
    pre_wall_s: float | None = None,
    metrics: bool = False,
    devices: int | None = None,
    partition: str | None = None,
) -> dict:
    """Run the benchmark scenario and return the report document.

    ``pre_wall_s`` optionally records the wall time of the identical
    scenario measured on the pre-optimization engine (same machine, same
    session), from which the headline ``speedup_vs_pre`` is derived.

    ``devices``/``partition`` run every engine cell on a simulated
    multi-device cluster (each cell's spec rebases its preset onto the
    distributed strategy) and are recorded in the report
    so ``python -m repro diff`` can tag a scaling A/B.

    ``metrics=True`` re-runs the :data:`METRICS_CELLS` subset *outside*
    the timed region with a streaming
    :class:`~repro.metrics.sink.MetricsSink` attached and embeds the
    resulting cell-keyed ``MetricsSummary`` documents under
    ``doc["metrics"]`` — so a wall-clock report also carries the
    simulated-time telemetry ``python -m repro diff`` can compare.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    from repro.graph.datasets import load_dataset

    cells = [
        replace(cell, size=size, devices=devices, partition=partition)
        for cell in bench_cells()
    ]
    # prebuild the graphs outside the timed region (build cache holds them)
    for ds in BENCH_DATASETS:
        load_dataset(ds, size)

    calib_ns = calibrate()
    t_start = time.time()
    walls: list[float] = []
    errors: list[str] = []
    sim_ns_total = 0.0
    for rep in range(repeats):
        t0 = time.perf_counter()
        results = run_cells(cells, workers=workers)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        if rep == 0:
            for res in results:
                if isinstance(res, CellError):
                    errors.append(str(res))
                else:
                    sim_ns_total += float(res.elapsed_ns)
    t_end = time.time()

    best = min(walls)
    doc = {
        "schema": BENCH_SCHEMA,
        "size": size,
        "devices": devices or 1,
        "partition": partition or "hash",
        "repeats": repeats,
        "workers": workers or 1,
        "cells": len(cells),
        "presets": list(BENCH_PRESETS),
        "datasets": list(BENCH_DATASETS),
        "t_start": t_start,
        "t_end": t_end,
        "wall_s": best,
        "wall_s_all": walls,
        "cells_per_s": len(cells) / best,
        "sim_ns_total": sim_ns_total,
        "sim_ns_per_wall_ms": sim_ns_total / (best * 1e3),
        "calibration_loop_ns": calib_ns,
        "errors": errors,
        "machine": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    if pre_wall_s is not None:
        doc["pre_wall_s"] = pre_wall_s
        doc["speedup_vs_pre"] = pre_wall_s / best
    if metrics:
        doc["metrics"] = bench_metrics(size=size)
    return doc


def bench_metrics(
    *,
    size: str = "small",
    cells: tuple[tuple[str, str, str], ...] = METRICS_CELLS,
) -> dict:
    """Cell-keyed ``MetricsSummary`` docs for the benchmark's metrics cells.

    Runs serially through a fresh :class:`~repro.harness.runner.Lab`
    (never inside the timed region — sink-attached runs take the
    engine's non-inlined path, which is the point of keeping the
    telemetry pass separate from the wall measurement).
    """
    from repro.harness.runner import Lab
    from repro.metrics.baseline import cell_key

    lab = Lab(size=size, metrics=True)
    out: dict[str, dict] = {}
    for app, dataset, config in cells:
        summary = lab.run(app, dataset, config).extra["metrics"]
        out[cell_key(summary["app"], summary["dataset"], summary["config"])] = summary
    return out


_REQUIRED = {
    "schema": str,
    "size": str,
    "repeats": int,
    "cells": int,
    "wall_s": float,
    "wall_s_all": list,
    "cells_per_s": float,
    "sim_ns_total": float,
    "sim_ns_per_wall_ms": float,
    "calibration_loop_ns": float,
    "t_start": float,
    "t_end": float,
    "errors": list,
    "machine": dict,
}


def validate_report(doc: dict) -> list[str]:
    """Schema + sanity check; returns a list of problems (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return [f"report must be a dict, got {type(doc).__name__}"]
    for key, typ in _REQUIRED.items():
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif typ is float and isinstance(doc[key], int) and not isinstance(doc[key], bool):
            continue  # ints are acceptable where floats are expected
        elif not isinstance(doc[key], typ):
            problems.append(f"{key!r} must be {typ.__name__}, got {type(doc[key]).__name__}")
    if problems:
        return problems
    if doc["schema"] != BENCH_SCHEMA:
        problems.append(f"schema {doc['schema']!r} != {BENCH_SCHEMA!r}")
    if doc["cells"] <= 0:
        problems.append("cells must be positive")
    if doc["wall_s"] <= 0:
        problems.append("wall_s must be positive")
    if doc["cells_per_s"] <= 0:
        problems.append("cells_per_s must be positive (nonzero throughput)")
    if doc["sim_ns_per_wall_ms"] <= 0:
        problems.append("sim_ns_per_wall_ms must be positive (nonzero throughput)")
    if doc["calibration_loop_ns"] <= 0:
        problems.append("calibration_loop_ns must be positive")
    if len(doc["wall_s_all"]) != doc["repeats"]:
        problems.append("wall_s_all length must equal repeats")
    if doc["wall_s_all"] and abs(doc["wall_s"] - min(doc["wall_s_all"])) > 1e-12:
        problems.append("wall_s must be the minimum of wall_s_all")
    if doc["t_end"] < doc["t_start"]:
        problems.append("t_end must be >= t_start (monotonic timestamps)")
    if doc["errors"]:
        problems.append(f"{len(doc['errors'])} cell error(s): {doc['errors'][:2]}")
    if "metrics" in doc:
        from repro.metrics.summary import validate_summary

        if not isinstance(doc["metrics"], dict) or not doc["metrics"]:
            problems.append("'metrics' must be a non-empty cell-keyed dict")
        else:
            for key, summary in sorted(doc["metrics"].items()):
                problems.extend(
                    f"metrics cell {key!r}: {p}" for p in validate_summary(summary)
                )
    return problems


def format_report(doc: dict) -> str:
    """Human-readable summary of a report document."""
    devices = doc.get("devices", 1)
    device_tag = (
        f"  devices={devices} partition={doc.get('partition', 'hash')}"
        if devices > 1
        else ""
    )
    lines = [
        f"repro.perf bench  size={doc['size']}  cells={doc['cells']}  "
        f"repeats={doc['repeats']}  workers={doc.get('workers', 1)}{device_tag}",
        f"  wall            {doc['wall_s']:.3f} s  (all: "
        + ", ".join(f"{w:.3f}" for w in doc["wall_s_all"])
        + ")",
        f"  cells/s         {doc['cells_per_s']:.3f}",
        f"  sim ns/wall ms  {doc['sim_ns_per_wall_ms']:.0f}",
        f"  calibration     {doc['calibration_loop_ns'] / 1e6:.1f} ms/spin",
    ]
    if "speedup_vs_pre" in doc:
        lines.append(
            f"  vs pre-engine   {doc['pre_wall_s']:.3f} s -> "
            f"{doc['speedup_vs_pre']:.2f}x speedup"
        )
    if "metrics" in doc:
        lines.append(f"  metrics cells   {', '.join(sorted(doc['metrics']))}")
    if doc["errors"]:
        lines.append(f"  ERRORS          {len(doc['errors'])}")
        lines.extend(f"    {e}" for e in doc["errors"][:5])
    return "\n".join(lines)


def write_report(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
