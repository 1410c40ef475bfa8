"""The ``sweep`` workload: the paper's evaluation grid through ``run_cells``.

Every pass runs the 44 cells of :func:`repro.perf.bench.bench_cells`
serially, in an order drawn from the workload seed, each through its own
``run_cells`` call (so a pass uses fresh Labs and each cell's wall time is
one latency sample).  A run measures a whole number of passes, at least
three (see :func:`~perfbench.common.pass_count`).  Every cell's ``result_digest`` and simulated counters must equal the
goldens committed in ``perfbench/goldens``.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import defaultdict
from pathlib import Path

from perfbench.common import (
    SETUP_REPEATS,
    Outcome,
    Paced,
    RunDiscarded,
    peak_rss_mb,
    pass_count,
    quantile,
    zero_layers,
)
from perfbench.layers import CALLBACK_BUCKETS, LayerClock, build_graphs, traced_cell

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
#: nominal wall seconds of one 44-cell pass at ``default`` on the reference machine
PASS_SECONDS = 14.0
#: end-to-end runs measure at least three passes: 132 latency samples, so
#: p90 has 13 beyond it, and each cell appears three times.  One pass moves
#: by 5-10% with the host's load; fewer passes left the cross-seed spread
#: of ops_per_s at 9-15%.
MIN_CELLS = 132

#: simulated counters pinned per cell next to the result digest
COUNTERS = (
    "total_tasks", "queue_pops", "empty_pops", "queue_items_pushed", "steals",
)


def golden_path(size: str) -> Path:
    return GOLDEN_DIR / f"sweep-{size}.json"


def cell_id(cell) -> str:
    return f"{cell.app}/{cell.dataset}/{cell.impl}"


def fingerprint(result) -> dict:
    """Digest plus simulated counters of one cell result."""
    from repro.service.jobs import result_digest

    doc = {"digest": result_digest(result)}
    for name in COUNTERS:
        doc[name] = result.extra.get(name)
    doc["trace_samples"] = len(result.trace.times)
    return doc


def write_goldens(size: str) -> Path:
    """Record every cell's fingerprint at ``size`` (run on a trusted commit)."""
    from repro.perf.bench import bench_cells
    from repro.perf.parallel import CellError, run_cells

    cells = bench_cells()
    doc = {}
    for cell, res in zip(cells, run_cells(cells, size=size, workers=1)):
        if isinstance(res, CellError):
            raise RuntimeError(f"cell {cell_id(cell)} failed: {res.kind}: {res.message}")
        doc[cell_id(cell)] = fingerprint(res)
    path = golden_path(size)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


class _Passes:
    """Untraced passes: paced cell times, failures and pass-level counts."""

    def __init__(self, cells, size: str, goldens: dict, rng: random.Random) -> None:
        self.cells, self.size, self.goldens, self.rng = cells, size, goldens, rng
        self.paced = Paced()
        #: per measured cell: simulated tasks, None for BSP cells
        self.tasks: list[int | None] = []
        self.failed = 0
        self.passes = 0
        self.digests: dict[str, str] = {}
        #: sums over the first pass (identical on every pass)
        self.first_pass: dict[str, float] = {}
        self.errors: list[str] = []

    def run(self, passes: int) -> None:
        from repro.perf.parallel import CellError, run_cells

        for _ in range(passes):
            order = list(self.cells)
            self.rng.shuffle(order)
            totals: dict[str, float] = defaultdict(float)
            for cell in order:
                [res] = self.paced.measure(
                    lambda: run_cells([cell], size=self.size, workers=1)
                )
                key = cell_id(cell)
                if isinstance(res, CellError):
                    self.tasks.append(None)
                    self.failed += 1
                    self.errors.append(f"{key}: {res.kind}: {res.message}")
                    continue
                self.tasks.append(res.extra.get("total_tasks"))
                got = fingerprint(res)
                if got != self.goldens.get(key):
                    self.failed += 1
                    self.errors.append(f"{key}: {got} != golden {self.goldens.get(key)}")
                self.digests[key] = got["digest"]
                for name in COUNTERS:
                    totals[name] += res.extra.get(name) or 0
                totals["trace_samples"] += got["trace_samples"]
                totals["elapsed_ns"] += float(res.elapsed_ns)
                totals["work_units"] += float(res.work_units)
            if not self.first_pass:
                self.first_pass = dict(totals)
            self.passes += 1

    @property
    def attempted(self) -> int:
        return len(self.tasks)

    def metrics(self) -> dict[str, float]:
        """Throughput and latency from the reference-speed cell times."""
        scaled = self.paced.scaled()
        engine = [(s, t) for s, t in zip(scaled, self.tasks) if t is not None]
        lat_ms = [s * 1e3 for s in scaled]
        return {
            "ops_per_s": len(scaled) / sum(scaled),
            "latency_ms_p50": quantile(lat_ms, 0.50),
            "latency_ms_p90": quantile(lat_ms, 0.90),
            "sim_tasks_per_s": sum(t for _, t in engine) / sum(s for s, _ in engine),
        }


def _traced_passes(cells, size, digests, rng, passes) -> tuple[LayerClock, float]:
    """Traced passes; every cell must reproduce its untraced digest.

    Returns the layer clock and the traced cells/s.
    """
    from repro.service.jobs import result_digest

    clock = LayerClock()
    paced = Paced()
    for _ in range(passes):
        order = list(cells)
        rng.shuffle(order)
        for cell in order:
            res = paced.measure(
                lambda: traced_cell(cell.app, cell.dataset, cell.impl, size, clock)
            )
            key = cell_id(cell)
            if result_digest(res) != digests.get(key):
                raise RunDiscarded(f"traced cell {key} changed its result digest")
    scaled = paced.scaled()
    return clock, len(scaled) / sum(scaled)


def run(*, seed: int, seconds: float, trace: bool, size: str, goldens: Path | None) -> Outcome:
    t0 = time.perf_counter()
    from repro.perf.bench import BENCH_DATASETS, bench_cells
    from repro.perf.parallel import run_cells  # noqa: F401  (timed import)
    from repro.service.jobs import result_digest  # noqa: F401  (timed import)

    import_s = time.perf_counter() - t0
    builds = Paced()
    for _ in range(SETUP_REPEATS):
        builds.measure(lambda: build_graphs(BENCH_DATASETS, size))
    build_s = statistics.median(builds.scaled())
    golden_doc = json.loads((goldens or golden_path(size)).read_text(encoding="utf-8"))
    cells = bench_cells()
    rng = random.Random(seed)

    untraced = _Passes(cells, size, golden_doc, rng)
    if trace:
        # half the work untraced (for the overhead ratio), half traced
        passes = pass_count(seconds / 2, PASS_SECONDS, len(cells), 1)
    else:
        passes = pass_count(seconds, PASS_SECONDS, len(cells), MIN_CELLS)
    untraced.run(passes)
    wall = sum(untraced.paced.walls)
    notes = [
        f"  {untraced.passes} pass(es) of {len(cells)} cells, "
        f"{untraced.attempted} cells in {wall:.2f} s wall",
        f"  latency samples    {untraced.attempted} cells",
        f"  failed_ratio       {untraced.failed / untraced.attempted:.4f} "
        f"({untraced.failed}/{untraced.attempted})",
        *(f"  FAILED {e}" for e in untraced.errors[:10]),
    ]
    e2e = untraced.metrics()
    if not trace:
        e2e["peak_rss_mb"] = peak_rss_mb()
        e2e["setup_s"] = import_s * builds.scale(0) + build_s
        return Outcome(untraced.attempted, untraced.failed, e2e, notes)

    if untraced.failed:
        # a traced breakdown of wrong results would be meaningless
        return Outcome(untraced.attempted, untraced.failed, {}, notes)
    clock, traced_ops = _traced_passes(cells, size, untraced.digests, rng, passes)
    per_pass = 1.0 / passes
    callbacks_ms = sum(clock.ms(b) for b in CALLBACK_BUCKETS) * per_pass
    run_policy_ms = clock.ms("run_policy") * per_pass
    self_ms = run_policy_ms - callbacks_ms
    if self_ms < 0:
        raise RunDiscarded("callback time exceeds run_policy time")
    counts = untraced.first_pass
    pops = counts["queue_pops"]
    metrics = zero_layers()
    metrics.update({
        "graph.build_ms": build_s * 1e3,
        "apps.make_kernel_ms": clock.ms("make_kernel") * per_pass,
        **{f"apps.{b}_ms": clock.ms(b) * per_pass for b in CALLBACK_BUCKETS},
        "apps.callback_calls": sum(clock.calls[b] for b in CALLBACK_BUCKETS) * per_pass,
        "core.run_policy_ms": run_policy_ms,
        "core.self_ms": self_ms,
        "core.host_ns_per_task": self_ms * 1e6 / counts["total_tasks"],
        "bsp.run_ms": clock.ms("bsp") * per_pass,
        "queueing.pops": pops,
        "queueing.empty_pops": counts["empty_pops"],
        "queueing.empty_pop_ratio": counts["empty_pops"] / pops if pops else 0.0,
        "queueing.items_pushed": counts["queue_items_pushed"],
        "queueing.steals": counts["steals"],
        "sim.tasks": counts["total_tasks"],
        "sim.elapsed_ns": counts["elapsed_ns"],
        "sim.work_units": counts["work_units"],
        "sim.trace_samples": counts["trace_samples"],
        "bench.latency_samples": untraced.attempted,
        "bench.trace_overhead": e2e["ops_per_s"] / traced_ops,
    })
    notes.append(f"  traced passes      {passes}")
    return Outcome(untraced.attempted, untraced.failed, metrics, notes)
