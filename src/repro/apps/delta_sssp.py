"""Delta-stepping SSSP over the bucketed work list.

The third point on the ordering spectrum the paper's Section 3.1 sketches:

* **ordered** (Dijkstra) — work-optimal, serial bottleneck;
* **unordered** (Bellman-Ford, :func:`repro.apps.sssp.run_bellman_ford`) —
  maximal parallelism, workload up to ``depth x |E|``;
* **delta-stepping** (this module) — bucket-synchronous middle ground: all
  vertices within the current ``delta``-wide distance bucket are relaxed in
  parallel, buckets execute in order.

Delta-stepping is inherently *bucket-synchronous*, so it runs on the BSP
timeline (one kernel per bucket sweep) with the bucketed work list from
:mod:`repro.queueing.priority` supplying the ordering structure.  Comparing
its workload against the paper-style speculative formulation
(:mod:`repro.apps.sssp`) quantifies how much ordering the relaxed-barrier
approach gives up — and how little it costs on the graphs studied.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import EMPTY_ITEMS, AppAdapter, AppResult, bsp_result, register_app
from repro.apps.sssp import UNREACHED, uniform_weights
from repro.bsp.engine import BspTimeline
from repro.graph.csr import Csr
from repro.queueing.priority import BucketedWorklist
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = ["run_delta_stepping", "suggest_delta"]


def suggest_delta(weights: np.ndarray) -> float:
    """The classic heuristic: delta ~ mean edge weight."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return 1.0
    return float(max(w.mean(), 1e-12))


def run_delta_stepping(
    graph: Csr,
    *,
    weights: np.ndarray | None = None,
    source: int = 0,
    delta: float | None = None,
    spec: GpuSpec = V100_SPEC,
    max_rounds: int | None = None,
) -> AppResult:
    """Bucket-synchronous delta-stepping SSSP.

    Each round drains the lowest non-empty bucket: pop all its vertices,
    relax their edges (one BSP kernel), and scatter improved neighbors back
    into buckets by tentative distance.  Vertices whose distance improved
    after they were popped re-enter a bucket, so each pop re-validates
    against the distance array (the standard lazy-deletion trick).
    """
    if weights is None:
        weights = uniform_weights(graph)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ValueError("weights must align with indices")
    if weights.size and weights.min() <= 0:
        raise ValueError("edge weights must be positive")
    n = graph.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range")
    if delta is None:
        delta = suggest_delta(weights)

    dist = np.full(n, UNREACHED)
    dist[source] = 0.0
    worklist = BucketedWorklist(delta, atomic_ns=spec.atomic_queue_ns)
    timeline = BspTimeline(spec=spec)
    worklist.push(np.asarray([source], dtype=np.int64), np.asarray([0.0]), timeline.now)
    rounds = 0
    limit = max_rounds if max_rounds is not None else 50 * n + 100

    while worklist:
        rounds += 1
        if rounds > limit:
            raise RuntimeError("delta-stepping exceeded its round bound")
        popped, t = worklist.pop(1 << 62, timeline.now)
        # lazy deletion: drop entries whose bucket no longer matches their
        # (possibly improved) distance — they re-entered a lower bucket
        current_bucket = worklist.cursor
        live = popped[
            (dist[popped] < UNREACHED)
            & ((dist[popped] / delta).astype(np.int64) % worklist.num_buckets == current_bucket)
        ]
        live = np.unique(live)
        if live.size == 0:
            continue
        pos, flat, _ = graph.segments(live)
        total = flat.size
        if total:
            nbrs = graph.indices[flat]
            cand = dist[live][pos] + weights[flat]
            before = dist[nbrs].copy()
            np.minimum.at(dist, nbrs, cand)
            improved = np.unique(nbrs[dist[nbrs] < before])
        else:
            improved = EMPTY_ITEMS
        timeline.kernel(
            frontier_size=int(live.size),
            edge_count=total,
            strategy="lbs",
            items_retired=int(live.size),
            work_units=float(total),
        )
        timeline.barrier()
        timeline.end_iteration()
        if improved.size:
            worklist.push(improved, dist[improved], timeline.now)

    # rounds also counts the pops that lazy deletion emptied (no kernel)
    return bsp_result(
        "sssp", f"delta-stepping(d={delta:.2g})", graph, timeline, dist,
        iterations=rounds, extra={"delta": delta},
    )


register_app(AppAdapter(
    name="delta-sssp",
    description="bucket-synchronous delta-stepping SSSP (BSP-only)",
    make_kernel=None,
    bsp=run_delta_stepping,
))
