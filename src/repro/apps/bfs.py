"""Breadth-first search: BSP Dijkstra BFS vs. speculative (relaxed) BFS.

Paper Section 5.1.  The BSP version (Algorithm 1) advances one strict level
per kernel, so every vertex is first reached along a shortest path — it is
exactly Dijkstra on a unit-weight graph.  The speculative version
(Algorithm 2) lets asynchronous workers pop vertices of *different* levels
concurrently; a vertex may be settled through a sub-optimal path first and
re-processed when a shorter path arrives later.  The extra traversals are
the overwork of Table 4; because every improvement re-enqueues the vertex,
the final depths are still exact (a label-correcting argument — tested
against a reference BFS).

Asynchrony discipline (see :mod:`repro.core.kernel`): the popped vertex's
own depth and its neighbors' depths are **read at the task's read
instant**; the ``atomicMin`` results are **written at completion time**,
and only improvements that still hold at the write instant are pushed (the
atomic's return value decides the push, exactly as in the paper's
Listing 4).
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (
    EMPTY_ITEMS,
    AppAdapter,
    AppResult,
    bsp_result,
    degree_work,
    register_app,
)
from repro.bsp.engine import BspTimeline
from repro.core.kernel import CompletionResult
from repro.graph.csr import Csr
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = [
    "UNREACHED",
    "SpeculativeBfsKernel",
    "run_bsp",
    "reference_depths",
    "validate_depths",
]

#: depth value for unreached vertices (int64 "infinity")
UNREACHED = np.iinfo(np.int64).max


class SpeculativeBfsKernel:
    """Atos task kernel for relaxed-barrier BFS (paper Algorithm 2)."""

    def __init__(self, graph: Csr, source: int) -> None:
        if not (0 <= source < graph.num_vertices):
            raise ValueError(f"source {source} out of range")
        self.graph = graph
        self.source = source
        self.depth = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
        self.depth[source] = 0
        #: edge traversals performed (Table 4 currency)
        self.edges_traversed = 0

    def initial_items(self) -> np.ndarray:
        return np.asarray([self.source], dtype=np.int64)

    work_estimate = degree_work

    def on_read(self, items: np.ndarray, t: float):
        g = self.graph
        if items.size == 1:
            # scalar fast path for fetch_size=1 warp tasks (the hot loop)
            v = int(items[0])
            start, end = int(g.indptr[v]), int(g.indptr[v + 1])
            if start == end:
                return (EMPTY_ITEMS, EMPTY_ITEMS, 0)
            nbrs = g.indices[start:end]
            cand_depth = int(self.depth[v]) + 1
            keep = self.depth[nbrs] > cand_depth
            kept = nbrs[keep]
            # empty+fill: same result as np.full without its wrapper cost
            cand = np.empty(kept.size, dtype=np.int64)
            cand.fill(cand_depth)
            return (kept, cand, end - start)
        # read-instant loads: own depths and neighbor depths
        own_depth = self.depth[items]
        pos, flat, _ = g.segments(items)
        if flat.size:
            nbrs = g.indices[flat]
            # candidate depth for each edge = depth(src at read) + 1
            cand = own_depth[pos] + 1
            keep = cand < self.depth[nbrs]  # speculative improvement as of the read
            return (nbrs[keep], cand[keep], flat.size)
        return (EMPTY_ITEMS, EMPTY_ITEMS, 0)

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        nbrs, cand, edge_work = payload
        self.edges_traversed += edge_work
        if nbrs.size == 0:
            return CompletionResult(
                new_items=EMPTY_ITEMS,
                items_retired=int(items.size),
                work_units=float(edge_work),
            )
        # atomicMin at write time: push only edges that still improve now.
        still = cand < self.depth[nbrs]
        nb, cd = nbrs[still], cand[still]
        if nb.size > 1:
            # The task's own atomicMins serialize against each other in
            # hardware: when several fetched sources improve the same
            # neighbor, only the first atomic observes ``old > new`` and
            # pushes — collapse duplicates to the best candidate.
            order = np.lexsort((cd, nb))
            nb, cd = nb[order], cd[order]
            first = np.concatenate(([True], nb[1:] != nb[:-1]))
            nb, cd = nb[first], cd[first]
        np.minimum.at(self.depth, nb, cd)
        return CompletionResult(
            new_items=nb,
            items_retired=int(items.size),
            work_units=float(edge_work),
        )

    def final_check(self, t: float) -> np.ndarray:
        return EMPTY_ITEMS  # BFS quiesces exactly when the queue drains


def run_bsp(
    graph: Csr,
    *,
    source: int = 0,
    spec: GpuSpec = V100_SPEC,
    strategy: str = "lbs",
    direction_optimized: bool = False,
    do_alpha: float = 0.05,
) -> AppResult:
    """Gunrock-style BSP BFS (paper Algorithm 1): one level per kernel.

    Each iteration runs an advance kernel (load-balancing search over the
    frontier's edges) and a filter kernel (dedup into the next frontier),
    with a barrier after each — Gunrock's standard two-kernel structure.

    ``direction_optimized=True`` enables Beamer-style push/pull switching
    (the optimization production Gunrock ships for BFS): when the frontier's
    outgoing edge count exceeds ``do_alpha`` of the graph's edges, the
    iteration runs *bottom-up* — every unvisited vertex scans its incoming
    neighbors and stops at the first parent found — which touches far fewer
    edges on the hub-heavy middle levels of scale-free graphs.
    """
    if direction_optimized:
        return _run_bsp_direction_optimized(
            graph, source=source, spec=spec, strategy=strategy, alpha=do_alpha
        )
    n = graph.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range")
    depth = np.full(n, UNREACHED, dtype=np.int64)
    depth[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    timeline = BspTimeline(spec=spec)

    while frontier.size:
        _, nbrs = graph.gather_neighbors(frontier)
        edge_count = int(nbrs.size)
        level = int(depth[frontier[0]])  # strict level synchrony
        # advance kernel: relax all frontier edges
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=edge_count,
            strategy=strategy,
            items_retired=int(frontier.size),
            work_units=float(edge_count),
        )
        timeline.barrier()
        if nbrs.size:
            improved = depth[nbrs] > level + 1
            fresh = np.unique(nbrs[improved])
            depth[fresh] = level + 1
        else:
            fresh = EMPTY_ITEMS
        # filter kernel: compact the output frontier (Gunrock's filter is
        # fused with idempotent dedup; it streams the new frontier, not
        # the full edge list)
        timeline.kernel(
            frontier_size=int(fresh.size),
            edge_count=0,
            strategy="none",
        )
        timeline.barrier()
        timeline.end_iteration()
        frontier = fresh

    return bsp_result("bfs", "BSP", graph, timeline, depth)


def _run_bsp_direction_optimized(
    graph: Csr,
    *,
    source: int,
    spec: GpuSpec,
    strategy: str,
    alpha: float,
) -> AppResult:
    """Push/pull BFS (Beamer's direction optimization).

    Push iterations are identical to the standard implementation.  A pull
    iteration visits every *unvisited* vertex and scans its in-neighbors
    until it finds one at the current level; the scan's early exit is
    modeled by charging only the edges actually examined.  In-neighbors are
    read through the CSR out-lists, which is exact on the symmetric graphs
    this repository evaluates (use ``graph.transpose()`` first for a
    directed input).
    """
    n = graph.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range")
    if not (0 < alpha < 1):
        raise ValueError("do_alpha must be in (0, 1)")
    depth = np.full(n, UNREACHED, dtype=np.int64)
    depth[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    timeline = BspTimeline(spec=spec)
    level = 0
    pull_iterations = 0

    while frontier.size:
        frontier_edges = graph.frontier_edges(frontier)
        use_pull = frontier_edges > alpha * graph.num_edges
        if use_pull:
            pull_iterations += 1
            unvisited = np.flatnonzero(depth == UNREACHED)
            fresh_list = []
            edges_scanned = 0
            for v in unvisited:
                nbrs = graph.neighbors(int(v))
                # early-exit scan for a parent at the current level
                hits = np.flatnonzero(depth[nbrs] == level)
                if hits.size:
                    edges_scanned += int(hits[0]) + 1
                    fresh_list.append(int(v))
                else:
                    edges_scanned += int(nbrs.size)
            fresh = np.asarray(fresh_list, dtype=np.int64)
            edge_count = edges_scanned
        else:
            _, nbrs = graph.gather_neighbors(frontier)
            edge_count = int(nbrs.size)
            if nbrs.size:
                improved = depth[nbrs] > level + 1
                fresh = np.unique(nbrs[improved])
            else:
                fresh = EMPTY_ITEMS
        if fresh.size:
            depth[fresh] = level + 1
        timeline.kernel(
            frontier_size=int(frontier.size if not use_pull else (depth == UNREACHED).sum() + fresh.size),
            edge_count=edge_count,
            strategy=strategy,
            items_retired=int(frontier.size),
            work_units=float(edge_count),
        )
        timeline.barrier()
        timeline.kernel(frontier_size=int(fresh.size), edge_count=0, strategy="none")
        timeline.barrier()
        timeline.end_iteration()
        frontier = fresh
        level += 1

    return bsp_result(
        "bfs", "BSP-DO", graph, timeline, depth, extra={"pull_iterations": pull_iterations}
    )


register_app(AppAdapter(
    name="bfs",
    description="breadth-first search (speculative vs. level-synchronous)",
    make_kernel=lambda graph, source=0: SpeculativeBfsKernel(graph, source),
    output=lambda k: k.depth,
    work_units=lambda k: k.edges_traversed,
    bsp=run_bsp,
))


def reference_depths(graph: Csr, source: int = 0) -> np.ndarray:
    """Exact BFS depths via the metrics-layer reference implementation."""
    from repro.graph.metrics import bfs_levels

    levels = bfs_levels(graph, source)
    out = np.where(levels < 0, UNREACHED, levels)
    return out.astype(np.int64)


def validate_depths(graph: Csr, depth: np.ndarray, source: int = 0) -> bool:
    """True when ``depth`` equals the exact BFS distance array."""
    return bool(np.array_equal(depth, reference_depths(graph, source)))
