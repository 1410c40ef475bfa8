"""Single-source shortest paths: speculative relaxation vs. Bellman-Ford.

Not one of the paper's three case studies, but the comparison its Section
3.1 related-work discussion turns on: Hassaan et al. compare work-efficient
ordered (Dijkstra) against *unordered* Bellman-Ford, whose workload is
``diameter x |E|``; the paper argues its relaxed-barrier speculation stays
"within a small constant factor" of the ordered workload.  This module lets
the claim be measured:

* :func:`run_bellman_ford` — the BSP unordered baseline: every iteration
  relaxes every edge of the current frontier until a fixed point;
* :class:`SpeculativeSsspKernel` — the Atos formulation: exactly the
  speculative BFS kernel generalised to weighted edges (atomicMin on
  tentative distances, push on improvement).

Weights live in a parallel array aligned with ``Csr.indices`` — the same
layout a weighted CSR uses on the GPU.
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
    "uniform_weights",
    "random_weights",
    "SpeculativeSsspKernel",
    "run_bellman_ford",
    "reference_distances",
]

UNREACHED = np.inf


def uniform_weights(graph: Csr, value: float = 1.0) -> np.ndarray:
    """Every edge weighted ``value`` (SSSP degenerates to scaled BFS)."""
    if value <= 0:
        raise ValueError("edge weights must be positive")
    return np.full(graph.num_edges, float(value))


def random_weights(graph: Csr, *, low: float = 1.0, high: float = 10.0, seed: int = 0) -> np.ndarray:
    """Uniform random positive weights aligned with ``graph.indices``.

    Symmetric graphs get *asymmetric* weights under this helper (each
    direction is drawn independently), which is fine for SSSP.
    """
    if not (0 < low <= high):
        raise ValueError("need 0 < low <= high")
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=graph.num_edges)


class SpeculativeSsspKernel:
    """Relaxed-barrier SSSP: speculative Dijkstra with a shared queue."""

    def __init__(self, graph: Csr, weights: np.ndarray, source: int) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (graph.num_edges,):
            raise ValueError(
                f"weights must align with indices: expected {(graph.num_edges,)}, "
                f"got {weights.shape}"
            )
        if weights.size and weights.min() <= 0:
            raise ValueError("edge weights must be positive")
        if not (0 <= source < graph.num_vertices):
            raise ValueError(f"source {source} out of range")
        self.graph = graph
        self.weights = weights
        self.source = source
        self.dist = np.full(graph.num_vertices, UNREACHED)
        self.dist[source] = 0.0
        self.edges_relaxed = 0

    def initial_items(self) -> np.ndarray:
        return np.asarray([self.source], dtype=np.int64)

    work_estimate = degree_work

    def on_read(self, items: np.ndarray, t: float):
        g = self.graph
        if items.size == 1:
            # scalar fast path for fetch_size=1 warp tasks: through segments()
            # the sssp persist-warp cells take 1.4-1.9x as long
            # (docs/performance.md, "Segmented multi-item paths")
            v = items.item(0)
            ip = g.indptr
            start, end = ip.item(v), ip.item(v + 1)
            if start == end:
                return (EMPTY_ITEMS, np.empty(0), 0)
            nbrs = g.indices[start:end]
            cand = self.dist.item(v) + self.weights[start:end]
            keep = cand < self.dist[nbrs]
            return (nbrs[keep], cand[keep], end - start)
        own = self.dist[items]
        pos, flat, _ = g.segments(items)
        if flat.size == 0:
            return (EMPTY_ITEMS, np.empty(0), 0)
        nbrs = g.indices[flat]
        cand = own[pos] + self.weights[flat]
        keep = cand < self.dist[nbrs]
        return (nbrs[keep], cand[keep], flat.size)

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        nbrs, cand, edge_work = payload
        self.edges_relaxed += edge_work
        if nbrs.size == 0:
            return CompletionResult(items_retired=int(items.size), work_units=float(edge_work))
        still = cand < self.dist[nbrs]
        nb, cd = nbrs[still], cand[still]
        if nb.size > 1:
            order = np.lexsort((cd, nb))
            nb, cd = nb[order], cd[order]
            first = np.concatenate(([True], nb[1:] != nb[:-1]))
            nb, cd = nb[first], cd[first]
        np.minimum.at(self.dist, nb, cd)
        return CompletionResult(
            new_items=nb, items_retired=int(items.size), work_units=float(edge_work)
        )

    def final_check(self, t: float) -> np.ndarray:
        return EMPTY_ITEMS


def _make_kernel(graph: Csr, weights=None, source: int = 0) -> SpeculativeSsspKernel:
    if weights is None:
        weights = uniform_weights(graph)
    return SpeculativeSsspKernel(graph, weights, source)


def run_bellman_ford(
    graph: Csr,
    *,
    weights: np.ndarray | None = None,
    source: int = 0,
    spec: GpuSpec = V100_SPEC,
    sink=None,
    max_iterations: int | None = None,
) -> AppResult:
    """Frontier Bellman-Ford: the unordered BSP baseline.

    Each iteration relaxes every out-edge of the vertices improved in the
    previous iteration.  Workload approaches ``depth x |E|`` on graphs
    whose shortest-path tree is deep — the inefficiency the paper's
    speculative formulation avoids.
    """
    if weights is None:
        weights = uniform_weights(graph)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (graph.num_edges,):
        raise ValueError("weights must align with indices")
    n = graph.num_vertices
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range")
    dist = np.full(n, UNREACHED)
    dist[source] = 0.0
    frontier = np.asarray([source], dtype=np.int64)
    timeline = BspTimeline(spec=spec, sink=sink)
    limit = max_iterations if max_iterations is not None else n + 1

    while frontier.size:
        if timeline.iterations >= limit:
            raise RuntimeError("Bellman-Ford exceeded its iteration bound")
        pos, flat, _ = graph.segments(frontier)
        total = flat.size
        if total:
            nbrs = graph.indices[flat]
            cand = dist[frontier][pos] + weights[flat]
            # apply all relaxations, then recompute the improved set
            before = dist[nbrs].copy()
            np.minimum.at(dist, nbrs, cand)
            improved = np.unique(nbrs[dist[nbrs] < before])
        else:
            improved = EMPTY_ITEMS
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=total,
            strategy="lbs",
            items_retired=int(frontier.size),
            work_units=float(total),
        )
        timeline.barrier()
        timeline.end_iteration()
        frontier = improved

    return bsp_result("sssp", "bellman-ford", graph, timeline, dist)


register_app(AppAdapter(
    name="sssp",
    description="single-source shortest paths (speculative vs. Bellman-Ford)",
    make_kernel=_make_kernel,
    output=lambda k: k.dist,
    work_units=lambda k: k.edges_relaxed,
    bsp=run_bellman_ford,
))


def reference_distances(
    graph: Csr, weights: np.ndarray, source: int = 0
) -> np.ndarray:
    """Exact distances via a binary-heap Dijkstra (validation oracle)."""
    import heapq

    n = graph.num_vertices
    dist = np.full(n, UNREACHED)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        start, end = graph.indptr[v], graph.indptr[v + 1]
        for idx in range(start, end):
            w = int(graph.indices[idx])
            nd = d + weights[idx]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist
