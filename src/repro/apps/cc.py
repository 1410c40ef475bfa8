"""Connected components via min-label propagation (BSP and relaxed).

A fourth application on the Listing 1 pattern, demonstrating that the Atos
formulation generalises beyond the paper's three case studies.  Every
vertex starts labelled with its own id; processing a vertex pushes its
label to each neighbor with ``atomicMin``; at quiescence every vertex in a
(weakly, on symmetric graphs: fully) connected component carries the
component's minimum vertex id.

Like PageRank, label propagation is naturally unordered — any execution
order converges to the same fixed point — so relaxing the barrier costs no
correctness and no misspeculation repair.  Like BFS, out-of-order execution
can propagate a non-minimal label first and redo work later, so Table-4
style overwork is measurable.
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
    "AsyncCcKernel",
    "run_bsp",
    "reference_components",
]


class AsyncCcKernel:
    """Atos task kernel for asynchronous min-label propagation."""

    def __init__(self, graph: Csr) -> None:
        self.graph = graph
        self.labels = np.arange(graph.num_vertices, dtype=np.int64)
        self.edges_propagated = 0

    def initial_items(self) -> np.ndarray:
        return np.arange(self.graph.num_vertices, dtype=np.int64)

    work_estimate = degree_work

    def on_read(self, items: np.ndarray, t: float):
        g = self.graph
        if items.size == 1:
            v = items.item(0)
            ip = g.indptr
            start, end = ip.item(v), ip.item(v + 1)
            if start == end:
                return (EMPTY_ITEMS, EMPTY_ITEMS, 0)
            nbrs = g.indices[start:end]
            label = self.labels.item(v)
            keep = self.labels[nbrs] > label
            kept = nbrs[keep]
            # empty+fill: same result as np.full without its wrapper cost
            cand = np.empty(kept.size, dtype=np.int64)
            cand.fill(label)
            return (kept, cand, end - start)
        own = self.labels[items]
        pos, flat, _ = g.segments(items)
        if flat.size == 0:
            return (EMPTY_ITEMS, EMPTY_ITEMS, 0)
        nbrs = g.indices[flat]
        cand = own[pos]
        keep = cand < self.labels[nbrs]
        return (nbrs[keep], cand[keep], flat.size)

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        nbrs, cand, edge_work = payload
        self.edges_propagated += edge_work
        labels = self.labels
        if nbrs.size == 0:
            return CompletionResult(items_retired=int(items.size), work_units=float(edge_work))
        if nbrs.size == 1:
            # scalar fast path: warp tasks on low-degree meshes usually
            # carry a single surviving candidate after the read-time filter
            nb0 = nbrs.item(0)
            cd0 = cand.item(0)
            if cd0 < labels.item(nb0):
                labels[nb0] = cd0
                return CompletionResult(
                    new_items=nbrs, items_retired=int(items.size), work_units=float(edge_work)
                )
            return CompletionResult(items_retired=int(items.size), work_units=float(edge_work))
        still = cand < labels[nbrs]
        nb, cd = nbrs[still], cand[still]
        if nb.size > 1:
            order = np.lexsort((cd, nb))
            nb, cd = nb[order], cd[order]
            first = np.concatenate(([True], nb[1:] != nb[:-1]))
            nb, cd = nb[first], cd[first]
        # nb is duplicate-free here (single survivor or deduped-by-first),
        # and ``still`` guarantees cd < labels[nb], so minimum.at reduces to
        # a plain scatter of the candidates — identical final labels
        labels[nb] = cd
        return CompletionResult(
            new_items=nb, items_retired=int(items.size), work_units=float(edge_work)
        )

    def final_check(self, t: float) -> np.ndarray:
        return EMPTY_ITEMS


def run_bsp(
    graph: Csr,
    *,
    spec: GpuSpec = V100_SPEC,
    sink=None,
    max_iterations: int | None = None,
) -> AppResult:
    """BSP min-label propagation: one frontier sweep per kernel."""
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64)
    timeline = BspTimeline(spec=spec, sink=sink)
    limit = max_iterations if max_iterations is not None else n + 1

    while frontier.size:
        if timeline.iterations >= limit:
            raise RuntimeError("label propagation failed to converge")
        pos, flat, _ = graph.segments(frontier)
        nbrs = graph.indices[flat]
        edge_count = int(nbrs.size)
        if edge_count:
            cand = labels[frontier][pos]
            before = labels[nbrs].copy()
            np.minimum.at(labels, nbrs, cand)
            improved = np.unique(nbrs[labels[nbrs] < before])
        else:
            improved = EMPTY_ITEMS
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=edge_count,
            strategy="lbs",
            items_retired=int(frontier.size),
            work_units=float(edge_count),
        )
        timeline.barrier()
        timeline.end_iteration()
        frontier = improved

    return bsp_result(
        "cc", "BSP", graph, timeline, labels,
        extra={"num_components": int(np.unique(labels).size)},
    )


register_app(AppAdapter(
    name="cc",
    description="connected components via min-label propagation",
    make_kernel=lambda graph: AsyncCcKernel(graph),
    output=lambda k: k.labels,
    work_units=lambda k: k.edges_propagated,
    extra=lambda k: {"num_components": int(np.unique(k.labels).size)},
    bsp=run_bsp,
))


def reference_components(graph: Csr) -> np.ndarray:
    """Min-id component labels via iterative DFS (validation oracle).

    Treats the graph as undirected (follows out-edges both ways via the
    symmetric assumption; for directed inputs this computes the weakly
    connected components of the symmetrized graph).
    """
    sym = graph if graph.is_symmetric() else graph.symmetrize()
    n = sym.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if labels[v] >= 0:
            continue
        stack = [v]
        labels[v] = v
        while stack:
            u = stack.pop()
            for w in sym.neighbors(u):
                if labels[w] < 0:
                    labels[w] = v
                    stack.append(int(w))
    return labels
