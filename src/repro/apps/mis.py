"""Maximal independent set (lexicographically-first) — BSP and relaxed.

A sixth Listing-1 application in the *speculative correction* family
(like graph coloring): compute the lexicographically-first maximal
independent set, defined by the sequential rule

    v ∈ MIS  ⇔  no neighbor u < v has u ∈ MIS.

The dependency structure is a DAG (only smaller ids influence a vertex),
so chaotic re-evaluation converges to the unique fixed point: a vertex
evaluates speculatively from its neighbors' *current* statuses, and when
its own status flips it pushes its larger neighbors for re-evaluation —
exactly the paper's "commit, then repair" speculation style (Section 3.1),
with the repair expressed as re-enqueued work.
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
    "AsyncMisKernel",
    "run_bsp",
    "reference_mis",
]

OUT = 0
IN = 1


def _decide(graph: Csr, status: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Every vertex's status by the lexicographic rule, read from one
    snapshot of ``status`` through one segmented gather: OUT when a smaller
    neighbor is IN, else IN."""
    pos, flat, _ = graph.segments(vertices)
    nbrs = graph.indices[flat]
    decided = np.full(vertices.size, IN, dtype=np.int8)
    decided[pos[(nbrs < vertices[pos]) & (status[nbrs] == IN)]] = OUT
    return decided


class AsyncMisKernel:
    """Chaotic-iteration kernel for the lexicographic MIS."""

    def __init__(self, graph: Csr) -> None:
        self.graph = graph
        self.status = np.zeros(graph.num_vertices, dtype=np.int8)
        self.evaluations = 0
        self.in_queue = np.ones(graph.num_vertices, dtype=bool)

    def initial_items(self) -> np.ndarray:
        return np.arange(self.graph.num_vertices, dtype=np.int64)

    work_estimate = degree_work

    def _evaluate(self, v: int) -> int:
        g = self.graph
        ip = g.indptr
        nbrs = g.indices[ip.item(v) : ip.item(v + 1)]
        smaller = nbrs[nbrs < v]
        # status holds only OUT=0 / IN=1, so truthiness == (== IN)
        return OUT if self.status[smaller].any() else IN

    def on_read(self, items: np.ndarray, t: float):
        self.in_queue[items] = False
        if items.size == 1:
            decided = np.empty(1, dtype=np.int8)
            decided[0] = self._evaluate(items.item(0))
            return decided
        return _decide(self.graph, self.status, items)

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        decided = payload
        if items.size == 1:
            # scalar fast path (fetch_size=1 dominates the hot loop)
            self.evaluations += 1
            v = items.item(0)
            d = decided.item(0)
            if self.status.item(v) == d:
                return CompletionResult(items_retired=1, work_units=1.0)
            self.status[v] = d
            g = self.graph
            ip = g.indptr
            nbrs = g.indices[ip.item(v) : ip.item(v + 1)]
            bigger = nbrs[nbrs > v]
            fresh = bigger[~self.in_queue[bigger]]
            if fresh.size:
                self.in_queue[fresh] = True
                return CompletionResult(
                    new_items=fresh.astype(np.int64), items_retired=1, work_units=1.0
                )
            return CompletionResult(items_retired=1, work_units=1.0)
        self.evaluations += int(items.size)
        changed = items[self.status[items] != decided]
        self.status[items] = decided
        if changed.size == 0:
            return CompletionResult(items_retired=int(items.size), work_units=float(items.size))
        # a flipped vertex invalidates its larger neighbors' decisions.
        # Walking ``changed`` in order, the first vertex to reach a neighbor
        # not yet queued pushes it (with every copy in its own list); later
        # vertices see it queued.
        g = self.graph
        pos, flat, _ = g.segments(changed)
        nbrs = g.indices[flat]
        hit = (nbrs > changed[pos]) & ~self.in_queue[nbrs]
        pos, nbrs = pos[hit], nbrs[hit]
        _, first, inverse = np.unique(nbrs, return_index=True, return_inverse=True)
        fresh = nbrs[pos == pos[first][inverse]]
        self.in_queue[fresh] = True
        return CompletionResult(
            new_items=fresh,
            items_retired=int(items.size),
            work_units=float(items.size),
        )

    def final_check(self, t: float) -> np.ndarray:
        """Safety net: re-evaluate any vertex whose status is inconsistent
        (one pass over the edge array; ascending vertex order)."""
        vertices = np.arange(self.graph.num_vertices, dtype=np.int64)
        bad = np.flatnonzero(self.status != _decide(self.graph, self.status, vertices))
        if bad.size == 0:
            return EMPTY_ITEMS
        self.in_queue[bad] = True
        return bad


def run_bsp(
    graph: Csr,
    *,
    spec: GpuSpec = V100_SPEC,
    sink=None,
    max_iterations: int | None = None,
) -> AppResult:
    """BSP chaotic iteration: re-evaluate a frontier per kernel."""
    n = graph.num_vertices
    status = np.zeros(n, dtype=np.int8)
    frontier = np.arange(n, dtype=np.int64)
    timeline = BspTimeline(spec=spec, sink=sink)
    limit = max_iterations if max_iterations is not None else n + 2

    while frontier.size:
        if timeline.iterations >= limit:
            raise RuntimeError("MIS iteration failed to converge")
        decided = _decide(graph, status, frontier)
        changed = frontier[status[frontier] != decided]
        status[frontier] = decided
        edge_count = graph.frontier_edges(frontier)
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=edge_count,
            strategy="lbs",
            items_retired=int(frontier.size),
            work_units=float(frontier.size),
        )
        timeline.barrier()
        timeline.end_iteration()
        if changed.size == 0:
            break
        pos, flat, _ = graph.segments(changed)
        nbrs = graph.indices[flat]
        frontier = np.unique(nbrs[nbrs > changed[pos]])

    return bsp_result(
        "mis", "BSP", graph, timeline, status.astype(np.int64),
        extra={"mis_size": int(status.sum())},
    )


register_app(AppAdapter(
    name="mis",
    description="lexicographically-first maximal independent set",
    make_kernel=lambda graph: AsyncMisKernel(graph),
    output=lambda k: k.status.astype(np.int64),
    work_units=lambda k: k.evaluations,
    extra=lambda k: {"mis_size": int(k.status.sum())},
    bsp=run_bsp,
))


def reference_mis(graph: Csr) -> np.ndarray:
    """The lexicographically-first MIS by the sequential greedy rule."""
    n = graph.num_vertices
    status = np.zeros(n, dtype=np.int64)
    for v in range(n):
        nbrs = graph.neighbors(v)
        smaller = nbrs[nbrs < v]
        status[v] = IN if not (status[smaller] == IN).any() else OUT
    return status
