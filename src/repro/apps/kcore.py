"""k-core decomposition by iterative peeling (BSP and relaxed).

A fifth Listing-1 application: compute each vertex's *core number* — the
largest ``k`` such that the vertex belongs to a subgraph where every vertex
has degree ≥ ``k``.  The standard parallel algorithm peels: repeatedly
remove vertices of effective degree < ``k``, incrementing ``k`` when the
peel converges.

The BSP version peels one frontier per kernel.  The relaxed version keeps
the peeling *within one k-level* asynchronous — removing a vertex
decrements its neighbors' effective degrees at completion time and pushes
any neighbor that falls below the threshold; the k-level increments happen
at quiescence via the ``final_check`` hook, so the whole decomposition runs
in a single persistent kernel.  Removal order within a level is a
don't-care (like PageRank), so relaxation is safe — and tested against an
exact reference.
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
    "AsyncKcoreKernel",
    "run_bsp",
    "reference_core_numbers",
    "validate_core_numbers",
]


class AsyncKcoreKernel:
    """Single-persistent-kernel k-core peeling.

    State: ``eff_degree`` (remaining degree), ``core`` (assigned core
    number, -1 while alive), ``k`` (current peel level).  A queue item is a
    vertex to peel at the current level.
    """

    def __init__(self, graph: Csr) -> None:
        if not graph.is_symmetric():
            raise ValueError("k-core requires a symmetric (undirected) graph")
        self.graph = graph
        self.eff_degree = graph.out_degrees().astype(np.int64)
        self.core = np.full(graph.num_vertices, -1, dtype=np.int64)
        self.k = 0
        self.edges_touched = 0
        self.in_queue = np.zeros(graph.num_vertices, dtype=bool)

    def _below_threshold(self) -> np.ndarray:
        alive = self.core < 0
        return np.flatnonzero(alive & (self.eff_degree < self.k) & ~self.in_queue)

    def initial_items(self) -> np.ndarray:
        # k starts at 0: isolated vertices peel immediately
        seeds = self._below_threshold()
        self.in_queue[seeds] = True
        return seeds.astype(np.int64)

    work_estimate = degree_work

    def on_read(self, items: np.ndarray, t: float):
        # claim: mark peeled now (atomic CAS on core) so a vertex peels
        # once; np.unique also collapses any duplicate queue entries, which
        # would otherwise double-decrement neighbor degrees
        fresh = np.unique(items[self.core[items] < 0])
        self.core[fresh] = max(self.k - 1, 0)
        return fresh

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        fresh = payload
        self.in_queue[items] = False
        if fresh.size == 0:
            return CompletionResult(items_retired=int(items.size))
        g = self.graph
        nbrs = g.indices[g.segments(fresh)[1]]
        self.edges_touched += int(nbrs.size)
        if nbrs.size:
            np.subtract.at(self.eff_degree, nbrs, 1)
        # Incremental form of _below_threshold(): every alive sub-threshold
        # vertex is in_queue at entry (initial_items / final_check / prior
        # completions flagged it; in_queue only clears for vertices already
        # peeled dead, and k only advances inside final_check's full
        # rescan), so only the just-decremented vertices can newly satisfy
        # the predicate.  np.unique returns the same ascending order the
        # full flatnonzero scan produced.
        cand = np.unique(nbrs)
        ready = cand[
            (self.core[cand] < 0) & (self.eff_degree[cand] < self.k) & ~self.in_queue[cand]
        ]
        self.in_queue[ready] = True
        return CompletionResult(
            new_items=ready.astype(np.int64),
            items_retired=int(items.size),
            work_units=float(nbrs.size),
        )

    def final_check(self, t: float) -> np.ndarray:
        """Quiescence: advance k until a peelable vertex appears or all
        vertices are assigned."""
        while (self.core < 0).any():
            ready = self._below_threshold()
            if ready.size:
                self.in_queue[ready] = True
                return ready.astype(np.int64)
            self.k += 1
        return EMPTY_ITEMS


def run_bsp(
    graph: Csr,
    *,
    spec: GpuSpec = V100_SPEC,
    max_iterations: int | None = None,
) -> AppResult:
    """BSP peeling: one frontier of sub-threshold vertices per kernel."""
    if not graph.is_symmetric():
        raise ValueError("k-core requires a symmetric (undirected) graph")
    n = graph.num_vertices
    eff = graph.out_degrees().astype(np.int64)
    core = np.full(n, -1, dtype=np.int64)
    k = 0
    timeline = BspTimeline(spec=spec)
    iterations = 0
    limit = max_iterations if max_iterations is not None else 10 * n + 100

    while (core < 0).any():
        iterations += 1
        if iterations > limit:
            raise RuntimeError("k-core peeling failed to converge")
        frontier = np.flatnonzero((core < 0) & (eff < k))
        if frontier.size == 0:
            k += 1
            continue
        core[frontier] = max(k - 1, 0)
        _, nbrs = graph.gather_neighbors(frontier)
        if nbrs.size:
            np.subtract.at(eff, nbrs, 1)
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=int(nbrs.size),
            strategy="lbs",
            items_retired=int(frontier.size),
            work_units=float(nbrs.size),
        )
        timeline.barrier()
        timeline.end_iteration()

    # iterations also counts the passes that only raise k (no kernel)
    return bsp_result(
        "kcore", "BSP", graph, timeline, core, iterations=iterations,
        extra={"max_core": int(core.max()) if core.size else 0},
    )


register_app(AppAdapter(
    name="kcore",
    description="k-core decomposition by asynchronous peeling",
    make_kernel=lambda graph: AsyncKcoreKernel(graph),
    output=lambda k: k.core,
    work_units=lambda k: k.edges_touched,
    extra=lambda k: {"max_core": int(k.core.max()) if k.core.size else 0},
    bsp=run_bsp,
))


def reference_core_numbers(graph: Csr) -> np.ndarray:
    """Exact core numbers by sequential min-degree peeling."""
    if not graph.is_symmetric():
        raise ValueError("k-core requires a symmetric (undirected) graph")
    n = graph.num_vertices
    eff = graph.out_degrees().astype(np.int64)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    k = 0
    for _ in range(n):
        candidates = np.flatnonzero(alive)
        if candidates.size == 0:
            break
        v = candidates[np.argmin(eff[candidates])]
        k = max(k, int(eff[v]))
        core[v] = k
        alive[v] = False
        nbrs = graph.neighbors(v)
        live_nbrs = nbrs[alive[nbrs]]
        np.subtract.at(eff, live_nbrs, 1)
    return core


def validate_core_numbers(graph: Csr, core: np.ndarray) -> bool:
    """True when ``core`` equals the exact decomposition."""
    return bool(np.array_equal(core, reference_core_numbers(graph)))
