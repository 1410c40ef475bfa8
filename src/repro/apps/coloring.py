"""Graph coloring: BSP vs. asynchronous speculative greedy coloring.

Paper Section 5.3.  Both versions run the speculative greedy algorithm of
Gebremedhin & Manne: assign each vertex the smallest color not used by its
neighbors *as currently visible*, then detect conflicts (two adjacent
vertices that picked the same color) and recolor.  The speculation is in
the assignment: it may read outdated neighbor colors.

* The **BSP** implementation (paper Algorithm 5) alternates an assignment
  kernel and a conflict-detection kernel over a double-buffered frontier.
  Within the assignment kernel, vertices in the same TWC sub-bucket read
  one shared snapshot (they execute simultaneously); the three degree
  sub-buckets serialize against each other — this models the paper's note
  that Gunrock-style bucketed load balancing reduces intra-kernel
  conflicts.
* The **Atos** implementation (paper Algorithm 6) fuses both kernels into
  an uberkernel: a queue item tagged positive means "assign a color", a
  negative tag means "check for conflicts".  We encode ``+ (v+1)`` /
  ``- (v+1)`` so vertex 0 is representable.

Conflict tie-break: when adjacent vertices ``u < v`` share a color, ``v``
recolors and ``u`` keeps its color.  (The paper's pseudocode re-adds every
conflicting vertex; production implementations — including
Gebremedhin-Manne — break the tie by vertex id, which guarantees
termination.  The count of recolor operations is unaffected in the pair
case.)

Why the kernel strategies diverge so strongly here (Section 6.3): the
conflict rate is set by how many *id-adjacent* vertices observe each
other's stale colors.  Under the discrete strategy, a whole launch wave
reads one snapshot in vertex-id order, so consecutive ids — likely
neighbors on crawl-ordered datasets — collide en masse.  Under the
persistent strategy the scheduler's read-instant serialization shrinks the
stale window to the outstanding-load lead, so almost every assignment sees
its neighbors' committed colors.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (
    EMPTY_ITEMS,
    AppAdapter,
    AppResult,
    bsp_result,
    register_app,
)
from repro.bsp.engine import BspTimeline
from repro.bsp.loadbalance import twc_buckets
from repro.core.config import AtosConfig
from repro.core.kernel import CompletionResult
from repro.graph.csr import Csr
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = [
    "UNCOLORED",
    "AsyncColoringKernel",
    "run_bsp",
    "count_conflicts",
]

UNCOLORED = -1

#: shared empty payload slots for the scalar fast path (never mutated)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


def _min_available_color(neighbor_colors: np.ndarray, degree: int) -> int:
    """Smallest non-negative color absent from ``neighbor_colors``.

    Greedy coloring never needs a color above ``degree``, so colors past
    that bound cannot force a higher choice and are ignored.
    """
    valid = neighbor_colors[(neighbor_colors >= 0) & (neighbor_colors <= degree)]
    if valid.size == 0:
        return 0
    present = np.zeros(degree + 2, dtype=bool)
    present[valid] = True
    return int(np.argmin(present))


def _min_colors(graph: Csr, colors: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """:func:`_min_available_color` of every vertex of ``vs`` against one
    snapshot of ``colors``, from one segmented gather.

    After dropping colors outside ``[0, degree]`` and duplicates, a
    vertex's ascending neighbor colors satisfy ``u_j >= j``, so its
    smallest absent color is the number of ``j`` with ``u_j == j``.
    """
    pos, flat, degrees = graph.segments(vs)
    seen = colors[graph.indices[flat]]
    width = int(degrees.max()) + 1 if degrees.size else 1
    valid = (seen >= 0) & (seen <= degrees[pos])
    keys = np.unique(pos[valid] * width + seen[valid])
    lane, color = np.divmod(keys, width)
    rank = np.arange(keys.size) - np.searchsorted(lane, lane)
    return np.bincount(lane[color == rank], minlength=vs.size)


def _conflicts(graph: Csr, colors: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Whether a *lower-id* neighbor holds the color of each vertex of
    ``vs`` (the deterministic tie-break), from one segmented gather."""
    pos, flat, _ = graph.segments(vs)
    nbrs = graph.indices[flat]
    src = vs[pos]
    conflicted = np.zeros(vs.size, dtype=bool)
    conflicted[pos[(colors[nbrs] == colors[src]) & (nbrs < src)]] = True
    return conflicted


def count_conflicts(graph: Csr, colors: np.ndarray) -> int:
    """Number of directed edges whose endpoints share a color."""
    edges = graph.edge_array()
    same = colors[edges[:, 0]] == colors[edges[:, 1]]
    return int(same.sum())


class AsyncColoringKernel:
    """Atos uberkernel for speculative greedy coloring (Algorithm 6)."""

    def __init__(self, graph: Csr) -> None:
        self.graph = graph
        self.colors = np.full(graph.num_vertices, UNCOLORED, dtype=np.int64)
        #: color-assignment operations performed (Table 4 currency)
        self.assignments = 0
        self.conflict_checks = 0

    # -- tag encoding ---------------------------------------------------
    @staticmethod
    def assign_tag(vertices: np.ndarray) -> np.ndarray:
        return np.asarray(vertices, dtype=np.int64) + 1

    @staticmethod
    def check_tag(vertices: np.ndarray) -> np.ndarray:
        return -(np.asarray(vertices, dtype=np.int64) + 1)

    @staticmethod
    def decode(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(assign_vertices, check_vertices)`` from a mixed item batch."""
        assign = items[items > 0] - 1
        check = -items[items < 0] - 1
        return assign, check

    # -- kernel protocol --------------------------------------------------
    def initial_items(self) -> np.ndarray:
        return self.assign_tag(np.arange(self.graph.num_vertices, dtype=np.int64))

    def work_estimate(self, items: np.ndarray) -> tuple[int, int]:
        if items.size == 1:
            tag = items.item(0)
            v = (tag if tag > 0 else -tag) - 1
            ip = self.graph.indptr
            deg = ip.item(v + 1) - ip.item(v)
            return deg, deg
        vs = np.abs(items) - 1
        degrees = self.graph.indptr[vs + 1] - self.graph.indptr[vs]
        return int(degrees.sum()), int(degrees.max()) if degrees.size else 0

    def on_read(self, items: np.ndarray, t: float):
        g = self.graph
        if items.size == 1:
            # scalar fast path: decode the single tag without the three
            # boolean-mask passes of decode() (fetch_size=1 dominates)
            tag = items.item(0)
            ip = g.indptr
            if tag > 0:
                v = tag - 1
                nbrs = g.indices[ip.item(v) : ip.item(v + 1)]
                chosen = np.empty(1, dtype=np.int64)
                chosen[0] = _min_available_color(self.colors[nbrs], nbrs.size)
                return (items - 1, chosen, EMPTY_ITEMS, _EMPTY_BOOL)
            v = -tag - 1
            nbrs = g.indices[ip.item(v) : ip.item(v + 1)]
            c = self.colors.item(v)
            conflicted = np.empty(1, dtype=bool)
            conflicted[0] = bool(((self.colors[nbrs] == c) & (nbrs < v)).any())
            return (EMPTY_ITEMS, _EMPTY_I64, -items - 1, conflicted)
        # All lanes of this task read one snapshot of the colors
        # (simultaneous lanes of one worker), so intra-task neighbors can
        # pick clashing colors — the fetch-size overwork effect.
        assign_vs, check_vs = self.decode(items)
        chosen = _min_colors(g, self.colors, assign_vs)
        conflicted = _conflicts(g, self.colors, check_vs)
        return (assign_vs, chosen, check_vs, conflicted)

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        assign_vs, chosen, check_vs, conflicted = payload
        if items.size == 1:
            # scalar fast path mirroring the generic branch below exactly
            if assign_vs.size:
                self.colors[assign_vs] = chosen
                self.assignments += 1
                return CompletionResult(
                    new_items=-(assign_vs + 1), items_retired=1, work_units=1.0
                )
            self.conflict_checks += 1
            if conflicted[0]:
                return CompletionResult(
                    new_items=check_vs + 1, items_retired=1, work_units=0.0
                )
            return CompletionResult(items_retired=1, work_units=0.0)
        pushes = []
        if assign_vs.size:
            self.colors[assign_vs] = chosen
            self.assignments += assign_vs.size
            pushes.append(self.check_tag(assign_vs))
        if check_vs.size:
            self.conflict_checks += check_vs.size
            bad = check_vs[conflicted]
            if bad.size:
                pushes.append(self.assign_tag(bad))
        new_items = np.concatenate(pushes) if pushes else EMPTY_ITEMS
        return CompletionResult(
            new_items=new_items,
            items_retired=int(items.size),
            work_units=float(assign_vs.size),
        )

    def final_check(self, t: float) -> np.ndarray:
        """Quiescence safety net: rescan for conflicts missed by stale
        check tasks (a check that read before its neighbor's commit).  The
        recolor passes it generates are counted like any other work."""
        edges = self.graph.edge_array()
        u, v = edges[:, 0], edges[:, 1]
        bad = (self.colors[u] == self.colors[v]) & (u < v)
        if not bad.any():
            return EMPTY_ITEMS
        # recolor the higher endpoint of each conflicting pair
        return self.assign_tag(np.unique(v[bad]))


def _tune_config(config: AtosConfig) -> AtosConfig:
    """Apply the paper's Section 6.3 coloring resource budgets.

    72 registers for the persistent uberkernel vs. 42 for the discrete one,
    and 46 KB of shared memory for CTA-sized workers.  A hybrid kernel must
    compile the persistent queue loop, so it carries the persistent budget.
    """
    regs = 72 if (config.is_persistent or config.is_hybrid) else 42
    smem = 46 * 1024 if config.is_cta_worker else 0
    return config.with_overrides(registers_per_thread=regs, shared_mem_per_cta=smem)


def run_bsp(
    graph: Csr,
    *,
    spec: GpuSpec = V100_SPEC,
    sink=None,
    max_iterations: int = 10_000,
) -> AppResult:
    """BSP speculative greedy coloring (paper Algorithm 5).

    Per outer iteration: an assignment kernel (TWC-bucketed; the three
    degree sub-buckets serialize, vertices within a sub-bucket share a
    snapshot) and a conflict-detection kernel, double-buffered frontiers,
    global barrier after each kernel.
    """
    n = graph.num_vertices
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    frontier = np.arange(n, dtype=np.int64)
    timeline = BspTimeline(spec=spec, sink=sink)

    while frontier.size:
        if timeline.iterations >= max_iterations:
            raise RuntimeError("BSP coloring failed to converge")
        edge_count = graph.frontier_edges(frontier)
        # kernel 1: assignment, sub-bucket by degree class (buckets
        # serialize against each other), processed in simultaneous waves —
        # items within a wave share one snapshot, successive waves see
        # earlier writes (memory-system coherence across launch waves)
        buckets = twc_buckets(graph, frontier)
        wave = max(1, spec.bsp_wave_items)
        for bucket in (buckets["thread"], buckets["warp"], buckets["cta"]):
            for lo in range(0, bucket.size, wave):
                chunk = bucket[lo : lo + wave]
                colors[chunk] = _min_colors(graph, colors, chunk)
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=edge_count,
            strategy="twc",
            items_retired=int(frontier.size),
            work_units=float(frontier.size),
        )
        timeline.barrier()
        # kernel 2: conflict detection over the same frontier
        conflicted = _conflicts(graph, colors, frontier)
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=edge_count,
            strategy="twc",
        )
        timeline.barrier()
        timeline.end_iteration()
        frontier = frontier[conflicted]

    return bsp_result(
        "coloring", "BSP", graph, timeline, colors,
        extra={"num_colors": int(colors.max()) + 1},
    )


register_app(AppAdapter(
    name="coloring",
    description="speculative greedy coloring (uberkernel vs. BSP rounds)",
    make_kernel=lambda graph: AsyncColoringKernel(graph),
    output=lambda k: k.colors,
    work_units=lambda k: k.assignments,
    extra=lambda k: {
        "conflict_checks": k.conflict_checks,
        "num_colors": int(k.colors.max()) + 1,
    },
    bsp=run_bsp,
    tune_config=_tune_config,
))
