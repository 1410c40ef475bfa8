"""PageRank: BSP push PageRank vs. asynchronous (relaxed-barrier) PageRank.

Paper Section 5.2.  Both versions use the *push* (delta/residual)
formulation: every vertex carries a ``rank`` and a ``residue``; processing a
vertex folds its residue into its rank and pushes ``lambda * residue /
out_degree`` to each out-neighbor's residue.  Convergence: all residues
below ``epsilon``.

PageRank is *naturally unordered* (Dijkstra's don't-care non-determinism):
relaxing the barrier produces no misspeculation, and — as the paper finds —
often **less** work than BSP, because residue accumulates across pushes and
an asynchronously-popped hub vertex drains a larger accumulated residue in
one traversal of its edge list (Table 4 ratios below 1).

Formulation note: we use the standard delta-PageRank initialisation
(``rank = 0``, ``residue = 1 - lambda``), whose fixed point is ``n`` times
the usual sum-to-one PageRank vector.  The paper's Algorithm 3 pseudocode
scales its init differently but runs the identical kernel body; the
scheduling behaviour (what the paper studies) is unaffected, and this
version is directly checkable against a power-iteration reference.

Asynchrony discipline: the ``atomicExch`` that claims a vertex's residue is
a single atomic read-modify-write, so it executes at **pop time** (two
concurrent pops of the same vertex cannot double-claim).  The pushes to
neighbors land at **completion time**, and the ``Check_Size`` reservation
scan (Algorithm 4) also runs at completion.
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
from repro.core.kernel import CompletionResult
from repro.graph.csr import Csr
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = [
    "AsyncPageRankKernel",
    "run_bsp",
    "reference_ranks",
    "max_rank_error",
    "DEFAULT_LAMBDA",
    "DEFAULT_EPSILON",
]

DEFAULT_LAMBDA = 0.85
DEFAULT_EPSILON = 1e-4


class AsyncPageRankKernel:
    """Atos task kernel for asynchronous PageRank (paper Algorithm 4)."""

    #: whether residues can be negative.  Static residues never are, so the
    #: reservation scans compare the residue itself against
    #: ``scan_threshold``; the incremental subclass, whose edits can
    #: withdraw mass, sets it and compares ``|residue|``.  A class constant
    #: rather than a method: the contiguous scan runs once per completion.
    _signed = False

    def __init__(
        self,
        graph: Csr,
        *,
        lam: float = DEFAULT_LAMBDA,
        epsilon: float = DEFAULT_EPSILON,
        check_size: int = 64,
    ) -> None:
        if not (0.0 < lam < 1.0):
            raise ValueError("lambda must be in (0, 1)")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if check_size <= 0:
            raise ValueError("check_size must be positive")
        self.graph = graph
        self.lam = lam
        self.epsilon = epsilon
        self.check_size = check_size
        n = graph.num_vertices
        self.rank = np.zeros(n, dtype=np.float64)
        self.residue = np.full(n, 1.0 - lam, dtype=np.float64)
        self.out_deg = graph.out_degrees()
        #: round-robin cursor of the global check counter (Algorithm 4)
        self.check_cursor = 0
        self.edges_traversed = 0
        # In-worklist guard.  The paper's pseudocode omits it, but at our
        # scaled-down vertex counts the check counter wraps every handful of
        # tasks and would flood the queue with duplicates of the same dirty
        # vertex; production asynchronous PageRank implementations (e.g.
        # Groute) carry exactly this flag.  Stored as a per-vertex scan
        # threshold rather than a bool (repro.perf): ``epsilon`` while the
        # vertex is outside the worklist, ``+inf`` while queued, so the
        # reservation scan's two-step ``residue > eps & ~in_queue`` filter
        # collapses to one elementwise compare with identical decisions
        # (residues are finite, so ``residue > inf`` is exactly ``False``).
        self.scan_threshold = np.full(n, np.inf, dtype=np.float64)
        self._n = n
        self._check_offsets = np.arange(check_size, dtype=np.int64)
        # memoised reservation windows (repro.perf): the modular scan
        # ``unique((start + offsets) % n)`` only ever takes n/gcd(check_size,n)
        # distinct values of ``start``, so each sorted window is computed
        # once analytically and reused read-only (see _window)
        self._windows: dict[int, np.ndarray] = {}
        #: hoisted per-call constants and a reusable window-mask buffer
        self._scan_cost = max(1, check_size // 8)
        self._mask_buf = np.empty(check_size, dtype=bool)
        # True when every CSR row is strictly increasing — then a single
        # vertex's neighbor list is duplicate-free and the scalar-path
        # scatter-add can use fancy ``+=`` instead of np.add.at (identical
        # floats: exactly one addition per neighbor either way)
        self._rows_strict = self._check_rows_strict(graph)

    @staticmethod
    def _check_rows_strict(graph: Csr) -> bool:
        """Whether every neighbor list is strictly increasing (O(E), once)."""
        ind = graph.indices
        if ind.size < 2:
            return True
        increasing = ind[1:] > ind[:-1]
        row_start = np.zeros(ind.size, dtype=bool)
        starts = graph.indptr[1:-1]
        row_start[starts[starts < ind.size]] = True
        return bool(np.all(increasing | row_start[1:]))

    def initial_items(self) -> np.ndarray:
        return np.arange(self.graph.num_vertices, dtype=np.int64)

    def work_estimate(self, items: np.ndarray) -> tuple[int, int]:
        # The reservation scan reads check_size consecutive residues —
        # fully coalesced, so it costs roughly one edge-equivalent
        # transaction per 8 scanned values (precomputed in __init__).
        scan_cost = self._scan_cost
        if items.size == 1:
            deg = self.out_deg.item(items.item(0))
            return deg + scan_cost, deg
        degrees = self.graph.indptr[items + 1] - self.graph.indptr[items]
        max_deg = int(degrees.max()) if degrees.size else 0
        return int(degrees.sum()) + scan_cost, max_deg

    def on_read(self, items: np.ndarray, t: float):
        g = self.graph
        if items.size == 1:
            # Scalar fast path: fetch_size=1 warp tasks dominate the hot
            # loop (hundreds of thousands per run); skip the vectorised
            # machinery's fixed per-call overhead.
            v = items.item(0)
            residue = self.residue
            res1 = residue.item(v)
            residue[v] = 0.0
            self.rank[v] += res1
            self.scan_threshold[v] = self.epsilon
            ip = g.indptr
            start, end = ip.item(v), ip.item(v + 1)
            deg = end - start
            if res1 != 0.0 and deg:  # any claimed mass propagates
                nbrs = g.indices[start:end]
                # scalar contribution: ``np.add.at`` broadcasts it over the
                # neighbor list exactly as the former np.full array did
                return (nbrs, self.lam * res1 / deg, deg)
            return (EMPTY_ITEMS, np.empty(0, dtype=np.float64), 0)
        # atomicExch at the read instant: claim residues, zero them, fold
        # them into the ranks (all one atomic RMW per vertex).  A duplicate
        # queue entry behaves like hardware: the first exchange claims the
        # residue, later copies observe zero — so per-copy residues are
        # zeroed for all occurrences after an item's first.
        res = self.residue[items].copy()
        if items.size > 1:
            order = np.argsort(items, kind="stable")
            sorted_items = items[order]
            later_copy = np.concatenate(([False], sorted_items[1:] == sorted_items[:-1]))
            if later_copy.any():
                dup_positions = order[later_copy]
                res[dup_positions] = 0.0
        self.residue[items] = 0.0
        np.add.at(self.rank, items, res)
        self.scan_threshold[items] = self.epsilon
        # only vertices with claimed residue and outgoing edges push
        active = (res != 0.0) & (self.out_deg[items] > 0)
        pos, flat, degrees = g.segments(items[active])
        if flat.size:
            contrib = (self.lam * res[active] / degrees)[pos]
            return (g.indices[flat], contrib, flat.size)
        return (EMPTY_ITEMS, np.empty(0, dtype=np.float64), 0)

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        nbrs, contrib, edge_work = payload
        self.edges_traversed += edge_work
        residue = self.residue
        if nbrs.size:
            if type(contrib) is float and self._rows_strict:
                # scalar payload = one source vertex's duplicate-free
                # neighbor list: fancy += performs the same one addition
                # per neighbor as np.add.at, minus its per-element cost
                residue[nbrs] += contrib
            else:
                np.add.at(residue, nbrs, contrib)
        # Check_Size reservation: scan the next window of vertex ids and
        # re-enqueue any whose residue exceeds epsilon (paper Algorithm 4).
        # ``dirty & ~in_queue`` is one elementwise compare against the
        # per-vertex scan_threshold (epsilon when poppable, +inf when queued).
        n = self._n
        thresh = self.scan_threshold
        start = self.check_cursor
        stop = start + self.check_size
        self.check_cursor = stop % n
        if stop <= n:
            # contiguous window: slice views instead of fancy indexing (the
            # common case — one call per completed task); the mask buffer is
            # exactly check_size wide, the width of every contiguous window
            scanned = residue[start:stop]
            if self._signed:
                scanned = np.abs(scanned)
            mask = np.greater(scanned, thresh[start:stop], out=self._mask_buf)
            dirty = mask.nonzero()[0]
            if dirty.size:
                dirty += start
                thresh[dirty] = np.inf
        else:
            # When check_size exceeds |V| the modular window wraps and would
            # list a vertex twice; the threshold filter reads the guard
            # *before* setting it, so duplicates would both pass and the
            # queue would accumulate copies (and the exchange would double
            # residue mass).  _window dedups and sorts analytically.
            window = self._window(start, n)
            scanned = residue[window]
            if self._signed:
                scanned = np.abs(scanned)
            dirty = window[scanned > thresh[window]]
            thresh[dirty] = np.inf
        return CompletionResult(
            new_items=dirty,
            items_retired=int(items.size),
            work_units=float(edge_work),
        )

    def _window(self, start: int, n: int) -> np.ndarray:
        """Sorted deduplicated reservation window starting at ``start``.

        Equals ``np.unique((start + self._check_offsets) % n)``: a run of
        ``check_size`` consecutive ids mod ``n`` covers all of ``[0, n)``
        when ``check_size >= n`` and is otherwise duplicate-free, so the
        sorted result is one or two plain ranges — no hashing or sorting.
        This is the single hottest line of the simulator (one call per
        completed task); windows are memoised read-only per cursor value.
        """
        cached = self._windows.get(start)
        if cached is not None:
            return cached
        cs = self.check_size
        if cs >= n:
            window = np.arange(n, dtype=np.int64)
        elif start + cs <= n:
            window = np.arange(start, start + cs, dtype=np.int64)
        else:  # wraps past n: [0, start+cs-n) then [start, n)
            window = np.concatenate(
                (
                    np.arange(start + cs - n, dtype=np.int64),
                    np.arange(start, n, dtype=np.int64),
                )
            )
        if len(self._windows) < 4096:  # bound memo growth on huge graphs
            window.setflags(write=False)
            self._windows[start] = window
        return window

    def generation_check(self, t: float) -> np.ndarray:
        """f2 sweep at the end of a discrete generation: workers that fail
        to pop scan the residue array for dirty vertices (paper Listing 3's
        f2 slot).  Without it, dirty vertices discovered late dribble
        across hundreds of near-empty generations."""
        return self.final_check(t)

    def final_check(self, t: float) -> np.ndarray:
        """Quiescence rescan: the whole residue array, once."""
        scanned = np.abs(self.residue) if self._signed else self.residue
        dirty = np.flatnonzero(scanned > self.scan_threshold)
        self.scan_threshold[dirty] = np.inf
        return dirty.astype(np.int64)


def run_bsp(
    graph: Csr,
    *,
    lam: float = DEFAULT_LAMBDA,
    epsilon: float = DEFAULT_EPSILON,
    spec: GpuSpec = V100_SPEC,
    sink=None,
    strategy: str = "lbs",
    max_iterations: int = 10_000,
) -> AppResult:
    """BSP push PageRank (paper Algorithm 3): two kernels per iteration.

    Kernel 1 drains the residues of the frontier and pushes to neighbors;
    kernel 2 scans all vertices and builds the next frontier from residues
    above epsilon.  Global barriers separate the kernels.
    """
    n = graph.num_vertices
    rank = np.zeros(n, dtype=np.float64)
    residue = np.full(n, 1.0 - lam, dtype=np.float64)
    out_deg = graph.out_degrees()
    frontier = np.arange(n, dtype=np.int64)
    timeline = BspTimeline(spec=spec, sink=sink)

    while frontier.size:
        if timeline.iterations >= max_iterations:
            raise RuntimeError("BSP PageRank failed to converge")
        res = residue[frontier].copy()
        residue[frontier] = 0.0
        rank[frontier] += res
        degrees = out_deg[frontier]
        active = (res > 0.0) & (degrees > 0)
        act = frontier[active]
        edge_count = int(degrees[active].sum())
        if edge_count:
            _, nbrs = graph.gather_neighbors(act)
            contrib_per_src = lam * res[active] / degrees[active]
            contrib = np.repeat(contrib_per_src, degrees[active])
            np.add.at(residue, nbrs, contrib)
        # kernel 1: push residues along frontier edges
        timeline.kernel(
            frontier_size=int(frontier.size),
            edge_count=edge_count,
            strategy=strategy,
            items_retired=int(frontier.size),
            work_units=float(edge_count),
        )
        timeline.barrier()
        # kernel 2: full scan for the next frontier (reads every residue,
        # prefix-sums, and writes the compacted frontier — three passes)
        timeline.kernel(frontier_size=n, edge_count=2 * n, strategy="none")
        timeline.barrier()
        timeline.end_iteration()
        frontier = np.flatnonzero(residue > epsilon).astype(np.int64)

    return bsp_result(
        "pagerank", "BSP", graph, timeline, rank,
        extra={"residue_left": float(residue.max())},
    )


register_app(AppAdapter(
    name="pagerank",
    description="push PageRank (asynchronous residue vs. BSP iterations)",
    make_kernel=lambda graph, lam=DEFAULT_LAMBDA, epsilon=DEFAULT_EPSILON,
    check_size=64: AsyncPageRankKernel(
        graph, lam=lam, epsilon=epsilon, check_size=check_size
    ),
    output=lambda k: k.rank,
    work_units=lambda k: k.edges_traversed,
    extra=lambda k: {"residue_left": float(k.residue.max())},
    bsp=run_bsp,
))


def reference_ranks(
    graph: Csr, *, lam: float = DEFAULT_LAMBDA, tol: float = 1e-12, max_iter: int = 2000
) -> np.ndarray:
    """Power-iteration fixed point of the delta-PageRank formulation.

    Solves ``p = (1 - lam) * 1 + lam * A^T D^{-1} p`` (the vector our push
    implementations converge to; it equals ``n`` times the sum-to-one
    PageRank on graphs without dangling vertices).
    """
    n = graph.num_vertices
    out_deg = graph.out_degrees().astype(np.float64)
    safe_deg = np.maximum(out_deg, 1.0)
    p = np.full(n, 1.0 - lam, dtype=np.float64)
    edges = graph.edge_array()
    src, dst = edges[:, 0], edges[:, 1]
    for _ in range(max_iter):
        contrib = np.zeros(n, dtype=np.float64)
        np.add.at(contrib, dst, lam * p[src] / safe_deg[src])
        new_p = (1.0 - lam) + contrib
        if np.abs(new_p - p).max() < tol:
            return new_p
        p = new_p
    return p


def max_rank_error(graph: Csr, rank: np.ndarray, *, lam: float = DEFAULT_LAMBDA) -> float:
    """Max absolute deviation of ``rank`` from the power-iteration reference."""
    ref = reference_ranks(graph, lam=lam)
    return float(np.abs(rank - ref).max())
