"""Incremental BFS, CC and PageRank over a mutating graph.

The static kernels answer "solve this graph"; the incremental variants
here answer "the graph just changed — repair the answer".  Each subclass
keeps its parent's execution semantics bit-for-bit (the same ``on_read``
/ ``on_complete`` bodies drive the same label-correcting convergence)
and adds the :meth:`rebase` hook :func:`repro.apps.common.replay_app`
calls between epochs: given the new CSR snapshot and the *effective*
edge changes (:class:`~repro.graph.delta.AppliedBatch`), ``rebase``
invalidates exactly the state the edits could have corrupted and stages
a repair worklist — which the next ``initial_items()`` returns — so the
engine converges from the previous fixpoint instead of recomputing.

Why each rebase is sound (the differential harness then proves it):

* **BFS** — a deleted edge ``(u, v)`` only matters if it certified
  ``v``'s depth (``depth[v] == depth[u] + 1``).  The invalid region is
  the closure of such victims over *new-graph* edges that chain the
  certification (``depth[y] == depth[x] + 1``); every vertex outside the
  closure keeps some entirely-surviving shortest path (induction on
  depth: a vertex whose surviving shortest parents all sit in the
  closure joins the closure; one whose shortest-parent edges were all
  deleted is itself a victim).  Closure members reset to ``UNREACHED``;
  seeds are the still-reached frontier pointing *into* the closure plus
  the sources of inserted edges — the label-correcting kernel re-pushes
  every improved vertex, so repairs cascade.
* **CC** — labels carry no distance structure, so deletions are repaired
  component-locally: every component containing a deleted endpoint is
  reset to singleton labels and fully re-seeded (its min-label fixpoint
  is recomputed from scratch *inside* the component, which is the only
  place its labels could have depended on the deleted edges — on the
  symmetric graphs CC targets, no edge leaves a component).  Inserted
  edges can only merge components: seeding both endpoints lets the
  smaller label flood the other component.
* **PageRank** — push PageRank maintains
  ``residue = (1-λ)·1 + λ·AᵀD⁻¹·rank − rank`` as an exact algebraic
  invariant.  A topology change perturbs only the columns of sources
  whose out-edges changed, so ``rebase`` restores the invariant directly:
  for each such source ``u`` it withdraws ``λ·rank[u]/deg_old`` from the
  old neighbors and deposits ``λ·rank[u]/deg_new`` on the new ones.
  Withdrawals make residues *signed*, which the static kernel's
  ``residue > 0`` claims would strand — the overrides below claim and
  scan on ``|residue|`` instead (``residue != 0`` to claim,
  ``|residue| > threshold`` to re-enqueue), converging to the new
  fixpoint with two-sided residual ``|r| ≤ ε``.

The adapters register as ``bfs-inc`` / ``cc-inc`` / ``pagerank-inc``
with ``dynamic=True``, so static enumeration surfaces (the bench matrix,
all-apps oracle sweeps) skip them.  :func:`repro.apps.common.replay_app`
is the differential edit-replay harness: one kernel, one sink, one
digest across every epoch, with the per-epoch output validated against
the from-scratch oracle on the materialized snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.apps.bfs import UNREACHED, SpeculativeBfsKernel
from repro.apps.cc import AsyncCcKernel
from repro.apps.common import EMPTY_ITEMS, AppAdapter, register_app
from repro.apps.pagerank import DEFAULT_EPSILON, DEFAULT_LAMBDA, AsyncPageRankKernel
from repro.graph.csr import Csr
from repro.graph.delta import AppliedBatch

__all__ = [
    "IncrementalBfsKernel",
    "IncrementalCcKernel",
    "IncrementalPageRankKernel",
]


# ---------------------------------------------------------------------------
# Incremental BFS
# ---------------------------------------------------------------------------

class IncrementalBfsKernel(SpeculativeBfsKernel):
    """Speculative BFS plus delete-closure invalidation and re-seeding."""

    def __init__(self, graph: Csr, source: int = 0) -> None:
        super().__init__(graph, source)
        self._pending = np.asarray([source], dtype=np.int64)

    def initial_items(self) -> np.ndarray:
        return self._pending

    def rebase(self, graph: Csr, applied: AppliedBatch) -> None:
        depth = self.depth
        # 1. victims: heads of deleted edges the old depths certified.
        #    Guard on finite tail depth *before* the +1 (UNREACHED + 1
        #    wraps in int64).
        if applied.deleted.size:
            u, v = applied.deleted[:, 0], applied.deleted[:, 1]
            fin = depth[u] != UNREACHED
            victim = np.zeros(u.size, dtype=bool)
            victim[fin] = depth[v[fin]] == depth[u[fin]] + 1
            frontier = np.unique(v[victim])
        else:
            frontier = EMPTY_ITEMS
        # 2. closure over NEW-graph certification edges, on the old depths:
        #    x invalid, x->y an edge, depth[y] == depth[x] + 1  =>  y invalid.
        #    Members are finite by construction, so no overflow guard needed.
        n = graph.num_vertices
        invalid = np.zeros(n, dtype=bool)
        invalid[frontier] = True
        while frontier.size:
            pos, flat, _ = graph.segments(frontier)
            if flat.size == 0:
                break
            nbrs = graph.indices[flat]
            d_src = depth[frontier][pos]
            grow = (~invalid[nbrs]) & (depth[nbrs] == d_src + 1)
            frontier = np.unique(nbrs[grow])
            invalid[frontier] = True
        members = np.flatnonzero(invalid)
        depth[members] = UNREACHED
        # 3. seeds: (a) still-reached vertices with a new-graph edge into
        #    the invalid region (they re-certify it), (b) sources of
        #    inserted edges (they may shorten paths), both post-reset.
        seeds = []
        if members.size:
            dst_invalid = invalid[graph.indices]
            pos = np.flatnonzero(dst_invalid)
            if pos.size:
                src = np.searchsorted(graph.indptr, pos, side="right") - 1
                border = np.unique(src)
                seeds.append(border[depth[border] != UNREACHED])
        if applied.inserted.size:
            ins_src = np.unique(applied.inserted[:, 0])
            seeds.append(ins_src[depth[ins_src] != UNREACHED])
        self.graph = graph
        self._pending = (
            np.unique(np.concatenate(seeds)) if seeds else EMPTY_ITEMS
        )


# ---------------------------------------------------------------------------
# Incremental CC
# ---------------------------------------------------------------------------

class IncrementalCcKernel(AsyncCcKernel):
    """Min-label propagation plus component-local reset and re-seeding."""

    def __init__(self, graph: Csr) -> None:
        super().__init__(graph)
        self._pending = np.arange(graph.num_vertices, dtype=np.int64)

    def initial_items(self) -> np.ndarray:
        return self._pending

    def rebase(self, graph: Csr, applied: AppliedBatch) -> None:
        labels = self.labels
        seeds = []
        if applied.deleted.size:
            hit = np.unique(labels[applied.deleted.ravel()])
            members = np.flatnonzero(np.isin(labels, hit))
            labels[members] = members
            seeds.append(members)
        if applied.inserted.size:
            seeds.append(np.unique(applied.inserted.ravel()))
        self.graph = graph
        self._pending = (
            np.unique(np.concatenate(seeds)) if seeds else EMPTY_ITEMS
        )


# ---------------------------------------------------------------------------
# Incremental PageRank
# ---------------------------------------------------------------------------

class IncrementalPageRankKernel(AsyncPageRankKernel):
    """Push PageRank with signed residues and invariant-restoring rebase.

    An edit can withdraw mass, so residues go negative: the parent's
    claim already propagates any non-zero residue, and its reservation
    scans compare ``|residue|`` here (``_signed``).
    """

    _signed = True

    def __init__(
        self,
        graph: Csr,
        *,
        lam: float = DEFAULT_LAMBDA,
        epsilon: float = DEFAULT_EPSILON,
        check_size: int = 64,
    ) -> None:
        super().__init__(graph, lam=lam, epsilon=epsilon, check_size=check_size)
        self._pending = np.arange(graph.num_vertices, dtype=np.int64)

    def initial_items(self) -> np.ndarray:
        return self._pending

    def rebase(self, graph: Csr, applied: AppliedBatch) -> None:
        # Restore residue = (1-λ)·1 + λ·A'ᵀD'⁻¹·rank − rank for the new
        # topology: only columns of sources with changed out-edges moved.
        # Withdraw each such source's entire old contribution and deposit
        # the new one (neighbor rows are duplicate-free in both CSRs).
        # Effective edits only — a no-op insert must not perturb mass.
        old = self.graph
        lam, rank, residue = self.lam, self.rank, self.residue
        changed = np.unique(
            np.concatenate([applied.inserted[:, 0], applied.deleted[:, 0]])
        )
        for u in changed:
            r_u = rank.item(u)
            if r_u != 0.0:
                old_nbrs = old.neighbors(int(u))
                if old_nbrs.size:
                    residue[old_nbrs] -= lam * r_u / old_nbrs.size
                new_nbrs = graph.neighbors(int(u))
                if new_nbrs.size:
                    residue[new_nbrs] += lam * r_u / new_nbrs.size
        self.graph = graph
        self.out_deg = graph.out_degrees()
        self._rows_strict = self._check_rows_strict(graph)
        # the next epoch starts from every vertex the rebase left dirty
        self._pending = self.final_check(0.0)


# ---------------------------------------------------------------------------
# Registry entries (dynamic=True keeps them off static enumeration paths)
# ---------------------------------------------------------------------------

register_app(AppAdapter(
    name="bfs-inc",
    description="incremental BFS over edit batches (dynamic graph)",
    make_kernel=lambda graph, source=0: IncrementalBfsKernel(graph, source),
    output=lambda k: k.depth,
    work_units=lambda k: k.edges_traversed,
    dynamic=True,
))

register_app(AppAdapter(
    name="cc-inc",
    description="incremental connected components over edit batches (dynamic graph)",
    make_kernel=lambda graph: IncrementalCcKernel(graph),
    output=lambda k: k.labels,
    work_units=lambda k: k.edges_propagated,
    extra=lambda k: {"num_components": int(np.unique(k.labels).size)},
    dynamic=True,
))

register_app(AppAdapter(
    name="pagerank-inc",
    description="incremental push PageRank over edit batches (dynamic graph)",
    make_kernel=lambda graph, lam=DEFAULT_LAMBDA, epsilon=DEFAULT_EPSILON,
    check_size=64: IncrementalPageRankKernel(
        graph, lam=lam, epsilon=epsilon, check_size=check_size
    ),
    output=lambda k: k.rank,
    work_units=lambda k: k.edges_traversed,
    extra=lambda k: {"residue_left": float(np.abs(k.residue).max())},
    dynamic=True,
))
