"""Incremental BFS, CC and PageRank over a mutating graph.

The static kernels answer "solve this graph"; the incremental variants
here answer "the graph just changed — repair the answer".  Each subclass
keeps its parent's execution semantics bit-for-bit (the same ``on_read``
/ ``on_complete`` bodies drive the same label-correcting convergence)
and adds the :meth:`rebase` hook :func:`repro.core.dynamic.iterate_epochs`
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
all-apps oracle sweeps) skip them; :func:`replay_app` is their entry
point and the differential edit-replay harness: one kernel, one sink,
one digest across every epoch, with the per-epoch output validated
against the from-scratch oracle on the materialized snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.apps.bfs import UNREACHED, SpeculativeBfsKernel
from repro.apps.cc import AsyncCcKernel
from repro.apps.common import (
    EMPTY_ITEMS,
    AppAdapter,
    AppResult,
    _base_extra,
    _validate_output,
    get_adapter,
    register_app,
)
from repro.apps.pagerank import DEFAULT_EPSILON, DEFAULT_LAMBDA, AsyncPageRankKernel
from repro.core.config import AtosConfig
from repro.core.dynamic import iterate_epochs
from repro.graph.csr import Csr
from repro.graph.delta import AppliedBatch, EditScript, parse_edits
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = [
    "IncrementalBfsKernel",
    "IncrementalCcKernel",
    "IncrementalPageRankKernel",
    "EpochResult",
    "DynamicAppResult",
    "replay_totals",
    "replay_app",
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
        self.out_deg = graph.out_degrees()
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
    scans compare ``|residue|`` here (:meth:`_magnitude`).
    """

    _magnitude = staticmethod(np.abs)

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


# ---------------------------------------------------------------------------
# Edit-replay entry point
# ---------------------------------------------------------------------------

@dataclass
class EpochResult:
    """One epoch of a replay: its snapshot, its edits, its app result.

    ``result.output`` is a *copy* of the kernel's artifact at the end of
    the epoch (the kernel keeps mutating it); ``result.work_units`` and
    ``result.elapsed_ns`` are per-epoch deltas, so epoch > 0 rows expose
    exactly what the repair cost.  ``graph`` is the epoch's materialized
    snapshot — what a from-scratch recompute (the differential oracle)
    runs against.
    """

    epoch: int
    graph: Csr = field(repr=False)
    applied: AppliedBatch | None = field(repr=False)
    result: AppResult = field(repr=False)


@dataclass
class DynamicAppResult:
    """A full edit-replay: per-epoch results plus replay-level totals."""

    app: str
    impl: str
    dataset: str
    edits: str
    epochs: list[EpochResult] = field(repr=False)

    @property
    def total_elapsed_ns(self) -> float:
        return sum(e.result.elapsed_ns for e in self.epochs)

    @property
    def total_work_units(self) -> float:
        return sum(e.result.work_units for e in self.epochs)

    @property
    def final(self) -> AppResult:
        return self.epochs[-1].result


#: scheduler counters summed over every epoch of a replay — the numbers a
#: cross-epoch InvariantMonitor accumulates, so reconcile() can cross-check
#: a whole replay the way it cross-checks a single run
_SUMMED_COUNTERS = (
    "total_tasks", "items_retired", "empty_pops", "queue_pushes",
    "queue_pops", "queue_items_pushed", "queue_items_popped",
    "queue_items_banked", "steals", "kernel_launches",
    "policy_switches", "remote_pushes", "remote_items", "remote_steals",
)


def replay_totals(epochs: list[EpochResult]) -> dict[str, int]:
    """Replay-level counter sums for cross-epoch reconciliation."""
    totals: dict[str, int] = {}
    for e in epochs:
        extra = e.result.extra
        for key in _SUMMED_COUNTERS:
            value = extra.get(key, getattr(e.result, key, None))
            if value is not None:
                totals[key] = totals.get(key, 0) + int(value)
        totals["worker_slots"] = extra["worker_slots"]
    return totals


def replay_app(
    app: str,
    graph: Csr,
    config: AtosConfig,
    edits: EditScript | str,
    *,
    spec: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    sink=None,
    validate: bool = False,
    perturb=None,
    **params,
) -> DynamicAppResult:
    """Replay an edit script through an incremental app, epoch by epoch.

    The dynamic counterpart of :func:`repro.apps.common.run_app` and the
    differential harness's engine: one kernel built on the base ``graph``
    is carried through epoch 0 plus one epoch per edit batch
    (:func:`repro.core.dynamic.iterate_epochs`), all epochs sharing one
    ``sink`` — so a single :class:`~repro.obs.collector.Collector` digest
    pins the entire replay.

    ``validate=True`` is the differential oracle: after **every** epoch
    the kernel's output is checked against the app's oracle on that
    epoch's materialized snapshot (for BFS/CC that is exact equality with
    a from-scratch recompute), a live
    :class:`~repro.check.invariants.InvariantMonitor` rides the whole
    stream (asserting quiescent epoch boundaries), and the replay-summed
    counters are reconciled against the summed event totals.

    ``edits`` is an :class:`~repro.graph.delta.EditScript` or a spec
    string like ``"3x32@7"`` (see :func:`~repro.graph.delta.parse_edits`).
    """
    adapter = get_adapter(app)
    if not adapter.dynamic:
        raise ValueError(
            f"app {app!r} is not a dynamic adapter; replay_app needs an "
            "incremental kernel (bfs-inc, cc-inc, pagerank-inc)"
        )
    script = parse_edits(edits, graph) if isinstance(edits, str) else edits
    if script.graph is not graph:
        raise ValueError("edit script was generated against a different graph")
    if adapter.tune_config is not None:
        config = adapter.tune_config(config)
    kernel = adapter.make_kernel(graph, **params)
    monitor = None
    if validate:
        from repro.check.invariants import InvariantMonitor

        monitor = InvariantMonitor()
    effective_sink = sink
    if monitor is not None:
        from repro.obs.events import MultiSink

        effective_sink = monitor if sink is None else MultiSink(sink, monitor)

    epochs: list[EpochResult] = []
    prev_work = 0.0
    for out in iterate_epochs(
        kernel, config, script, spec=spec, max_tasks=max_tasks,
        sink=effective_sink, perturb=perturb,
    ):
        res = out.result
        extra = _base_extra(res)
        if adapter.extra is not None:
            extra.update(adapter.extra(kernel))
        if out.applied is not None:
            extra["edits_inserted"] = int(out.applied.inserted.shape[0])
            extra["edits_deleted"] = int(out.applied.deleted.shape[0])
        work_total = float(adapter.work_units(kernel))
        result = AppResult(
            app=adapter.name,
            impl=config.name,
            dataset=out.graph.name,
            elapsed_ns=res.elapsed_ns,
            work_units=work_total - prev_work,
            items_retired=res.items_retired,
            iterations=res.generations,
            kernel_launches=res.kernel_launches,
            output=np.array(adapter.output(kernel), copy=True),
            trace=res.trace,
            extra=extra,
        )
        prev_work = work_total
        if validate:
            # the differential oracle: this epoch's incremental state
            # versus a from-scratch reference on the materialized snapshot
            _validate_output(app, out.graph, result, params)
        epochs.append(EpochResult(
            epoch=out.epoch, graph=out.graph, applied=out.applied, result=result,
        ))

    if monitor is not None:
        monitor.reconcile(SimpleNamespace(extra=replay_totals(epochs)))
        monitor.assert_clean()
    return DynamicAppResult(
        app=adapter.name,
        impl=config.name,
        dataset=graph.name,
        edits=script.spec,
        epochs=epochs,
    )
