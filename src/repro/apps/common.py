"""Shared application plumbing: result records, the app registry, the run path.

An application module gives the framework its task kernel, its BSP
frontier runner and an :class:`AppAdapter` naming both; the framework
launches every run and keeps its books.  One dispatch path:

* an adapter describes how to build the app's task kernel, read its
  artifact/work counters, and (optionally) run its BSP frontier engine;
* :func:`replay_app` resolves the execution policy from the config
  (:func:`repro.core.policy.policy_for`), routes app-level policies (BSP)
  to the adapter's frontier function and engine-level policies through
  :func:`repro.core.policy.run_policy`, once for epoch 0 and once more
  per edit batch, and assembles one uniform :class:`AppResult` per epoch
  — including one consistent ``extra`` metrics block for every app;
* :func:`run_app` is the static case: a replay with no edit batches,
  returning its one epoch — the call a library user makes, as
  ``run_app("bfs", graph, config, source=0)``;
* :func:`bsp_result` reads a BSP runner's result off its finished
  :class:`~repro.bsp.engine.BspTimeline`, and :func:`degree_work` is the
  cost lookup the traversal kernels share.

App modules self-register at import time (``register_app`` at module
bottom); importing :mod:`repro.apps` loads all eight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from repro.bsp.engine import BspTimeline
from repro.core.config import AtosConfig
from repro.core.engine import RunResult
from repro.core.policy import policy_for, run_policy
from repro.graph.csr import Csr
from repro.graph.delta import AppliedBatch, EditScript, parse_edits
from repro.obs.events import EpochMark, MultiSink
from repro.sim.spec import V100_SPEC, GpuSpec
from repro.sim.trace import ThroughputTrace

__all__ = [
    "AppResult",
    "EMPTY_ITEMS",
    "bsp_result",
    "degree_work",
    "AppAdapter",
    "APP_REGISTRY",
    "register_app",
    "app_names",
    "get_adapter",
    "EpochResult",
    "DynamicAppResult",
    "replay_totals",
    "replay_app",
    "run_app",
]

EMPTY_ITEMS = np.empty(0, dtype=np.int64)


@dataclass
class AppResult:
    """Uniform result record for one application run (BSP or Atos).

    ``work_units`` is the application's Table 4 currency: edge traversals
    for BFS and PageRank, color-assignment operations for graph coloring.
    ``output`` holds the algorithm artifact (depth array, rank array, color
    array) for validation.
    """

    app: str
    impl: str  # "BSP", "persist-warp", ...
    dataset: str
    elapsed_ns: float
    work_units: float
    items_retired: int
    iterations: int
    kernel_launches: int
    output: np.ndarray = field(repr=False)
    trace: ThroughputTrace = field(repr=False, default_factory=ThroughputTrace)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        """Simulated runtime in milliseconds (Table 1 unit)."""
        return self.elapsed_ns / 1e6

    def speedup_over(self, baseline: "AppResult") -> float:
        """``baseline_time / self_time`` — the parenthesised Table 1 number."""
        if self.elapsed_ns <= 0:
            raise ValueError("cannot compute speedup of a zero-time run")
        return baseline.elapsed_ns / self.elapsed_ns

    def workload_ratio(self, baseline_work: float) -> float:
        """``self_work / baseline_work`` — the Table 4 number."""
        if baseline_work <= 0:
            raise ValueError("baseline work must be positive")
        return self.work_units / baseline_work


def bsp_result(
    app: str,
    impl: str,
    graph: Csr,
    timeline: BspTimeline,
    output: np.ndarray,
    *,
    iterations: int | None = None,
    extra: dict[str, Any] | None = None,
) -> AppResult:
    """A finished BSP run as an :class:`AppResult`, its books read off ``timeline``.

    ``iterations`` defaults to the timeline's; a runner whose outer loop
    also counts passes that launch no kernel passes its own count.
    """
    return AppResult(
        app=app,
        impl=impl,
        dataset=graph.name,
        elapsed_ns=timeline.now,
        work_units=timeline.work_units,
        items_retired=timeline.items_retired,
        iterations=timeline.iterations if iterations is None else iterations,
        kernel_launches=timeline.kernel_launches,
        output=output,
        trace=timeline.trace,
        extra={} if extra is None else extra,
    )


def degree_work(kernel, items: np.ndarray) -> tuple[int, int]:
    """``work_estimate`` of a kernel whose task cost is its items' out-degrees.

    A kernel class shares it as its method (``work_estimate =
    degree_work``), so the engine's one call per task stays one call.  It
    reads ``kernel.graph`` on every call, so a ``rebase`` onto a new
    snapshot cannot leave it stale.
    """
    ip = kernel.graph.indptr
    if items.size == 1:
        v = int(items[0])
        deg = int(ip[v + 1] - ip[v])
        return deg, deg
    degrees = ip[items + 1] - ip[items]
    return int(degrees.sum()), int(degrees.max()) if degrees.size else 0


# ---------------------------------------------------------------------------
# App adapter registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppAdapter:
    """How the dispatch layer drives one application.

    ``make_kernel(graph, **params)`` builds the app's task kernel (None for
    BSP-only apps like delta-stepping SSSP); ``output`` / ``work_units`` /
    ``extra`` read the artifact and counters back off the finished kernel;
    ``bsp`` is the app-level frontier engine for the BSP policy;
    ``tune_config`` applies app-specific resource budgets (e.g. coloring's
    Section 6.3 register/shared-memory figures) before the run.

    ``dynamic`` marks incremental (multi-epoch) variants whose kernels
    implement the ``rebase`` hook (:mod:`repro.apps.dynamic`).  Only they
    take edit batches in :func:`replay_app`, and static enumeration
    surfaces — the bench matrix, the all-apps oracle sweep — skip them.
    """

    name: str
    description: str
    make_kernel: Callable[..., Any] | None
    output: Callable[[Any], np.ndarray] | None = None
    work_units: Callable[[Any], float] | None = None
    extra: Callable[[Any], dict[str, Any]] | None = None
    bsp: Callable[..., "AppResult"] | None = None
    tune_config: Callable[[AtosConfig], AtosConfig] | None = None
    dynamic: bool = False


APP_REGISTRY: dict[str, AppAdapter] = {}


def register_app(adapter: AppAdapter) -> AppAdapter:
    """Register an application adapter (called at app-module import)."""
    APP_REGISTRY[adapter.name] = adapter
    return adapter


def _ensure_registered() -> None:
    # App modules self-register on import; importing the package pulls in
    # all of them.  Deferred to avoid a common <-> apps import cycle.
    if not APP_REGISTRY:
        import repro.apps  # noqa: F401


def app_names() -> list[str]:
    """Sorted names of every registered application."""
    _ensure_registered()
    return sorted(APP_REGISTRY)


def get_adapter(app: str) -> AppAdapter:
    """Look up an application adapter by name."""
    _ensure_registered()
    try:
        return APP_REGISTRY[app]
    except KeyError:
        raise KeyError(f"unknown app {app!r}; known: {sorted(APP_REGISTRY)}") from None


# ---------------------------------------------------------------------------
# The run path: a static run is epoch 0 of a replay with no edit batches
# ---------------------------------------------------------------------------

@dataclass
class EpochResult:
    """One epoch of a run: its snapshot, its edits, its app result.

    ``applied`` is ``None`` for epoch 0 (the base graph, nothing edited);
    afterwards it holds the *effective* edge changes that produced
    ``graph``, the epoch's materialized snapshot — what a from-scratch
    recompute (the differential oracle) runs against.  Each epoch's
    engine restarts its clock at 0, so ``result.elapsed_ns`` and
    ``result.work_units`` are per-epoch deltas: epoch > 0 rows expose
    exactly what the repair cost.  ``result.output`` is the kernel's
    artifact, copied before a later epoch's ``rebase`` mutates it.
    """

    epoch: int
    graph: Csr = field(repr=False)
    applied: AppliedBatch | None = field(repr=False)
    result: AppResult = field(repr=False)


@dataclass
class DynamicAppResult:
    """Every epoch of one run plus run-level totals.

    A static run has one epoch and ``edits`` of ``None``.
    """

    app: str
    impl: str
    dataset: str
    edits: str | None
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


#: scheduler counters summed over every epoch of a run — the numbers an
#: InvariantMonitor riding the whole stream accumulates, so reconcile()
#: cross-checks a replay the way it cross-checks a single epoch
_SUMMED_COUNTERS = (
    "total_tasks", "items_retired", "empty_pops", "queue_pushes",
    "queue_pops", "queue_items_pushed", "queue_items_popped",
    "queue_items_banked", "steals", "kernel_launches",
    "policy_switches", "remote_pushes", "remote_items", "remote_steals",
)


def replay_totals(epochs: list[EpochResult]) -> dict[str, int]:
    """Every counter reconcile() reads, summed over ``epochs``.

    ``worker_slots`` and ``devices`` (multi-device runs only) are fixed
    for the run and carried as they are, so a one-epoch run's totals are
    exactly the counters of its result.
    """
    totals: dict[str, int] = {}
    for e in epochs:
        extra = e.result.extra
        for key in _SUMMED_COUNTERS:
            value = extra.get(key, getattr(e.result, key, None))
            if value is not None:
                totals[key] = totals.get(key, 0) + int(value)
    last = epochs[-1].result.extra
    for key in ("worker_slots", "devices"):
        if key in last:
            totals[key] = last[key]
    return totals


def _epoch_result(
    adapter: AppAdapter,
    config: AtosConfig,
    kernel,
    res: RunResult,
    graph: Csr,
    applied: AppliedBatch | None,
    work_units: float,
) -> AppResult:
    """One finished engine epoch as an :class:`AppResult`.

    ``extra`` is the scheduler-level counter block every engine run
    reports (:meth:`~repro.core.engine.RunResult.counters`), the adapter's
    own extras and, after an edit batch, the batch's effective edge counts.
    """
    extra = res.counters()
    if adapter.extra is not None:
        extra.update(adapter.extra(kernel))
    if applied is not None:
        extra["edits_inserted"] = int(applied.inserted.shape[0])
        extra["edits_deleted"] = int(applied.deleted.shape[0])
    return AppResult(
        app=adapter.name,
        impl=config.name,
        dataset=graph.name,
        elapsed_ns=res.elapsed_ns,
        work_units=work_units,
        items_retired=res.items_retired,
        iterations=res.generations,
        kernel_launches=res.kernel_launches,
        output=adapter.output(kernel),
        trace=res.trace,
        extra=extra,
    )


def replay_app(
    app: str,
    graph: Csr,
    config: AtosConfig,
    edits: EditScript | str | None,
    *,
    spec: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    sink=None,
    validate: bool = False,
    metrics=False,
    perturb=None,
    **params,
) -> DynamicAppResult:
    """Run ``app`` on ``graph``: epoch 0, then one epoch per edit batch.

    The one run path.  ``edits`` is an
    :class:`~repro.graph.delta.EditScript`, a spec string like
    ``"3x32@7"`` (:func:`~repro.graph.delta.parse_edits`) or ``None``: a
    static run is a replay with no edit batches.  Only dynamic adapters,
    whose kernels implement ``rebase``, take edits.

    Every run gets one sink stack — ``sink``, a
    :class:`~repro.metrics.sink.MetricsSink` for ``metrics``, an
    :class:`~repro.check.invariants.InvariantMonitor` for ``validate``.
    App-level policies (BSP) hand it to the adapter's frontier engine.
    Engine-level policies build one kernel and run epoch 0 under
    :func:`~repro.core.policy.run_policy`; each batch then emits an
    :class:`~repro.obs.events.EpochMark`, rebases the kernel and runs
    again from the previous fixpoint.  Sinks are passive: any combination
    leaves simulated results bit-identical.

    A replay folds its totals into the final epoch's ``extra``
    (``replay_*``); ``metrics`` adds one summary over every epoch there.
    ``validate=True`` reconciles the monitor against
    :func:`replay_totals`, then checks every epoch against the app's
    oracle on its own snapshot
    (:func:`~repro.check.oracles.validate_epochs`), raising
    ``InvariantViolation`` or ``OracleError`` (with edit batches, each
    failed check is named ``epochN:<check>``).  ``perturb`` is the
    engine's pop-stagger hook
    (:meth:`~repro.core.engine.ExecutionEngine.pop_stagger`); it needs an
    engine-level policy.
    """
    adapter = get_adapter(app)
    script = None
    if edits is not None:
        if not adapter.dynamic:
            raise ValueError(
                f"app {app!r} is not dynamic (not a dynamic adapter); edits "
                "need an incremental kernel: bfs-inc, cc-inc or pagerank-inc"
            )
        script = parse_edits(edits, graph) if isinstance(edits, str) else edits
        if script.graph is not graph:
            raise ValueError("edit script was generated against a different graph")
    policy = policy_for(config)
    metrics_sink = monitor = None
    if metrics:
        from repro.metrics.sink import MetricsSink

        metrics_sink = metrics if isinstance(metrics, MetricsSink) else MetricsSink()
    if validate:
        from repro.check.invariants import InvariantMonitor

        monitor = InvariantMonitor()
    # one sink stack rides every epoch; a MultiSink only to fan out
    attached = [s for s in (sink, metrics_sink, monitor) if s is not None]
    stream = MultiSink(*attached) if len(attached) > 1 else (attached or [None])[0]
    if policy.app_level:
        if adapter.bsp is None:
            raise ValueError(f"app {app!r} has no BSP implementation")
        if perturb is not None:
            raise ValueError(
                f"policy {policy.name!r} runs at application level; "
                "perturb requires an engine-level policy"
            )
        epochs = [EpochResult(0, graph, None, adapter.bsp(graph, spec=spec, sink=stream, **params))]
    else:
        if adapter.make_kernel is None:
            raise ValueError(
                f"app {app!r} is BSP-only and cannot run under an Atos policy"
            )
        if adapter.tune_config is not None:
            config = adapter.tune_config(config)
        kernel = adapter.make_kernel(graph, **params)
        epochs = []
        work_done = 0.0
        batches = script.replay() if script is not None else ()
        for applied, snapshot in chain([(None, graph)], batches):
            if applied is not None:
                last = epochs[-1].result
                if stream is not None:
                    # t is the finished epoch's end: the quiescent instant
                    # after its engine drained
                    stream.emit(EpochMark(
                        t=last.elapsed_ns,
                        epoch=applied.epoch,
                        inserts=int(applied.inserted.shape[0]),
                        deletes=int(applied.deleted.shape[0]),
                    ))
                # the rebase and the next epoch mutate the artifact in place
                last.output = last.output.copy()
                kernel.rebase(snapshot, applied)
            res = run_policy(
                kernel, config, policy=policy, spec=spec, max_tasks=max_tasks,
                sink=stream, perturb=perturb,
            )
            work = float(adapter.work_units(kernel))
            epochs.append(EpochResult(
                epoch=0 if applied is None else applied.epoch,
                graph=snapshot,
                applied=applied,
                result=_epoch_result(
                    adapter, config, kernel, res, snapshot, applied, work - work_done
                ),
            ))
            work_done = work

    run = DynamicAppResult(
        app=adapter.name,
        impl=config.name,
        dataset=graph.name,
        edits=None if script is None else script.spec,
        epochs=epochs,
    )
    final = run.final
    if script is not None:
        final.extra["replay_edits"] = script.spec
        final.extra["replay_epochs"] = len(epochs)
        final.extra["replay_total_elapsed_ns"] = float(run.total_elapsed_ns)
        final.extra["replay_total_work_units"] = float(run.total_work_units)
    if metrics_sink is not None:
        from repro.metrics.summary import summarize

        final.extra["metrics"] = summarize(
            metrics_sink,
            app=adapter.name,
            dataset=graph.name,
            config=config.name,
            elapsed_ns=run.total_elapsed_ns,
        )
    if monitor is not None:
        monitor.reconcile(SimpleNamespace(extra=replay_totals(epochs)))
        monitor.assert_clean()
    if validate:
        # lazy: repro.check runs its fuzzer through this module
        from repro.check.oracles import validate_epochs

        validate_epochs(app, epochs, **params).assert_valid()
    return run


def run_app(
    app: str,
    graph,
    config: AtosConfig,
    *,
    spec: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    sink=None,
    validate: bool = False,
    metrics=False,
    perturb=None,
    **params,
) -> AppResult:
    """Run application ``app`` on ``graph`` under ``config``'s policy.

    A static run: :func:`replay_app` with no edit batches, returning its
    one epoch.  ``params`` go to the adapter's kernel factory (or, for
    the BSP policy, its frontier engine): e.g. ``source=`` for BFS/SSSP,
    ``epsilon=`` for PageRank.  The keywords are those of
    :func:`replay_app`.
    """
    return replay_app(
        app, graph, config, None, spec=spec, max_tasks=max_tasks, sink=sink,
        validate=validate, metrics=metrics, perturb=perturb, **params,
    ).final
