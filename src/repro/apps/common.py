"""Shared application plumbing: result record + the app dispatch registry.

Every application used to carry its own ``run_atos`` glue — construct the
kernel, call the scheduler, copy a dozen ``RunResult`` fields into an
:class:`AppResult`.  The :class:`AppAdapter` registry replaces those
copies with one dispatch path:

* an adapter describes how to build the app's task kernel, read its
  artifact/work counters, and (optionally) run its BSP frontier engine;
* :func:`run_app` resolves the execution policy from the config
  (:func:`repro.core.policy.policy_for`), routes app-level policies (BSP)
  to the adapter's frontier function and engine-level policies through
  :func:`repro.core.policy.run_policy`, and assembles the uniform
  :class:`AppResult` — including one consistent ``extra`` metrics block
  for every app.

App modules self-register at import time (``register_app`` at module
bottom); importing :mod:`repro.apps` loads all eight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.config import AtosConfig
from repro.core.engine import RunResult
from repro.core.policy import policy_for, run_policy
from repro.sim.spec import V100_SPEC, GpuSpec
from repro.sim.trace import ThroughputTrace

__all__ = [
    "AppResult",
    "EMPTY_ITEMS",
    "AppAdapter",
    "APP_REGISTRY",
    "register_app",
    "app_names",
    "get_adapter",
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
    implement the ``rebase`` hook (:mod:`repro.apps.dynamic`).  They run
    through :func:`repro.apps.dynamic.replay_app`, not a single
    ``run_app`` call, so static enumeration surfaces — the bench matrix,
    the all-apps oracle sweep — skip them.
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


def _base_extra(res: RunResult) -> dict[str, Any]:
    """The scheduler-level metrics every Atos-policy run reports."""
    extra = {
        "worker_slots": res.worker_slots,
        "occupancy": res.occupancy_fraction,
        "queue_contention_ns": res.queue_contention_ns,
        "total_tasks": res.total_tasks,
        "mem_utilization": res.mem_utilization,
        "empty_pops": res.empty_pops,
        "steals": res.steals,
        "failed_steals": res.failed_steals,
        "policy_switches": res.policy_switches,
        "queue_pushes": res.queue_pushes,
        "queue_pops": res.queue_pops,
        "queue_items_pushed": res.queue_items_pushed,
        "queue_items_popped": res.queue_items_popped,
        "queue_items_banked": res.queue_items_banked,
    }
    # device-dimension block only on multi-device runs, so the extra dict
    # (and everything serialized from it) is unchanged for devices=1
    if res.devices > 1:
        extra["devices"] = res.devices
        extra["remote_pushes"] = res.remote_pushes
        extra["remote_items"] = res.remote_items
        extra["remote_steals"] = res.remote_steals
        extra["comm_ns"] = res.comm_ns
        if res.device_stats is not None:
            extra["device_stats"] = res.device_stats
    return extra


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

    The single entry point behind every per-app ``run_atos`` wrapper, the
    :class:`~repro.harness.runner.Lab` matrix and the ``python -m repro
    run`` CLI.  ``params`` are forwarded to the adapter's kernel factory
    (or, for the BSP policy, to its frontier engine): e.g. ``source=`` for
    BFS/SSSP, ``epsilon=`` for PageRank.

    ``validate=True`` checks the finished output against the app's answer
    oracle (:func:`repro.check.oracles.validate`) and raises
    :class:`repro.check.oracles.OracleError` on a wrong answer — works
    for every policy, BSP included.  On engine-level policies it also
    attaches a live :class:`~repro.check.invariants.InvariantMonitor`,
    composed with any user ``sink`` through
    :class:`~repro.obs.events.MultiSink`, and raises
    :class:`~repro.check.invariants.InvariantViolation` if the run broke
    a model law (previously a user sink and the monitor were mutually
    exclusive).

    ``metrics=True`` (or a pre-configured
    :class:`~repro.metrics.sink.MetricsSink`) streams the run's telemetry
    and stores the :func:`~repro.metrics.summary.summarize` document in
    ``result.extra["metrics"]``.  Sinks are passive, so attaching any
    combination leaves simulated results bit-identical.

    ``perturb`` is the engine's pop-stagger hook (see
    :meth:`~repro.core.engine.ExecutionEngine.pop_stagger`); it requires
    an engine-level policy.
    """
    adapter = get_adapter(app)
    policy = policy_for(config)
    if policy.app_level:
        if adapter.bsp is None:
            raise ValueError(f"app {app!r} has no BSP implementation")
        if perturb is not None:
            raise ValueError(
                f"policy {policy.name!r} runs at application level; "
                "perturb requires an engine-level policy"
            )
        if metrics:
            raise ValueError(
                f"policy {policy.name!r} runs at application level and emits "
                "no engine events; metrics requires an engine-level policy"
            )
        result = adapter.bsp(graph, spec=spec, **params)
        if validate:
            _validate_output(app, graph, result, params)
        return result
    if adapter.make_kernel is None:
        raise ValueError(
            f"app {app!r} is BSP-only and cannot run under an Atos policy"
        )
    if adapter.tune_config is not None:
        config = adapter.tune_config(config)
    kernel = adapter.make_kernel(graph, **params)
    metrics_sink = None
    if metrics:
        from repro.metrics.sink import MetricsSink

        metrics_sink = metrics if isinstance(metrics, MetricsSink) else MetricsSink()
    monitor = None
    if validate:
        from repro.check.invariants import InvariantMonitor

        monitor = InvariantMonitor()
    effective_sink = sink
    if metrics_sink is not None or monitor is not None:
        from repro.obs.events import MultiSink

        attached = [s for s in (sink, metrics_sink, monitor) if s is not None]
        effective_sink = attached[0] if len(attached) == 1 else MultiSink(*attached)
    res = run_policy(
        kernel, config, policy=policy, spec=spec, max_tasks=max_tasks,
        sink=effective_sink, perturb=perturb,
    )
    extra = _base_extra(res)
    if adapter.extra is not None:
        extra.update(adapter.extra(kernel))
    result = AppResult(
        app=adapter.name,
        impl=config.name,
        dataset=graph.name,
        elapsed_ns=res.elapsed_ns,
        work_units=float(adapter.work_units(kernel)),
        items_retired=res.items_retired,
        iterations=res.generations,
        kernel_launches=res.kernel_launches,
        output=adapter.output(kernel),
        trace=res.trace,
        extra=extra,
    )
    if metrics_sink is not None:
        from repro.metrics.summary import summarize

        result.extra["metrics"] = summarize(
            metrics_sink,
            app=adapter.name,
            dataset=graph.name,
            config=config.name,
            elapsed_ns=res.elapsed_ns,
        )
    if monitor is not None:
        monitor.reconcile(result)
        monitor.assert_clean()
    if validate:
        _validate_output(app, graph, result, params)
    return result


def _validate_output(app: str, graph, result: AppResult, params: dict) -> None:
    """Oracle-check a finished run (raises on a wrong answer).

    Imported lazily: :mod:`repro.check` depends on this module for the
    fuzzer's run plumbing, so the import must not run at module load.
    """
    from repro.check.oracles import validate as oracle_validate

    oracle_validate(app, graph, result, **params).assert_valid()
