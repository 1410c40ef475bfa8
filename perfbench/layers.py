"""Per-layer timing from outside ``src/``: proxies and direct layer calls.

Nothing here patches the program.  The traced sweep walks each cell
through the same public steps :func:`repro.apps.common.run_app` takes
(``get_adapter``, ``tune_config``, ``make_kernel``, ``run_policy``, output
readback) and hands ``run_policy`` a :class:`TimedKernel` that times the
app callbacks; everything else in ``run_policy`` is the core's own time.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

#: kernel callback -> timing bucket.  ``generation_check`` is the discrete
#: policies' barrier hook and shares the quiescence hook's bucket.
CALLBACKS = (
    ("work_estimate", "work_estimate"),
    ("on_read", "on_read"),
    ("on_complete", "on_complete"),
    ("final_check", "final_check"),
    ("generation_check", "final_check"),
)
CALLBACK_BUCKETS = ("work_estimate", "on_read", "on_complete", "final_check")


class LayerClock:
    """Accumulated host nanoseconds and call counts per named bucket."""

    def __init__(self) -> None:
        self.ns: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)

    def add(self, bucket: str, ns: int) -> None:
        self.ns[bucket] += ns
        self.calls[bucket] += 1

    def timed(self, bucket: str, fn):
        ns, calls = self.ns, self.calls

        def call(*args):
            t0 = perf_counter_ns()
            out = fn(*args)
            ns[bucket] += perf_counter_ns() - t0
            calls[bucket] += 1
            return out

        return call

    def ms(self, bucket: str) -> float:
        return self.ns[bucket] / 1e6


class TimedKernel:
    """A task kernel whose callbacks are timed into a :class:`LayerClock`.

    Only callbacks the wrapped kernel has are installed, because the
    policies probe optional hooks with ``getattr(kernel, name, None)``;
    every other attribute forwards to the wrapped kernel.
    """

    def __init__(self, kernel, clock: LayerClock) -> None:
        self._kernel = kernel
        for name, bucket in CALLBACKS:
            fn = getattr(kernel, name, None)
            if fn is not None:
                setattr(self, name, clock.timed(bucket, fn))

    def __getattr__(self, name: str):
        return getattr(self._kernel, name)


def traced_cell(app: str, dataset: str, impl: str, size: str, clock: LayerClock):
    """Run one sweep cell through ``run_app``'s steps with layer timers.

    Returns the :class:`~repro.apps.common.AppResult` the untraced path
    would return, so its ``result_digest`` can be checked against it.
    """
    from repro.apps.common import AppResult, get_adapter
    from repro.core.config import CONFIGS
    from repro.core.policy import policy_for, run_policy
    from repro.graph.datasets import load_dataset
    from repro.harness.runner import Lab
    from repro.sim.spec import V100_SPEC

    graph = load_dataset(dataset, size)
    adapter = get_adapter(app)
    config = CONFIGS[impl]
    policy = policy_for(config)
    if policy.app_level:
        t0 = perf_counter_ns()
        result = adapter.bsp(graph, spec=V100_SPEC)
        clock.add("bsp", perf_counter_ns() - t0)
        return result
    if adapter.tune_config is not None:
        config = adapter.tune_config(config)
    t0 = perf_counter_ns()
    kernel = adapter.make_kernel(graph)
    clock.add("make_kernel", perf_counter_ns() - t0)
    t0 = perf_counter_ns()
    res = run_policy(
        TimedKernel(kernel, clock), config, policy=policy, spec=V100_SPEC,
        max_tasks=Lab.max_tasks,
    )
    clock.add("run_policy", perf_counter_ns() - t0)
    return AppResult(
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
        extra={"total_tasks": res.total_tasks},
    )


def build_graphs(datasets, size: str) -> None:
    """``load_dataset`` for ``datasets`` on an empty build cache (callers time it)."""
    from repro.graph.datasets import load_dataset
    from repro.perf import buildcache

    buildcache.cache_clear()
    for ds in datasets:
        load_dataset(ds, size)


def edit_ms(dataset: str, size: str, edits: str) -> float:
    """Host ms to parse one edit script and apply + materialize every epoch."""
    from repro.graph.datasets import load_dataset
    from repro.graph.delta import DeltaCsr, parse_edits

    graph = load_dataset(dataset, size)
    t0 = perf_counter_ns()
    script = parse_edits(edits, graph)
    delta = DeltaCsr(graph)
    for batch in script.batches():
        delta.apply(batch)
        delta.materialize()
    return (perf_counter_ns() - t0) / 1e6


def make_kernel_ms(app: str, dataset: str, size: str, params: dict) -> float | None:
    """Host ms of one ``make_kernel`` call; ``None`` for BSP-only apps."""
    from repro.apps.common import get_adapter
    from repro.graph.datasets import load_dataset

    adapter = get_adapter(app)
    if adapter.make_kernel is None:
        return None
    graph = load_dataset(dataset, size)
    t0 = perf_counter_ns()
    adapter.make_kernel(graph, **params)
    return (perf_counter_ns() - t0) / 1e6
