"""Multi-epoch execution: one kernel carried across graph versions.

The arXiv framing of Atos is a scheduler for *dynamic* irregular
computation: the graph mutates in batches and the worklist re-seeds from
the affected vertices instead of restarting the whole frontier.  The
engine itself needs no change for this — :func:`repro.core.policy.run_policy`
builds a fresh :class:`~repro.core.engine.ExecutionEngine` per call while
the *kernel object* persists, so algorithm state (depths, labels, ranks)
survives between calls by construction.  This module adds the loop that
exploits that:

1. run the kernel to quiescence on the current snapshot (epoch 0 is the
   unmodified base graph — an ordinary static run);
2. apply the next :class:`~repro.graph.delta.EditBatch` through the
   :class:`~repro.graph.delta.DeltaCsr` overlay and materialize the new
   snapshot;
3. call the kernel's ``rebase(graph, applied)`` hook, which repairs any
   state the effective edits invalidated and stages the repair seeds its
   next ``initial_items()`` will return;
4. run again — the engine drains only the repair frontier, converging
   from the previous fixpoint.  Repeat per batch.

Between epochs an :class:`~repro.obs.events.EpochMark` is emitted into
the run's sink, so a single :class:`~repro.obs.collector.Collector`
digest covers the whole replay and the
:class:`~repro.check.invariants.InvariantMonitor` can assert that epoch
boundaries are quiescent (nothing leaks across) before resetting its
per-epoch clocks.

Everything here is policy-agnostic: each epoch runs under whatever
engine-level policy the config names, with the fuzzer's ``perturb`` hook
threaded through every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.config import AtosConfig
from repro.core.engine import RunResult
from repro.core.kernel import TaskKernel
from repro.core.policy import ExecutionPolicy, run_policy
from repro.graph.csr import Csr
from repro.graph.delta import AppliedBatch, EditScript
from repro.obs.events import EpochMark, EventSink
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = ["EpochOutcome", "iterate_epochs", "run_epochs"]


@dataclass
class EpochOutcome:
    """One epoch of a multi-epoch run.

    ``applied`` is ``None`` for epoch 0 (the base graph, nothing edited);
    afterwards it holds the *effective* edge changes that produced
    ``graph``.  ``result`` is the epoch's ordinary engine result — its
    clock starts at 0, so multi-epoch elapsed time is the sum over
    epochs, not the last epoch's value.
    """

    epoch: int
    graph: Csr = field(repr=False)
    applied: AppliedBatch | None = field(repr=False)
    result: RunResult = field(repr=False)


def iterate_epochs(
    kernel: TaskKernel,
    config: AtosConfig,
    script: EditScript,
    *,
    policy: ExecutionPolicy | None = None,
    spec: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    sink: EventSink | None = None,
    perturb: Callable[[int, int], float] | None = None,
) -> Iterator[EpochOutcome]:
    """Drive ``kernel`` through epoch 0 plus one epoch per edit batch.

    A generator, because incremental kernels mutate their state in place:
    a caller that wants per-epoch artifacts (the differential harness
    copies the output array after every epoch) must consume them before
    the next epoch runs.  ``kernel`` must have been built against
    ``script.graph`` and must implement the ``rebase`` hook (see
    :class:`~repro.core.kernel.TaskKernel`).
    """
    rebase = getattr(kernel, "rebase", None)
    if rebase is None:
        raise TypeError(
            f"{type(kernel).__name__} has no rebase() hook; only incremental "
            "kernels (repro.apps.dynamic) can run multi-epoch"
        )
    res = run_policy(
        kernel, config, policy=policy, spec=spec, max_tasks=max_tasks,
        sink=sink, perturb=perturb,
    )
    yield EpochOutcome(epoch=0, graph=script.graph, applied=None, result=res)
    for applied, snapshot in script.replay():
        if sink is not None:
            # t is the finishing epoch's end time: the boundary is the
            # quiescent instant after that epoch's engine drained
            sink.emit(
                EpochMark(
                    t=res.elapsed_ns,
                    epoch=applied.epoch,
                    inserts=int(applied.inserted.shape[0]),
                    deletes=int(applied.deleted.shape[0]),
                )
            )
        rebase(snapshot, applied)
        res = run_policy(
            kernel, config, policy=policy, spec=spec, max_tasks=max_tasks,
            sink=sink, perturb=perturb,
        )
        yield EpochOutcome(
            epoch=applied.epoch, graph=snapshot, applied=applied, result=res
        )


def run_epochs(
    kernel: TaskKernel,
    config: AtosConfig,
    script: EditScript,
    **kwargs,
) -> list[EpochOutcome]:
    """Eager form of :func:`iterate_epochs` (all epochs, collected)."""
    return list(iterate_epochs(kernel, config, script, **kwargs))
