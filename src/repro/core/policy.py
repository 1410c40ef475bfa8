"""Execution policies: pluggable kernel strategies over one engine.

The paper's central result (Section 6.5) is that neither kernel strategy
wins everywhere — persistent kernels dominate small-frontier/high-diameter
regimes, discrete kernels win wide regular frontiers.  This module makes
the strategy axis *pluggable*: an :class:`ExecutionPolicy` owns the
control flow of a run (seed → issue → drain → advance/quiesce) while the
shared :class:`~repro.core.engine.ExecutionEngine` owns the mechanism
(pops, cost model, counters), so every policy — including the BSP
baseline at app level — is compared on one execution substrate.

Policies are registered per :class:`~repro.core.config.KernelStrategy`
and resolved from an :class:`~repro.core.config.AtosConfig`; adding a new
strategy is one subclass plus a :func:`register_policy` call (see
``docs/architecture.md``).

Shipped policies:

* :class:`PersistentPolicy` — one launch, workers loop to quiescence;
* :class:`DiscretePolicy`   — one launch + global barrier per queue
  generation, strict queue order within a generation;
* :class:`HybridPolicy`     — the adaptive extension: discrete while the
  frontier is wide, a persistent phase once it falls below a low
  watermark, and back to discrete (with hysteresis) if the queue regrows
  past the high watermark.  Each crossover emits a
  :class:`~repro.obs.events.PolicySwitch` event;
* :class:`BspPolicy`        — marker for the frontier-synchronous
  baseline, which runs at application level (each app's frontier loop
  drives :class:`~repro.bsp.engine.BspTimeline`); the
  :mod:`repro.apps.common` dispatch routes it accordingly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from repro.core.config import AtosConfig, KernelStrategy
from repro.core.engine import ExecutionEngine, RunResult, SchedulerError
from repro.core.kernel import TaskKernel
from repro.obs.events import (
    Barrier,
    EventSink,
    GenerationEnd,
    GenerationStart,
    KernelLaunch,
    PolicySwitch,
)
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = [
    "PolicyOutcome",
    "ExecutionPolicy",
    "PersistentPolicy",
    "DiscretePolicy",
    "HybridPolicy",
    "BspPolicy",
    "POLICIES",
    "register_policy",
    "policy_for",
    "run_policy",
]

#: auto low watermark: one launch amortizes over this many full waves of
#: work (launch ≈ 5 µs vs ≈ 150–300 ns of queue+issue latency per wave, so
#: fewer waves than this and the discrete strategy is launch-bound)
HYBRID_AUTO_WAVES = 32
#: auto high watermark as a multiple of the low one (hysteresis band)
HYBRID_AUTO_HYSTERESIS = 4


@dataclass(frozen=True)
class PolicyOutcome:
    """What a policy's control flow determined (the engine holds the rest)."""

    elapsed_ns: float
    kernel_launches: int
    generations: int
    policy_switches: int = 0


class ExecutionPolicy(abc.ABC):
    """Control flow of one simulated run over an :class:`ExecutionEngine`.

    The lifecycle every engine-level policy composes:

    1. **seed** — create a worklist (`eng.new_queue`), push initial work,
       give workers their first pops (`eng.seed_workers` / `eng.wake_idle`);
    2. **issue/drain** — `eng.drain_events` processes READ/DONE events,
       re-issuing pops per the engine's current mode, until quiescence
       (or a ``stop_when`` interrupt);
    3. **advance/quiesce** — consult the kernel's ``final_check`` /
       ``generation_check`` hooks, start the next generation or phase, or
       finish.

    ``execute`` returns a :class:`PolicyOutcome`; counters (tasks, work,
    queue stats) accumulate inside the engine and are materialised by
    :meth:`ExecutionEngine.build_result`.
    """

    #: strategy tag, matches ``KernelStrategy.value`` for registered policies
    name: ClassVar[str] = "abstract"
    #: True for policies that run at application level (no ExecutionEngine);
    #: the apps dispatch layer routes these to the app's frontier function
    app_level: ClassVar[bool] = False
    #: the engine class :func:`run_policy` builds for this policy
    engine: ClassVar[type[ExecutionEngine]] = ExecutionEngine

    @abc.abstractmethod
    def execute(self, eng: ExecutionEngine) -> PolicyOutcome:
        """Drive ``eng`` from seed to quiescence; return the outcome."""


# ---------------------------------------------------------------------------
# Shared building block: one discrete queue generation
# ---------------------------------------------------------------------------

def _discrete_generation(
    eng: ExecutionEngine,
    current: np.ndarray,
    t: float,
    generation: int,
) -> tuple[float, np.ndarray]:
    """Launch, drain and barrier one queue generation; return ``(t, next)``.

    Within a generation, tasks issue to workers in strict queue order with
    no scheduler jitter — CPU-launched kernels run in launch order
    (Section 6.3) — and pushes go to the *next* generation's queue.
    """
    eng.set_mode(persistent=False)
    spec, config, sink = eng.spec, eng.config, eng.sink
    if sink is not None:
        sink.emit(KernelLaunch(t=t, duration_ns=spec.kernel_launch_ns))
    t += spec.kernel_launch_ns
    if sink is not None:
        sink.emit(GenerationStart(t=t, generation=generation, items=int(current.size)))
    queue = eng.new_queue(f"{config.name}-gen{generation}")
    queue.push(current, t, home=0)
    # a fresh event clock per generation would break the shared
    # bandwidth server, so the loop keeps global time; workers all
    # start at the generation launch instant
    eng.idle = []
    for w in range(eng.slots):
        eng.idle.append(w)
    # issue strictly in order: lowest worker ids pop first, same time
    eng.idle.reverse()  # wake_idle pops from the end
    eng.wake_idle(t)
    gen_end = eng.drain_events(push_to_queue=False)
    if sink is not None:
        sink.emit(GenerationEnd(t=gen_end, generation=generation))
        sink.emit(Barrier(t=max(t, gen_end), duration_ns=spec.barrier_ns))
    t = max(t, gen_end) + spec.barrier_ns
    nxt = (
        np.concatenate(eng.pending_pushes)
        if eng.pending_pushes
        else np.empty(0, dtype=np.int64)
    )
    eng.pending_pushes = []
    # Workers whose pops fail at the end of a generation run the
    # application's f2 function (paper Listing 3) — for PageRank that is
    # the residual check scan.  Kernels express it via the optional
    # ``generation_check`` hook.
    gen_hook = getattr(eng.kernel, "generation_check", None)
    if gen_hook is not None:
        extra = gen_hook(t)
        if extra.size:
            nxt = np.concatenate([nxt, extra])
    return t, nxt


# ---------------------------------------------------------------------------
# Persistent policy
# ---------------------------------------------------------------------------

class PersistentPolicy(ExecutionPolicy):
    """Single launch; workers loop on the shared queue until quiescence."""

    name = "persistent"

    def execute(self, eng: ExecutionEngine) -> PolicyOutcome:
        eng.set_mode(persistent=True)
        spec, config, kernel = eng.spec, eng.config, eng.kernel
        queue = eng.new_queue(f"{config.name}-wl")
        queue.push(kernel.initial_items(), 0.0, home=0)

        t0 = spec.kernel_launch_ns
        if eng.sink is not None:
            eng.sink.emit(KernelLaunch(t=0.0, duration_ns=t0))
        eng.seed_workers(t0)
        end = t0
        while True:
            end = max(end, eng.drain_events(push_to_queue=True))
            extra = kernel.final_check(end)
            if extra.size == 0:
                break
            queue.push(extra, end, home=0)
            eng.wake_idle(end)
            if not eng.heap:
                break
        return PolicyOutcome(elapsed_ns=end, kernel_launches=1, generations=1)


# ---------------------------------------------------------------------------
# Discrete policy
# ---------------------------------------------------------------------------

class DiscretePolicy(ExecutionPolicy):
    """One kernel per queue generation, global barrier in between."""

    name = "discrete"

    def execute(self, eng: ExecutionEngine) -> PolicyOutcome:
        kernel = eng.kernel
        t = 0.0
        launches = 0
        generations = 0
        current = kernel.initial_items()

        while True:
            if current.size == 0:
                extra = kernel.final_check(t)
                if extra.size == 0:
                    break
                current = extra
            generations += 1
            launches += 1
            t, current = _discrete_generation(eng, current, t, generations)
        return PolicyOutcome(elapsed_ns=t, kernel_launches=launches, generations=generations)


# ---------------------------------------------------------------------------
# Hybrid adaptive policy
# ---------------------------------------------------------------------------

class HybridPolicy(ExecutionPolicy):
    """Adaptive strategy: discrete while wide, persistent once narrow.

    The run starts in discrete mode.  At every generation boundary the
    live frontier is compared against the low watermark: below it, the
    next phase is a *persistent* phase — one launch, workers looping to
    quiescence — because a narrow frontier cannot amortize a launch per
    generation (Section 6.5's small-frontier regime).  During a
    persistent phase the queue is watched against the high watermark:
    if follow-on work regrows past it, the phase is interrupted (in-flight
    tasks retire, a device-wide barrier returns control to the host) and
    the remaining queue becomes the next discrete generation.  The
    hysteresis band (high ≥ low) prevents oscillation at the threshold.

    Watermarks come from ``AtosConfig.hybrid_low_watermark`` /
    ``hybrid_high_watermark``; zero means auto —
    ``worker_slots × fetch_size × HYBRID_AUTO_WAVES`` for the low mark and
    ``HYBRID_AUTO_HYSTERESIS ×`` that for the high one.

    Every crossover emits :class:`~repro.obs.events.PolicySwitch`.
    """

    name = "hybrid"

    def execute(self, eng: ExecutionEngine) -> PolicyOutcome:
        config, kernel = eng.config, eng.kernel
        low = config.hybrid_low_watermark
        if low == 0:
            low = eng.slots * config.fetch_size * HYBRID_AUTO_WAVES
        high = config.hybrid_high_watermark or HYBRID_AUTO_HYSTERESIS * low
        high = max(high, low)

        t = 0.0
        launches = 0
        generations = 0
        switches = 0
        current = kernel.initial_items()

        while True:
            if current.size == 0:
                extra = kernel.final_check(t)
                if extra.size == 0:
                    break
                current = extra
            if current.size < low:
                # narrow frontier: run a persistent phase (counts one switch
                # because the strategy's resting mode is discrete)
                switches += 1
                generations += 1
                launches += 1
                if eng.sink is not None:
                    eng.sink.emit(
                        PolicySwitch(
                            t=t,
                            generation=generations,
                            items=int(current.size),
                            policy="persistent",
                        )
                    )
                t, done = self._persistent_phase(eng, current, t, high, generations)
                if done:
                    break
                # interrupted at the high watermark: back to discrete
                switches += 1
                current = eng.queue.drain()
                if eng.sink is not None:
                    eng.sink.emit(
                        PolicySwitch(
                            t=t,
                            generation=generations + 1,
                            items=int(current.size),
                            policy="discrete",
                        )
                    )
            else:
                generations += 1
                launches += 1
                t, current = _discrete_generation(eng, current, t, generations)
        return PolicyOutcome(
            elapsed_ns=t,
            kernel_launches=launches,
            generations=generations,
            policy_switches=switches,
        )

    @staticmethod
    def _persistent_phase(
        eng: ExecutionEngine,
        items: np.ndarray,
        t: float,
        high: int,
        generation: int,
    ) -> tuple[float, bool]:
        """One persistent phase; returns ``(t, done)``.

        ``done=False`` means the phase hit the high watermark: the engine's
        queue still holds the overflow (caller drains it into the next
        discrete generation) and ``t`` includes the device-wide barrier
        that returning control to the host costs.
        """
        spec, kernel = eng.spec, eng.kernel
        eng.set_mode(persistent=True)
        if eng.sink is not None:
            eng.sink.emit(KernelLaunch(t=t, duration_ns=spec.kernel_launch_ns))
        t0 = t + spec.kernel_launch_ns
        queue = eng.new_queue(f"{eng.config.name}-p{generation}")
        queue.push(items, t0, home=0)
        eng.idle = []
        eng.seed_workers(t0)
        end = t0
        while True:
            end = max(
                end,
                eng.drain_events(
                    push_to_queue=True, stop_when=lambda: queue.size > high
                ),
            )
            if queue.size > high:
                if eng.sink is not None:
                    eng.sink.emit(Barrier(t=end, duration_ns=spec.barrier_ns))
                return end + spec.barrier_ns, False
            extra = kernel.final_check(end)
            if extra.size == 0:
                return end, True
            queue.push(extra, end, home=0)
            eng.wake_idle(end)
            if not eng.heap:
                return end, True


# ---------------------------------------------------------------------------
# BSP marker policy
# ---------------------------------------------------------------------------

class BspPolicy(ExecutionPolicy):
    """Frontier-synchronous baseline — runs at application level.

    BSP has no task queue for the engine to drive: each application's
    frontier loop calls its own vectorised kernel body and advances a
    :class:`~repro.bsp.engine.BspTimeline`.  This class exists so the
    registry covers every strategy and the :mod:`repro.apps.common`
    dispatch can route uniformly on ``policy_for(config).app_level``.
    """

    name = "bsp"
    app_level = True

    def execute(self, eng: ExecutionEngine) -> PolicyOutcome:
        raise SchedulerError(
            "BSP is an app-level policy; run it through repro.apps.common.run_app"
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

POLICIES: dict[KernelStrategy, type[ExecutionPolicy]] = {}


def register_policy(
    strategy: KernelStrategy,
) -> Callable[[type[ExecutionPolicy]], type[ExecutionPolicy]]:
    """Class decorator: register a policy for a kernel strategy."""

    def deco(cls: type[ExecutionPolicy]) -> type[ExecutionPolicy]:
        POLICIES[strategy] = cls
        return cls

    return deco


register_policy(KernelStrategy.PERSISTENT)(PersistentPolicy)
register_policy(KernelStrategy.DISCRETE)(DiscretePolicy)
register_policy(KernelStrategy.HYBRID)(HybridPolicy)
register_policy(KernelStrategy.BSP)(BspPolicy)

# the distributed policy lives in its own module (it carries the whole
# multi-device runtime); importing it registers KernelStrategy.DISTRIBUTED.
# The import sits below the registry so the submodule can import this
# module's names without a cycle.
from repro.core import distributed as _distributed  # noqa: E402,F401


def policy_for(config: AtosConfig) -> ExecutionPolicy:
    """Instantiate the policy registered for ``config.strategy``."""
    cls = POLICIES.get(config.strategy)
    if cls is None:
        raise SchedulerError(
            f"no execution policy registered for strategy {config.strategy!r}; "
            f"known: {sorted(s.value for s in POLICIES)}"
        )
    return cls()


def run_policy(
    kernel: TaskKernel,
    config: AtosConfig,
    *,
    policy: ExecutionPolicy | None = None,
    spec: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    sink: EventSink | None = None,
    perturb: Callable[[int, int], float] | None = None,
) -> RunResult:
    """Execute ``kernel`` under ``config``'s policy (or an explicit one).

    ``perturb`` is forwarded to the engine's pop-stagger hook (see
    :meth:`ExecutionEngine.pop_stagger`); ``None`` leaves timing
    bit-identical to the unhooked engine.
    """
    if policy is None:
        policy = policy_for(config)
    if policy.app_level:
        raise SchedulerError(
            f"policy {policy.name!r} runs at application level; "
            "use repro.apps.common.run_app"
        )
    eng = policy.engine(kernel, config, spec, max_tasks, sink=sink, perturb=perturb)
    out = policy.execute(eng)
    return eng.build_result(
        elapsed_ns=out.elapsed_ns,
        kernel_launches=out.kernel_launches,
        generations=out.generations,
        policy_switches=out.policy_switches,
    )
