"""User-facing façade mirroring the paper's Listing 3 API.

The CUDA framework exposes::

    Queues::init(capacity, num_queues, iteration)
    Queues::launchThread(ifPersist, numBlock, numThread, shmem, f1, f2, ...)
    Queues::launchWarp(...)
    Queues::launchCTA<FETCH_SIZE>(...)

:class:`Atos` is the Python equivalent: construct it with queue parameters,
then launch an application kernel at thread/warp/CTA granularity.  Each
``launch_*`` builds the corresponding :class:`~repro.core.config.AtosConfig`
and drives the scheduler, returning the :class:`~repro.core.engine.RunResult`.

``f1`` is the application's :class:`~repro.core.kernel.TaskKernel` (the
pop-processing function); the CUDA API's ``f2`` (what a worker runs when a
pop fails) corresponds to the kernel's ``final_check`` hook plus the
scheduler's built-in park/wake behaviour.
"""

from __future__ import annotations

from repro.core.config import AtosConfig, KernelStrategy
from repro.core.kernel import TaskKernel
from repro.core.engine import RunResult
from repro.core.policy import run_policy
from repro.obs.events import EventSink
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = ["Atos"]

_NAME_PREFIX = {
    KernelStrategy.PERSISTENT: "persist",
    KernelStrategy.DISCRETE: "discrete",
    KernelStrategy.HYBRID: "hybrid",
}


def _resolve_strategy(
    persistent: bool, strategy: str | KernelStrategy | None
) -> KernelStrategy:
    """``strategy`` (name or enum) wins over the legacy ``persistent`` flag."""
    if strategy is None:
        return KernelStrategy.PERSISTENT if persistent else KernelStrategy.DISCRETE
    if isinstance(strategy, str):
        strategy = KernelStrategy(strategy)
    if strategy is KernelStrategy.BSP:
        raise ValueError(
            "BSP executes at application level; use repro.apps.common.run_app"
        )
    return strategy


class Atos:
    """Entry point for launching task kernels on the simulated GPU."""

    def __init__(
        self,
        *,
        capacity: int = 1 << 62,
        num_queues: int = 1,
        spec: GpuSpec = V100_SPEC,
        max_tasks: int = 20_000_000,
        sink: EventSink | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.capacity = capacity
        self.num_queues = num_queues
        self.spec = spec
        self.max_tasks = max_tasks
        #: observability sink attached to every launch (None = tracing off)
        self.sink = sink
        #: result of the most recent launch
        self.last_result: RunResult | None = None

    # ------------------------------------------------------------------
    def _launch(self, kernel: TaskKernel, config: AtosConfig) -> RunResult:
        result = run_policy(
            kernel, config, spec=self.spec, max_tasks=self.max_tasks, sink=self.sink
        )
        self.last_result = result
        return result

    def launch_thread(
        self,
        kernel: TaskKernel,
        *,
        persistent: bool = True,
        strategy: str | KernelStrategy | None = None,
        fetch_size: int = 1,
        registers_per_thread: int = 32,
    ) -> RunResult:
        """Thread-sized workers (one GPU thread per task)."""
        strat = _resolve_strategy(persistent, strategy)
        config = AtosConfig(
            strategy=strat,
            worker_threads=1,
            fetch_size=fetch_size,
            internal_lb=False,
            registers_per_thread=registers_per_thread,
            num_queues=self.num_queues,
            queue_capacity=self.capacity,
            name=f"{_NAME_PREFIX[strat]}-thread-{fetch_size}",
        )
        return self._launch(kernel, config)

    def launch_warp(
        self,
        kernel: TaskKernel,
        *,
        persistent: bool = True,
        strategy: str | KernelStrategy | None = None,
        fetch_size: int = 1,
        registers_per_thread: int = 56,
        shared_mem_per_cta: int = 0,
    ) -> RunResult:
        """Warp-sized workers (32 threads per task; the paper's persist-32)."""
        strat = _resolve_strategy(persistent, strategy)
        config = AtosConfig(
            strategy=strat,
            worker_threads=32,
            fetch_size=fetch_size,
            internal_lb=False,
            registers_per_thread=registers_per_thread,
            shared_mem_per_cta=shared_mem_per_cta,
            num_queues=self.num_queues,
            queue_capacity=self.capacity,
            name=f"{_NAME_PREFIX[strat]}-warp-{fetch_size}",
        )
        return self._launch(kernel, config)

    def launch_cta(
        self,
        kernel: TaskKernel,
        *,
        fetch_size: int,
        num_threads: int = 256,
        persistent: bool = True,
        strategy: str | KernelStrategy | None = None,
        registers_per_thread: int = 56,
        shared_mem_per_cta: int = 0,
    ) -> RunResult:
        """CTA-sized workers with the in-worker load-balancing search.

        ``fetch_size`` is the template parameter from Listing 3: how many
        work items one pop claims; ``num_threads`` sets the CTA width and
        thereby the task/data parallelism trade-off (Section 3.3).
        """
        strat = _resolve_strategy(persistent, strategy)
        config = AtosConfig(
            strategy=strat,
            worker_threads=num_threads,
            fetch_size=fetch_size,
            internal_lb=True,
            registers_per_thread=registers_per_thread,
            shared_mem_per_cta=shared_mem_per_cta,
            num_queues=self.num_queues,
            queue_capacity=self.capacity,
            name=f"{_NAME_PREFIX[strat]}-{num_threads}-{fetch_size}",
        )
        return self._launch(kernel, config)
