"""BSP cost/trace accumulator.

A BSP application is a sequence of kernels separated by global barriers
(``cudaDeviceSynchronize`` in the paper's Algorithm 1/3/5).  Each kernel's
busy time comes from :func:`repro.sim.cost.bsp_kernel_time`; this module
keeps the running clock, counts launches, iterations, retired items and
work, and feeds the throughput trace so Figures 1-3 can be regenerated for
the baseline too.  A finished timeline is the run's books:
:func:`repro.apps.common.bsp_result` reads the result off it.

With a ``sink`` attached the timeline emits the engine's event types: a
generation per iteration (opened at its first kernel), a ``KernelLaunch``
and ``Barrier`` per kernel and barrier, and a worker-0 ``TaskPop``/
``TaskComplete`` pair around the body of each kernel that retires items
or work, completing at the instant the throughput trace records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import (
    Barrier,
    EventSink,
    GenerationEnd,
    GenerationStart,
    KernelLaunch,
    TaskComplete,
    TaskPop,
)
from repro.sim.cost import bsp_kernel_time
from repro.sim.spec import V100_SPEC, GpuSpec
from repro.sim.trace import ThroughputTrace

__all__ = ["BspTimeline"]


@dataclass
class BspTimeline:
    """Simulated clock and counters for a BSP run."""

    spec: GpuSpec = field(default_factory=lambda: V100_SPEC)
    sink: EventSink | None = None
    now: float = 0.0
    iterations: int = 0
    kernel_launches: int = 0
    #: totals of every kernel's ``items_retired`` / ``work_units``
    items_retired: int = 0
    work_units: float = 0.0
    trace: ThroughputTrace = field(default_factory=ThroughputTrace)
    #: the current iteration has launched a kernel (its generation is open)
    _open: bool = field(default=False, init=False, repr=False)

    def kernel(
        self,
        *,
        frontier_size: int,
        edge_count: int,
        strategy: str = "lbs",
        items_retired: int = 0,
        work_units: float = 0.0,
    ) -> float:
        """Run one kernel; returns its completion time.

        ``items_retired``/``work_units`` are added to the run's totals and
        attributed to the throughput trace at the kernel's completion
        instant (BSP retires a whole frontier at once — which is what makes
        the paper's throughput plots spiky for the baseline).
        """
        start = self.now
        self.kernel_launches += 1
        self.now += self.spec.kernel_launch_ns
        body = self.now
        busy = bsp_kernel_time(
            self.spec,
            frontier_size=frontier_size,
            edge_count=edge_count,
            strategy=strategy,
        )
        self.now += busy
        retires = bool(items_retired or work_units)
        if retires:
            self.items_retired += items_retired
            self.work_units += work_units
            self.trace.record(self.now, items_retired, work_units)
        sink = self.sink
        if sink is not None:
            if not self._open:
                self._open = True
                sink.emit(GenerationStart(
                    t=start, generation=self.iterations + 1, items=frontier_size))
            sink.emit(KernelLaunch(t=start, duration_ns=self.spec.kernel_launch_ns))
            if retires:
                sink.emit(TaskPop(t=body, worker=0, items=frontier_size))
                sink.emit(TaskComplete(t=self.now, worker=0, items=frontier_size,
                                       retired=items_retired, pushed=0, work=work_units))
        return self.now

    def barrier(self) -> float:
        """Global synchronization between kernels."""
        if self.sink is not None:
            self.sink.emit(Barrier(t=self.now, duration_ns=self.spec.barrier_ns))
        self.now += self.spec.barrier_ns
        return self.now

    def end_iteration(self) -> None:
        """Bookkeeping: one outer-loop iteration finished."""
        self.iterations += 1
        if self.sink is not None:
            self._open = False
            self.sink.emit(GenerationEnd(t=self.now, generation=self.iterations))
