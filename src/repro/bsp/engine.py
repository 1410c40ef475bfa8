"""BSP cost/trace accumulator.

A BSP application is a sequence of kernels separated by global barriers
(``cudaDeviceSynchronize`` in the paper's Algorithm 1/3/5).  Each kernel's
busy time comes from :func:`repro.sim.cost.bsp_kernel_time`; this module
keeps the running clock, counts launches, iterations, retired items and
work, and feeds the throughput trace so Figures 1-3 can be regenerated for
the baseline too.  A finished timeline is the run's books:
:func:`repro.apps.common.bsp_result` reads the result off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.cost import bsp_kernel_time
from repro.sim.spec import V100_SPEC, GpuSpec
from repro.sim.trace import ThroughputTrace

__all__ = ["BspTimeline"]


@dataclass
class BspTimeline:
    """Simulated clock and counters for a BSP run."""

    spec: GpuSpec = field(default_factory=lambda: V100_SPEC)
    now: float = 0.0
    iterations: int = 0
    kernel_launches: int = 0
    #: totals of every kernel's ``items_retired`` / ``work_units``
    items_retired: int = 0
    work_units: float = 0.0
    trace: ThroughputTrace = field(default_factory=ThroughputTrace)

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
        self.kernel_launches += 1
        self.now += self.spec.kernel_launch_ns
        busy = bsp_kernel_time(
            self.spec,
            frontier_size=frontier_size,
            edge_count=edge_count,
            strategy=strategy,
        )
        self.now += busy
        if items_retired or work_units:
            self.items_retired += items_retired
            self.work_units += work_units
            self.trace.record(self.now, items_retired, work_units)
        return self.now

    def barrier(self) -> float:
        """Global synchronization between kernels."""
        self.now += self.spec.barrier_ns
        return self.now

    def end_iteration(self) -> None:
        """Bookkeeping: one outer-loop iteration finished."""
        self.iterations += 1
