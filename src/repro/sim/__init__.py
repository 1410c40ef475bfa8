"""Discrete-event GPU model.

This subpackage stands in for the NVIDIA V100 the paper runs on.  It models
the machine at the granularity the paper's analysis operates at:

* **worker slots** — how many warps/CTAs are simultaneously resident, from
  the occupancy calculator (registers, shared memory, thread slots);
* **fixed costs** — kernel launch, device-wide barrier, queue-counter
  atomics;
* **memory bandwidth** — a shared fluid server; when many workers are in
  flight their tasks serialize on it, which is what makes aggregate
  throughput bandwidth-bound under load and latency-bound on small
  frontiers;
* **time** — simulated nanoseconds, deterministic for a fixed seed.

It deliberately does *not* model ALU pipelines, caches, or individual lanes;
none of the paper's results depend on those.
"""

from repro.sim.calibration import CalibrationReport, calibrate
from repro.sim.memory import BandwidthServer
from repro.sim.occupancy import Occupancy, occupancy_for
from repro.sim.spec import FULL_V100_SPEC, V100_SPEC, GpuSpec
from repro.sim.trace import ThroughputTrace

__all__ = [
    "GpuSpec",
    "V100_SPEC",
    "FULL_V100_SPEC",
    "Occupancy",
    "occupancy_for",
    "BandwidthServer",
    "ThroughputTrace",
    "CalibrationReport",
    "calibrate",
]
