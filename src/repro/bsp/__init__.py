"""Bulk-synchronous-parallel baseline engine (the Gunrock stand-in).

The BSP model launches one (or more) kernels per outer-loop iteration with a
global barrier in between.  :class:`BspTimeline` accumulates the simulated
cost of each kernel + barrier and the per-iteration throughput trace, and
emits each kernel to the run's sink as the engine's event types; the
application modules drive it with their vectorised per-frontier steps.
"""

from repro.bsp.engine import BspTimeline
from repro.bsp.loadbalance import (
    balanced_chunks,
    flatten_frontier,
    twc_buckets,
)

__all__ = ["BspTimeline", "flatten_frontier", "balanced_chunks", "twc_buckets"]
