"""Atos scheduler configuration (the Section 3 design space).

The paper's evaluation uses three named implementation variants plus one
extra for the coloring study (Section 6.1):

* ``persist-warp``  — persistent kernel, warp-sized workers, fetch size 1,
  task-parallel load balancing only;
* ``persist-CTA``   — persistent kernel, CTA-sized workers, load-balancing
  search inside the worker;
* ``discrete-CTA``  — discrete kernels, CTA-sized workers, internal LB;
* ``discrete-warp`` — discrete kernels, warp-sized workers (coloring only).

Register/shared-memory budgets default to the figures the paper reports for
graph coloring (72 regs persistent / 42 discrete, Section 6.3) scaled to a
generic application; individual apps override them.

Beyond the paper's four, the ``hybrid`` strategy (this repo's extension of
the Section 6.5 observation that neither pure strategy wins everywhere)
starts discrete and switches to persistent execution at generation
boundaries once the live frontier falls below a watermark — see
:class:`repro.core.policy.HybridPolicy` and ``docs/architecture.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

__all__ = [
    "KernelStrategy",
    "AtosConfig",
    "PERSIST_WARP",
    "PERSIST_CTA",
    "DISCRETE_CTA",
    "DISCRETE_WARP",
    "HYBRID_CTA",
    "HYBRID_WARP",
    "BSP_BASELINE",
    "DIST_2",
    "DIST_4",
    "DIST_4_PCIE",
    "variant_by_name",
    "VARIANTS",
    "CONFIGS",
]


class KernelStrategy(enum.Enum):
    """Section 3.4: one launch forever vs. one launch per generation.

    ``HYBRID`` is the adaptive extension: discrete generations while the
    frontier is wide, one persistent phase once it narrows (and back, with
    hysteresis, if it widens again).  ``BSP`` names the frontier-synchronous
    baseline, which executes at application level (see
    :class:`repro.core.policy.BspPolicy`).
    """

    PERSISTENT = "persistent"
    DISCRETE = "discrete"
    HYBRID = "hybrid"
    BSP = "bsp"
    #: multi-device extension: one persistent phase per device, partitioned
    #: worklists, cross-device forwarding/stealing over the interconnect
    #: (see :class:`repro.core.distributed.DistributedPolicy`)
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class AtosConfig:
    """One point in the Atos design space."""

    strategy: KernelStrategy = KernelStrategy.PERSISTENT
    #: threads per worker: 1 = thread worker, 32 = warp worker, larger
    #: multiples of 32 = CTA worker.
    worker_threads: int = 32
    #: work items popped per task (FETCH_SIZE in the paper's Listing 3)
    fetch_size: int = 1
    #: run the load-balancing search across fetched items inside the worker
    #: (only meaningful for CTA workers)
    internal_lb: bool = False
    #: threads per CTA used for occupancy (warp workers are packed into
    #: CTAs of this size; CTA workers use worker_threads)
    cta_threads: int = 256
    #: register pressure; persistent kernels need extra registers for the
    #: queue loop (Section 3.4)
    registers_per_thread: int = 48
    shared_mem_per_cta: int = 0
    #: physical queue count behind the shared work list
    num_queues: int = 1
    #: work-list organisation: "shared" (the paper's single shared queue,
    #: scattered over num_queues counters) or "stealing" (per-group deques
    #: with steal-on-empty — the distributed alternative of reference [7])
    worklist: str = "shared"
    #: queue capacity in items (device buffer size in the real framework)
    queue_capacity: int = 1 << 62
    #: hybrid strategy only: switch discrete→persistent at a generation
    #: boundary when the live frontier holds fewer than this many items.
    #: 0 = auto (worker_slots × fetch_size × 32, enough waves to amortize a
    #: kernel launch — see docs/architecture.md)
    hybrid_low_watermark: int = 0
    #: hybrid strategy only: switch persistent→discrete when the queue
    #: grows beyond this many items.  0 = auto (4 × low watermark); must be
    #: ≥ the low watermark when both are set (hysteresis band)
    hybrid_high_watermark: int = 0
    #: simulated device count.  1 = the classic single-device engine;
    #: > 1 requires the distributed strategy (per-device worklists, the
    #: partition below, interconnect-priced forwarding)
    devices: int = 1
    #: how the graph is split over devices: a ``--partition`` token from
    #: :data:`repro.graph.partition.PARTITION_CHOICES`
    partition: str = "hash"
    #: interconnect preset name from :data:`repro.sim.spec.INTERCONNECTS`
    interconnect: str = "nvlink"
    #: distributed strategy: a cross-device steal must promise at least
    #: this many ns of estimated work per ns of transfer cost
    steal_ratio: float = 2.0
    #: distributed strategy: consecutive empty local pops a device's worker
    #: must see before it is allowed to probe remote deques
    steal_idle_threshold: int = 2
    name: str = "atos"

    def __post_init__(self) -> None:
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        if self.worker_threads > 32 and self.worker_threads % 32:
            raise ValueError("CTA workers must be a multiple of 32 threads")
        if self.fetch_size < 1:
            raise ValueError("fetch_size must be >= 1")
        if self.internal_lb and self.worker_threads < 32:
            raise ValueError("internal load balancing requires >= warp-sized workers")
        if self.num_queues < 1:
            raise ValueError("num_queues must be >= 1")
        if self.worklist not in ("shared", "stealing"):
            raise ValueError('worklist must be "shared" or "stealing"')
        if self.hybrid_low_watermark < 0 or self.hybrid_high_watermark < 0:
            raise ValueError("hybrid watermarks must be non-negative")
        if (
            self.hybrid_low_watermark
            and self.hybrid_high_watermark
            and self.hybrid_high_watermark < self.hybrid_low_watermark
        ):
            raise ValueError("hybrid_high_watermark must be >= hybrid_low_watermark")
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if self.devices > 1 and self.strategy is not KernelStrategy.DISTRIBUTED:
            raise ValueError("devices > 1 requires the distributed strategy")
        from repro.graph.partition import PARTITION_CHOICES

        if self.partition not in PARTITION_CHOICES:
            raise ValueError(
                f"unknown partition {self.partition!r}; "
                f"known: {', '.join(PARTITION_CHOICES)}"
            )
        from repro.sim.spec import INTERCONNECTS

        if self.interconnect not in INTERCONNECTS:
            raise ValueError(
                f"unknown interconnect {self.interconnect!r}; "
                f"known: {sorted(INTERCONNECTS)}"
            )
        if self.steal_ratio < 0:
            raise ValueError("steal_ratio must be >= 0")
        if self.steal_idle_threshold < 0:
            raise ValueError("steal_idle_threshold must be >= 0")

    # ------------------------------------------------------------------
    @property
    def is_persistent(self) -> bool:
        return self.strategy is KernelStrategy.PERSISTENT

    @property
    def is_hybrid(self) -> bool:
        return self.strategy is KernelStrategy.HYBRID

    @property
    def is_cta_worker(self) -> bool:
        return self.worker_threads > 32

    @property
    def is_warp_worker(self) -> bool:
        return self.worker_threads == 32

    @property
    def is_thread_worker(self) -> bool:
        return self.worker_threads == 1

    @property
    def occupancy_cta_threads(self) -> int:
        """CTA size used for the occupancy calculation."""
        return self.worker_threads if self.is_cta_worker else self.cta_threads

    def with_overrides(self, **overrides) -> "AtosConfig":
        """A copy with some fields changed (sweeps, app-specific budgets)."""
        return replace(self, **overrides)

    def on_devices(self, devices: int | None, partition: str | None = None) -> "AtosConfig":
        """This config rebased onto ``devices`` simulated GPUs.

        The one place a device count turns a configuration into the
        distributed strategy (:mod:`repro.core.distributed`), keeping its
        name so cells stay comparable across device counts.  ``devices``
        of None/1 and BSP configs (no engine, no queues to distribute)
        come back unchanged; ``partition`` None keeps the config's own.
        """
        if not devices or devices <= 1 or self.strategy is KernelStrategy.BSP:
            return self
        overrides: dict = {"strategy": KernelStrategy.DISTRIBUTED, "devices": devices}
        if partition is not None:
            overrides["partition"] = partition
        return self.with_overrides(**overrides)

    def describe(self) -> str:
        """Short human-readable tag, e.g. ``persist-256-128``."""
        if self.is_persistent:
            kind = "persist"
        elif self.is_hybrid:
            kind = "hybrid"
        elif self.strategy is KernelStrategy.BSP:
            kind = "bsp"
        elif self.strategy is KernelStrategy.DISTRIBUTED:
            kind = f"dist{self.devices}-{self.partition}"
        else:
            kind = "discrete"
        if self.is_warp_worker and self.fetch_size == 1:
            return f"{kind}-warp"
        return f"{kind}-{self.worker_threads}-{self.fetch_size}"


# Named variants from Section 6.1.  Fetch/worker sizes follow the paper's
# Figure 4 sweet spots (CTA workers of 256 threads, fetch 128).
PERSIST_WARP = AtosConfig(
    strategy=KernelStrategy.PERSISTENT,
    worker_threads=32,
    fetch_size=1,
    internal_lb=False,
    registers_per_thread=56,
    name="persist-warp",
)

PERSIST_CTA = AtosConfig(
    strategy=KernelStrategy.PERSISTENT,
    worker_threads=256,
    fetch_size=64,
    internal_lb=True,
    registers_per_thread=56,
    name="persist-CTA",
)

DISCRETE_CTA = AtosConfig(
    strategy=KernelStrategy.DISCRETE,
    worker_threads=256,
    fetch_size=64,
    internal_lb=True,
    registers_per_thread=40,
    name="discrete-CTA",
)

DISCRETE_WARP = AtosConfig(
    strategy=KernelStrategy.DISCRETE,
    worker_threads=32,
    fetch_size=1,
    internal_lb=False,
    registers_per_thread=40,
    name="discrete-warp",
)

# Adaptive extension (not in the paper's Table 1): discrete while wide,
# persistent once narrow.  An adaptive kernel must compile the persistent
# queue loop, so it carries the persistent register budget.
HYBRID_CTA = AtosConfig(
    strategy=KernelStrategy.HYBRID,
    worker_threads=256,
    fetch_size=64,
    internal_lb=True,
    registers_per_thread=56,
    name="hybrid-CTA",
)

HYBRID_WARP = AtosConfig(
    strategy=KernelStrategy.HYBRID,
    worker_threads=32,
    fetch_size=1,
    internal_lb=False,
    registers_per_thread=56,
    name="hybrid-warp",
)

#: the paper's Section 6.1 variants, exactly as evaluated
VARIANTS: dict[str, AtosConfig] = {
    "persist-warp": PERSIST_WARP,
    "persist-CTA": PERSIST_CTA,
    "discrete-CTA": DISCRETE_CTA,
    "discrete-warp": DISCRETE_WARP,
}

#: the frontier-synchronous baseline, executed at application level
#: (worker/fetch fields are ignored by the BSP policy)
BSP_BASELINE = AtosConfig(strategy=KernelStrategy.BSP, name="BSP")

# Multi-device extension presets: persistent CTA-shaped workers per device
# (the shape the paper's persist-CTA uses), hash edge-cut by default so the
# presets work on any graph without locality assumptions.
DIST_2 = AtosConfig(
    strategy=KernelStrategy.DISTRIBUTED,
    worker_threads=256,
    fetch_size=64,
    internal_lb=True,
    registers_per_thread=56,
    devices=2,
    partition="hash",
    name="dist-2",
)

DIST_4 = DIST_2.with_overrides(devices=4, name="dist-4")

DIST_4_PCIE = DIST_2.with_overrides(
    devices=4, interconnect="pcie", name="dist-4-pcie"
)

#: every named configuration this repo ships (paper variants + extensions)
CONFIGS: dict[str, AtosConfig] = {
    **VARIANTS,
    "hybrid-CTA": HYBRID_CTA,
    "hybrid-warp": HYBRID_WARP,
    "BSP": BSP_BASELINE,
    "dist-2": DIST_2,
    "dist-4": DIST_4,
    "dist-4-pcie": DIST_4_PCIE,
}


def variant_by_name(name: str) -> AtosConfig:
    """Look up a named configuration (case-insensitive).

    Resolves the paper's four variants plus this repo's extensions
    (``hybrid-CTA``, ``hybrid-warp``).
    """
    for key, cfg in CONFIGS.items():
        if key.lower() == name.lower():
            return cfg
    raise KeyError(f"unknown variant {name!r}; known: {sorted(CONFIGS)}")
