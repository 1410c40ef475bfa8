"""The Atos task-parallel scheduler — the paper's primary contribution.

The design space of Section 3 maps onto :class:`AtosConfig`:

* **kernel strategy** — ``persistent`` (one launch, workers loop until
  quiescence) vs. ``discrete`` (one launch per queue generation);
* **worker size** — thread (1), warp (32), or CTA (a multiple of 32
  threads);
* **data vs. task parallelism** — ``fetch_size`` items per pop, with the
  in-worker load-balancing search enabled for CTA workers;
* **relaxed barriers** — implicit: the persistent scheduler never inserts a
  global barrier, so cross-frontier asynchrony (and its overwork) emerges
  from the simulated timing.

:func:`run_policy` executes an application kernel (see :class:`TaskKernel`)
under a configuration and returns a :class:`RunResult` with timing,
workload, queue and trace statistics.
"""

from repro.core.config import (
    BSP_BASELINE,
    CONFIGS,
    DISCRETE_CTA,
    DISCRETE_WARP,
    HYBRID_CTA,
    HYBRID_WARP,
    PERSIST_CTA,
    PERSIST_WARP,
    VARIANTS,
    AtosConfig,
    KernelStrategy,
    variant_by_name,
)
from repro.core.kernel import CompletionResult, TaskKernel
from repro.core.policy import (
    POLICIES,
    ExecutionPolicy,
    PolicyOutcome,
    policy_for,
    register_policy,
    run_policy,
)
from repro.core.engine import ExecutionEngine, RunResult
from repro.core.api import Atos
from repro.core.dag import Dag, DagKernel, JoinCounters

__all__ = [
    "AtosConfig",
    "KernelStrategy",
    "PERSIST_WARP",
    "PERSIST_CTA",
    "DISCRETE_CTA",
    "DISCRETE_WARP",
    "HYBRID_CTA",
    "HYBRID_WARP",
    "BSP_BASELINE",
    "VARIANTS",
    "CONFIGS",
    "variant_by_name",
    "TaskKernel",
    "CompletionResult",
    "RunResult",
    "ExecutionPolicy",
    "ExecutionEngine",
    "PolicyOutcome",
    "POLICIES",
    "policy_for",
    "register_policy",
    "run_policy",
    "Atos",
    "Dag",
    "DagKernel",
    "JoinCounters",
]
