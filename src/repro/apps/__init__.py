"""The paper's three case studies: BFS, PageRank, and graph coloring.

Each application module provides:

* an **Atos task kernel** implementing :class:`repro.core.TaskKernel` —
  the relaxed-barrier formulation (speculative BFS, asynchronous PageRank,
  asynchronous speculative coloring);
* a **BSP runner** — the Gunrock-style baseline (or, for coloring, the
  paper's own BSP speculative-greedy implementation, since Gunrock's
  independent-set coloring is not comparable) — that drives a
  :class:`~repro.bsp.engine.BspTimeline` and reads its result off it;
* an :class:`AppAdapter` registering both, so :func:`run_app` runs the
  app under any configuration and returns an :class:`AppResult` with
  timing, workload and correctness artifacts;
* pure-NumPy references (exact BFS depths, the PageRank fixed point,
  coloring conflicts) that the answer oracles in :mod:`repro.check.oracles`
  check a run against; :func:`repro.check.validate` is the one answer check.
"""

from repro.apps.common import (
    APP_REGISTRY,
    AppAdapter,
    AppResult,
    app_names,
    get_adapter,
    run_app,
)
from repro.apps import bfs, cc, coloring, delta_sssp, dynamic, kcore, mis, pagerank, sssp

__all__ = [
    "AppResult",
    "AppAdapter",
    "APP_REGISTRY",
    "app_names",
    "get_adapter",
    "run_app",
    "bfs",
    "pagerank",
    "coloring",
    "sssp",
    "cc",
    "delta_sssp",
    "dynamic",
    "kcore",
    "mis",
]
