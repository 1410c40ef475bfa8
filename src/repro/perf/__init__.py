"""repro.perf — wall-clock performance layer.

Three pieces, all pinned bit-identical by the golden-digest net in
``tests/test_equivalence.py``:

* :mod:`repro.perf.buildcache` — a keyed, process-wide cache for
  deterministic graph construction (datasets and generators), returning
  shared read-only :class:`~repro.graph.csr.Csr` instances;
* :mod:`repro.perf.parallel` — a process-parallel sweep runner over
  run specs with per-cell error isolation and deterministic result ordering;
* :mod:`repro.perf.bench` — the wall-clock benchmark scenario behind
  ``python -m repro perf`` and the committed ``BENCH_perf.json`` baseline.

The engine-level optimizations themselves (vectorized hot paths, cost-fn
specialisation, scalar app fast paths) live in the modules they speed up;
see ``docs/performance.md`` for the methodology and the invariants every
optimization must keep.
"""

from repro.perf.buildcache import cache_clear, cache_info, cached_graph
from repro.perf.parallel import CellError, run_cells
from repro.perf.bench import (
    BENCH_SCHEMA,
    bench_cells,
    calibrate,
    format_report,
    run_bench,
    validate_report,
)

__all__ = [
    "cached_graph",
    "cache_info",
    "cache_clear",
    "CellError",
    "run_cells",
    "BENCH_SCHEMA",
    "bench_cells",
    "calibrate",
    "run_bench",
    "validate_report",
    "format_report",
]
