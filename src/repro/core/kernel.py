"""The application-kernel protocol the scheduler executes.

An application (BFS, PageRank, coloring, or anything matching Listing 1 of
the paper) implements :class:`TaskKernel`.  Each task passes through three
phases, mirroring how a GPU worker interacts with device memory:

* ``work_estimate(items)`` — structural lookup only (degrees); feeds the
  cost model.  Runs logically at pop time and reads no mutable state.
* ``on_read(items, t)`` — all **reads** of shared mutable state (depths,
  residues, colors) and all decisions derived from them.  The scheduler
  invokes it at the task's *read instant*: in a persistent kernel that is
  shortly before the task's completion slot on the shared memory server
  (``GpuSpec.read_lead_ns`` models the outstanding-load window), so reads
  from consecutive pops are nearly serialized — the "hardware scheduler is
  much less ordered" effect of Section 6.3.  In a discrete kernel every
  task launched in a wave reads at its pop instant, so an entire wave
  observes the same stale snapshot.
* ``on_complete(items, payload, t)`` — all **writes** (atomicMin results,
  residue pushes, color commits) and all queue pushes.

Everything between a task's read and its completion sees *stale* state —
exactly how concurrently-resident GPU workers interact through device
memory, and what produces the misspeculation, duplicate work, and coloring
conflicts the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = ["CompletionResult", "TaskKernel"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(slots=True)
class CompletionResult:
    """What ``on_complete`` hands back to the scheduler.

    ``new_items`` are pushed onto the work list at the completion time.
    ``items_retired`` counts work items finished (the throughput trace
    unit).  ``work_units`` counts application work (edges traversed for
    BFS/PR, color assignments for coloring) — the Table 4 currency.
    One instance is allocated per completed task, so it carries slots.
    """

    new_items: np.ndarray = field(default_factory=lambda: _EMPTY)
    items_retired: int = 0
    work_units: float = 0.0


@runtime_checkable
class TaskKernel(Protocol):
    """Application callbacks driven by the scheduler.

    Implementations must be deterministic: given the same read/complete
    times and orderings they must produce the same results, because the
    regression suite replays runs and compares bit-for-bit.
    """

    def initial_items(self) -> np.ndarray:
        """Work items seeded into the queue before the first launch."""
        ...

    def work_estimate(self, items: np.ndarray) -> tuple[int, int]:
        """``(edge_work, max_degree)`` for the cost model.

        Must depend only on immutable structure (the CSR graph), never on
        mutable algorithm state.
        """
        ...

    def on_read(self, items: np.ndarray, t: float) -> Any:
        """Read-phase: consume shared state, return a private payload."""
        ...

    def on_complete(self, items: np.ndarray, payload: Any, t: float) -> CompletionResult:
        """Write-phase: apply effects, return pushes and accounting."""
        ...

    def final_check(self, t: float) -> np.ndarray:
        """Quiescence hook: called when the queue is empty and nothing is in
        flight.  Returning a non-empty array resumes execution with those
        items (e.g. PageRank's residual scan); returning empty ends the run.
        """
        ...

    # Optional hooks (duck-typed, looked up with getattr):
    #
    # ``generation_check(t) -> np.ndarray`` — the paper's f2 function: run
    # by discrete-mode policies at each generation barrier; non-empty
    # return extends the run with those items.
    #
    # ``rebase(graph, applied) -> None`` — dynamic-graph support
    # (:func:`repro.apps.common.replay_app` calls it between epochs): swap
    # the kernel onto a mutated CSR snapshot and convert the effective
    # edge changes (an :class:`~repro.graph.delta.AppliedBatch`) into
    # repair seeds, which the *next* ``initial_items()`` call must return.
    # State (depths, labels, ranks) carries over — that is the point of an
    # incremental kernel.  Only kernels implementing ``rebase`` can run
    # multi-epoch.
