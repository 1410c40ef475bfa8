"""The formal ``Worklist`` protocol the scheduler runs against.

The execution engine used to duck-type its way across queue
implementations (``hasattr(q, "queues")`` to find the backing FIFOs,
``getattr(q, "steals", 0)`` for stealing counters).  This module replaces
that with an explicit contract: anything the scheduler can drive must
provide ``push`` / ``pop`` / ``size`` / ``stats()``, where ``stats()``
returns one :class:`WorklistStats` record aggregated over every physical
queue the worklist owns.  It is the only queue-counter record: a queue,
a stealing worklist and a run (``RunResult.queue``) each keep one, and
every total is a fold of them with ``+=``.

Implementations in this package:

* :class:`~repro.queueing.broker.QueueBroker` — the paper's shared
  multi-queue worklist (round-robin scatter, home-queue pop);
* :class:`~repro.queueing.stealing.StealingWorklist` — per-group deques
  with steal-on-empty (the distributed alternative of reference [7]);
* :class:`~repro.queueing.priority.BucketedWorklist` — delta-stepping
  buckets (push takes priorities, so it satisfies the stats/size half of
  the contract and is driven by the BSP timeline rather than the engine).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

__all__ = ["WorklistStats", "Worklist"]


@dataclass
class WorklistStats:
    """Operation counters for one queue, one logical worklist or one run.

    A physical queue fills the operation counters; a stealing worklist
    adds its steal outcomes and a device worklist its interconnect
    traffic (zero elsewhere).  ``+=`` folds two records field by field.
    """

    pushes: int = 0
    pops: int = 0
    items_pushed: int = 0
    items_popped: int = 0
    #: items removed by a host-side drain (a generation snapshot), not by
    #: a worker pop, so ``items_pushed == items_popped + items_drained +
    #: size`` holds for every physical queue
    items_drained: int = 0
    empty_pops: int = 0
    contention_wait_ns: float = 0.0
    steals: int = 0
    failed_steals: int = 0
    #: items re-pushed into the thief's own deque as stolen surplus.  These
    #: are counted a second time in ``items_pushed`` (the banking push is a
    #: real queue operation) and their steal-pop a second time in
    #: ``items_popped``, so *distinct* item totals are
    #: ``items_pushed - banked_items`` / ``items_popped - banked_items``.
    banked_items: int = 0

    # --- multi-device counters (zero on single-device worklists) ---------
    #: pushes whose producer device differed from the item's owner device
    remote_pushes: int = 0
    #: items those remote pushes carried across the interconnect
    remote_items: int = 0
    #: successful steals whose victim deque lived on another device
    remote_steals: int = 0
    #: total simulated time spent occupying interconnect links
    comm_ns: float = 0.0

    def __iadd__(self, other: WorklistStats) -> WorklistStats:
        for name in _FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @classmethod
    def total(cls, records: Iterable[WorklistStats]) -> WorklistStats:
        """A new record holding the field-wise sum of ``records``."""
        agg = cls()
        for r in records:
            agg += r
        return agg


_FIELDS = tuple(f.name for f in fields(WorklistStats))


@runtime_checkable
class Worklist(Protocol):
    """What the execution engine requires of a work list.

    ``push``/``pop`` carry simulated time (operations complete at the
    returned instant); ``home`` identifies the calling worker's group for
    organisations that care (stealing deques, home-queue brokers).
    """

    def push(self, items: np.ndarray, now: float = 0.0, *, home: int = 0) -> float:
        """Append ``items``; returns the simulated completion time."""
        ...

    def pop(
        self, max_items: int, now: float = 0.0, *, home: int = 0
    ) -> tuple[np.ndarray, float]:
        """Remove up to ``max_items``; returns ``(items, completion_time)``."""
        ...

    @property
    def size(self) -> int:
        """Items currently queued across all physical queues."""
        ...

    def stats(self) -> WorklistStats:
        """Aggregated operation counters since construction."""
        ...

    def drain(self) -> np.ndarray:
        """Snapshot-and-clear all physical queues (generation switch)."""
        ...
