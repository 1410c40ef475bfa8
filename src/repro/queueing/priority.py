"""Bucketed priority work list (delta-stepping style).

The paper's single FIFO queue treats all ready work as equal.  For
priority-ordered algorithms (SSSP being the canonical case) a *bucketed*
work list — an array of FIFO queues indexed by ``priority // delta`` —
recovers most of the ordering benefit of a heap at queue-like cost, which
is exactly the classic delta-stepping structure.  This module provides the
simulated bucket list with the same atomic timing model as
:class:`~repro.queueing.mpmc.MpmcQueue`, plus the scheduling convention
used by :mod:`repro.apps.delta_sssp`: pops always come from the lowest
non-empty bucket.

Buckets beyond ``num_buckets`` wrap around (a circular bucket array, as in
practical delta-stepping implementations); correctness is preserved
because items are re-examined against the distance array at pop.
"""

from __future__ import annotations

import numpy as np

from repro.queueing.mpmc import MpmcQueue
from repro.queueing.protocol import WorklistStats

__all__ = ["BucketedWorklist"]


class BucketedWorklist:
    """Circular array of FIFO buckets keyed by ``priority // delta``."""

    def __init__(
        self,
        delta: float,
        *,
        num_buckets: int = 64,
        atomic_ns: float = 2.0,
        name: str = "buckets",
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.delta = float(delta)
        #: the buckets, named like ``QueueBroker.queues`` so that checkers
        #: walking a worklist's physical queues find them
        self.queues = [
            MpmcQueue(atomic_ns=atomic_ns, name=f"{name}[{i}]")
            for i in range(num_buckets)
        ]
        #: index of the lowest bucket that may hold work
        self.cursor = 0

    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return len(self.queues)

    @property
    def size(self) -> int:
        return sum(b.size for b in self.queues)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def bucket_of(self, priority: float) -> int:
        """Bucket index for a priority value (circular)."""
        if priority < 0:
            raise ValueError("priorities must be non-negative")
        return int(priority / self.delta) % self.num_buckets

    # ------------------------------------------------------------------
    def push(self, items: np.ndarray, priorities: np.ndarray, now: float = 0.0) -> float:
        """Scatter items into buckets by priority; returns last op time."""
        items = np.asarray(items, dtype=np.int64).ravel()
        priorities = np.asarray(priorities, dtype=np.float64).ravel()
        if items.shape != priorities.shape:
            raise ValueError("items and priorities must align")
        if items.size == 0:
            return now
        if priorities.min() < 0:
            raise ValueError("priorities must be non-negative")
        idx = (priorities / self.delta).astype(np.int64) % self.num_buckets
        t = now
        for b in np.unique(idx):
            t = max(t, self.queues[b].push(items[idx == b], now))
        return t

    def pop(self, max_items: int, now: float = 0.0) -> tuple[np.ndarray, float]:
        """Pop from the lowest non-empty bucket at or after the cursor.

        Advances the cursor past exhausted buckets (each advance costs one
        empty-pop atomic on the skipped bucket — the "find next bucket"
        scan of real delta-stepping).
        """
        if max_items <= 0:
            raise ValueError("max_items must be positive")
        t = now
        for _ in range(self.num_buckets):
            bucket = self.queues[self.cursor]
            items, t = bucket.pop(max_items, t)
            if items.size:
                return items, t
            self.cursor = (self.cursor + 1) % self.num_buckets
        return np.empty(0, dtype=np.int64), t

    def stats(self) -> WorklistStats:
        """The buckets' counters, folded (priority push, no stealing)."""
        return WorklistStats.total(b.stats for b in self.queues)
