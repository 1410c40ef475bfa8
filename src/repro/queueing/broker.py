"""Multi-queue broker — the ``Queues`` object of the paper's Listing 3.

Atos allocates ``num_queues`` physical queues per logical work list.  With
one queue all workers contend on a single pair of atomic counters; with
several, pushes are scattered round-robin and each worker pops from a home
queue first, then steals from siblings.  The paper uses a single shared
queue for its headline results ("fast enough to keep GPU workers
occupied"); the broker makes the 1-vs-N comparison an experiment instead of
a constant.
"""

from __future__ import annotations

import numpy as np

from repro.obs.events import EventSink
from repro.queueing.mpmc import MpmcQueue
from repro.queueing.protocol import WorklistStats

__all__ = ["QueueBroker"]


class QueueBroker:
    """Round-robin scatter over ``num_queues`` :class:`MpmcQueue` instances."""

    def __init__(
        self,
        num_queues: int = 1,
        *,
        capacity: int = 1 << 62,
        atomic_ns: float = 2.0,
        name: str = "worklist",
        sink: EventSink | None = None,
    ) -> None:
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.queues = [
            MpmcQueue(capacity, atomic_ns=atomic_ns, name=f"{name}[{i}]", sink=sink)
            for i in range(num_queues)
        ]
        self._push_cursor = 0
        self.name = name
        #: fast path: with one physical queue (the paper's headline setup)
        #: push/pop/size skip the scatter machinery entirely
        self._single = self.queues[0] if num_queues == 1 else None

    # ------------------------------------------------------------------
    @property
    def num_queues(self) -> int:
        return len(self.queues)

    @property
    def size(self) -> int:
        """Total items across all physical queues."""
        single = self._single
        if single is not None:
            return single._tail - single._head
        return sum(q.size for q in self.queues)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    # ------------------------------------------------------------------
    def push(self, items: np.ndarray, now: float = 0.0, *, home: int = 0) -> float:
        """Scatter ``items`` round-robin; returns the last completion time.

        ``home`` is accepted for API compatibility with
        :class:`~repro.queueing.stealing.StealingWorklist` (which pushes to
        the producer's own deque); the shared broker ignores it.
        """
        single = self._single
        if single is not None:
            return single.push(items, now)
        items = np.asarray(items, dtype=np.int64).ravel()
        if items.size == 0:
            return now
        n = self.num_queues
        t = now
        # round-robin in contiguous chunks: item k goes to queue
        # (cursor + k) % n, realised as n strided slices (vectorised).
        for offset in range(n):
            qi = (self._push_cursor + offset) % n
            chunk = items[offset::n]
            if chunk.size:
                t = max(t, self.queues[qi].push(chunk, now))
        self._push_cursor = (self._push_cursor + items.size) % n
        return t

    def pop(self, max_items: int, now: float = 0.0, *, home: int = 0) -> tuple[np.ndarray, float]:
        """Pop up to ``max_items``, preferring the worker's home queue.

        Visits queues starting at ``home % num_queues`` and steals from
        siblings until the request is filled or every queue came up empty.
        Each visited queue charges its own atomic cost.
        """
        single = self._single
        if single is not None:
            return single.pop(max_items, now)
        n = self.num_queues
        collected: list[np.ndarray] = []
        remaining = max_items
        t = now
        for offset in range(n):
            q = self.queues[(home + offset) % n]
            if q.size == 0 and collected:
                continue  # don't pay for obviously-empty siblings once fed
            got, t_op = q.pop(remaining, t)
            t = t_op
            if got.size:
                collected.append(got)
                remaining -= got.size
                if remaining == 0:
                    break
        if not collected:
            return np.empty(0, dtype=np.int64), t
        return np.concatenate(collected) if len(collected) > 1 else collected[0], t

    def drain(self) -> np.ndarray:
        """Snapshot-and-clear all queues in global push order.

        Used by the discrete kernel strategy to materialise one generation.
        Returns the remaining items in the exact order they were pushed —
        regardless of ``num_queues`` and of any pops in between —
        preserving the global vertex-id ordering that the coloring study
        (Section 6.3) depends on.

        The round-robin scatter puts the ``g``-th item ever pushed into
        physical queue ``g % n`` (the cursor advances by each push's item
        count, so consecutive items land in consecutive queues across push
        boundaries).  Queues are strict FIFOs and pops only remove from the
        head, so the ``j``-th item *remaining* in queue ``q`` has global
        index ``(removed_q + j) * n + q`` where ``removed_q`` counts every
        item ever popped or drained from that queue.  Merging by global
        index reconstructs exact push order.  (A previous version
        interleaved parts starting at queue 0 and index 0, which reordered
        items whenever the push cursor was mid-rotation — e.g. pushing
        ``a b`` after pops emptied the queues drained as ``b a``.)
        """
        n = self.num_queues
        if n == 1:
            return self.queues[0].drain()
        parts: list[np.ndarray] = []
        order_keys: list[np.ndarray] = []
        for qi, q in enumerate(self.queues):
            removed = q.stats.items_popped + q.stats.items_drained
            part = q.drain()
            if part.size:
                parts.append(part)
                order_keys.append(
                    (removed + np.arange(part.size, dtype=np.int64)) * n + qi
                )
        if not parts:
            return np.empty(0, dtype=np.int64)
        items = np.concatenate(parts)
        order = np.argsort(np.concatenate(order_keys), kind="stable")
        return items[order]

    def stats(self) -> WorklistStats:
        """The physical queues' counters, folded (``Worklist`` protocol).

        A shared broker never steals, so the stealing counters are zero.
        """
        return WorklistStats.total(q.stats for q in self.queues)
