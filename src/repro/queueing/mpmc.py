"""A simulated multi-producer/multi-consumer FIFO queue.

Payloads are ``int64`` work items (vertex ids; the coloring app also stores
negated ids as conflict-check tags).  Storage is a flat ring buffer that
doubles on demand — pops slice contiguous runs, so a fetch of ``k`` items is
O(k) with no Python-level per-item loop.

Timing model
------------
Real Atos queues serialize on two atomic counters (head and tail).  We model
each operation as acquiring the queue's atomic for ``atomic_ns`` simulated
nanoseconds: operations arriving while the atomic is held queue up behind
it.  ``stats.contention_wait_ns`` (the queue's
:class:`~repro.queueing.protocol.WorklistStats` record) accumulates the
induced waiting so experiments can report how far a single shared queue
is from becoming the bottleneck (it never is, in the paper and in our
runs — but the model lets us check rather than assume).

Conservation
------------
Items leave a queue by exactly two routes — :meth:`MpmcQueue.pop` (counted
in ``stats.items_popped``) and :meth:`MpmcQueue.drain` (counted in
``stats.items_drained``, deliberately *not* in ``items_popped``: a drain
is a host-side generation snapshot, not a worker pop, and the broker's
order-preserving drain needs the two counted separately).  So at any
instant every queue satisfies::

    stats.items_pushed == stats.items_popped + stats.items_drained + size

:func:`repro.check.invariants.verify_queue_conservation` asserts this
equation; ``tests/test_check_invariants.py`` exercises it.
"""

from __future__ import annotations

import numpy as np

from repro.obs.events import EmptyPop, EventSink, QueuePop, QueuePush
from repro.queueing.protocol import WorklistStats

__all__ = ["MpmcQueue"]

#: shared zero-length result for empty pops (never mutable: it has no
#: elements to write, and callers only inspect ``.size``)
_EMPTY = np.empty(0, dtype=np.int64)


class MpmcQueue:
    """FIFO of int64 items with an atomic-serialization timing model."""

    __slots__ = (
        "_buf",
        "_head",
        "_tail",
        "_pop_atomic_free",
        "_push_atomic_free",
        "atomic_ns",
        "capacity",
        "stats",
        "name",
        "sink",
    )

    def __init__(
        self,
        capacity: int = 1 << 62,
        *,
        atomic_ns: float = 2.0,
        initial_buffer: int = 1024,
        name: str = "queue",
        sink: EventSink | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._buf = np.empty(max(16, initial_buffer), dtype=np.int64)
        self._head = 0  # index of next item to pop
        self._tail = 0  # index one past the last item
        # Head and tail counters are distinct atomics on the device, so pop
        # and push traffic serialize independently.
        self._pop_atomic_free = 0.0
        self._push_atomic_free = 0.0
        self.atomic_ns = float(atomic_ns)
        self.capacity = int(capacity)
        self.stats = WorklistStats()
        self.name = name
        #: optional observability sink; ``None`` disables event emission
        #: entirely (emit points reduce to one attribute test)
        self.sink = sink

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of items currently queued."""
        return self._tail - self._head

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def _ensure_room(self, extra: int) -> None:
        if self._tail + extra <= self._buf.size:
            return
        live = self.size
        need = live + extra
        new_size = self._buf.size
        while new_size < need:
            new_size *= 2
        new_buf = np.empty(new_size, dtype=np.int64)
        new_buf[:live] = self._buf[self._head : self._tail]
        self._buf = new_buf
        self._head = 0
        self._tail = live

    # ------------------------------------------------------------------
    def push(self, items: np.ndarray, now: float = 0.0) -> float:
        """Append ``items``; returns the simulated completion time.

        Raises :class:`OverflowError` when the queue would exceed its
        configured capacity — mirroring the fixed-size device buffers the
        real framework allocates in ``Queues::init``.
        """
        items = np.asarray(items, dtype=np.int64).ravel()
        k = items.size
        if k == 0:
            return now
        if self.size + k > self.capacity:
            raise OverflowError(
                f"queue {self.name!r} over capacity: "
                f"{self.size} + {k} > {self.capacity}"
            )
        # serialize on the tail counter: the atomic starts once it is free
        stats = self.stats
        free = self._push_atomic_free
        start = now if now > free else free
        stats.contention_wait_ns += start - now
        t = self._push_atomic_free = start + self.atomic_ns
        self._ensure_room(k)
        tail = self._tail
        self._buf[tail : tail + k] = items
        self._tail = tail + k
        stats.pushes += 1
        stats.items_pushed += k
        if self.sink is not None:
            self.sink.emit(
                QueuePush(
                    t=t,
                    queue=self.name,
                    items=int(items.size),
                    depth=self.size,
                    wait_ns=max(0.0, t - now - self.atomic_ns),
                )
            )
        return t

    def pop(self, max_items: int, now: float = 0.0) -> tuple[np.ndarray, float]:
        """Remove up to ``max_items`` from the head.

        Returns ``(items, completion_time)``.  An empty pop still pays the
        atomic cost (the worker had to look), and is counted separately in
        the stats — empty pops are what drive the persistent kernel's
        polling overhead.
        """
        if max_items <= 0:
            raise ValueError("max_items must be positive")
        # serialize on the head counter: the atomic starts once it is free
        stats = self.stats
        free = self._pop_atomic_free
        start = now if now > free else free
        stats.contention_wait_ns += start - now
        t = self._pop_atomic_free = start + self.atomic_ns
        head = self._head
        n = self._tail - head
        if n > max_items:
            n = max_items
        if n == 0:
            stats.empty_pops += 1
            if self.sink is not None:
                self.sink.emit(
                    EmptyPop(
                        t=t,
                        queue=self.name,
                        wait_ns=max(0.0, t - now - self.atomic_ns),
                    )
                )
            return _EMPTY, t
        out = self._buf[head : head + n].copy()
        self._head = head = head + n
        stats.pops += 1
        stats.items_popped += n
        if head == self._tail:
            # reset to keep the buffer compact
            self._head = self._tail = 0
        if self.sink is not None:
            self.sink.emit(
                QueuePop(
                    t=t,
                    queue=self.name,
                    items=n,
                    depth=self.size,
                    wait_ns=max(0.0, t - now - self.atomic_ns),
                )
            )
        return out, t

    def drain(self) -> np.ndarray:
        """Remove and return everything (no timing; used by discrete mode
        to snapshot a generation and by tests).

        Drained items bypass ``stats.items_popped`` by design — they are
        accounted in ``stats.items_drained``, keeping the conservation
        equation ``items_pushed == items_popped + items_drained + size``
        exact (see the module docstring)."""
        out = self._buf[self._head : self._tail].copy()
        self._head = self._tail = 0
        self.stats.items_drained += out.size
        return out

    def peek_all(self) -> np.ndarray:
        """A copy of the current contents without removing them."""
        return self._buf[self._head : self._tail].copy()
