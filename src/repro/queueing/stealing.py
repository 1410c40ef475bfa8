"""Work-stealing worklist — the distributed-queue alternative.

The paper's Section 1 argues for a *single shared queue* because it
"balances load more quickly than a distributed queue, yet is fast enough to
keep GPU workers occupied".  This module implements the alternative the
claim is measured against: per-worker-group deques with steal-on-empty
(Cederman & Tsigas-style GPU work stealing, the paper's reference [7]).

Timing model: each deque has its own atomic pair (owner pops and thief
steals serialize on it); a steal additionally pays ``steal_probe_ns`` per
*probed* deque, modeling the remote-scan cost that makes distributed
queues slower to balance.  :mod:`benchmarks/bench_ablations` uses the drop-in
:class:`StealingWorklist` to put numbers on the paper's design claim.
"""

from __future__ import annotations

import numpy as np

from repro.obs.events import EventSink, QueueSteal
from repro.queueing.mpmc import MpmcQueue
from repro.queueing.protocol import WorklistStats

__all__ = ["StealingWorklist"]


class StealingWorklist:
    """Per-group deques with steal-on-empty.

    API-compatible with :class:`~repro.queueing.broker.QueueBroker`
    (``push(items, now)``, ``pop(max_items, now, home=...)``, ``size``) so
    the scheduler can run on either — workers push to their *home* deque
    and steal half a victim's items when theirs runs dry.
    """

    def __init__(
        self,
        num_deques: int = 8,
        *,
        capacity: int = 1 << 62,
        atomic_ns: float = 2.0,
        steal_probe_ns: float = 30.0,
        seed: int = 0,
        name: str = "steal",
        sink: EventSink | None = None,
    ) -> None:
        if num_deques <= 0:
            raise ValueError("num_deques must be positive")
        if steal_probe_ns < 0:
            raise ValueError("steal_probe_ns must be non-negative")
        self.deques = [
            MpmcQueue(capacity, atomic_ns=atomic_ns, name=f"{name}[{i}]", sink=sink)
            for i in range(num_deques)
        ]
        self.steal_probe_ns = float(steal_probe_ns)
        #: steal outcomes (and, on a device worklist, interconnect
        #: traffic); :meth:`stats` folds them with the deques' records
        self.own_stats = WorklistStats()
        self._probe_seq = seed
        self.sink = sink

    # ------------------------------------------------------------------
    @property
    def num_queues(self) -> int:
        return len(self.deques)

    @property
    def size(self) -> int:
        return sum(d.size for d in self.deques)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    # ------------------------------------------------------------------
    def push(self, items: np.ndarray, now: float = 0.0, *, home: int = 0) -> float:
        """Push to the producer's own deque (no scatter)."""
        return self.deques[home % self.num_queues].push(items, now)

    def _victim_order(self, home: int) -> list[int]:
        """Seeded deterministic permutation of the victims (excludes home).

        A Fisher-Yates shuffle driven by the worklist's LCG, so every
        ordering of the victims is reachable.  (An earlier version only
        rotated the fixed ring ``home+1, home+2, ...`` from a random start,
        which always probed ``start+1`` before ``start+2`` — a selection
        bias the Cederman & Tsigas model doesn't have.)  One shared LCG,
        not per-home state, keeps the sequence reproducible across
        interleaved thieves; a single-victim worklist has only one
        ordering, so it draws nothing.
        """
        n = self.num_queues
        order = [v for v in range(n) if v != home % n]
        seq = self._probe_seq
        for i in range(len(order) - 1, 0, -1):
            seq = (seq * 1103515245 + 12345) & 0x7FFFFFFF
            # draw from the high bits: the glibc-style LCG's low bits have
            # tiny periods modulo small i (the multiplier is divisible by 3)
            j = (seq >> 16) % (i + 1)
            order[i], order[j] = order[j], order[i]
        self._probe_seq = seq
        return order

    def pop(self, max_items: int, now: float = 0.0, *, home: int = 0) -> tuple[np.ndarray, float]:
        """Pop from the home deque; on empty, probe victims and steal half."""
        if max_items <= 0:
            raise ValueError("max_items must be positive")
        own = self.deques[home % self.num_queues]
        items, t = own.pop(max_items, now)
        if items.size:
            return items, t
        for victim_idx in self._victim_order(home):
            t += self.steal_probe_ns  # remote probe cost
            victim = self.deques[victim_idx]
            if victim.size == 0:
                self.own_stats.failed_steals += 1
                continue
            # steal half the victim's items (classic stealing granularity)
            take = max(1, victim.size // 2)
            loot, t = victim.pop(take, t)
            if loot.size == 0:
                self.own_stats.failed_steals += 1
                continue
            self.own_stats.steals += 1
            banked = int(loot.size) - max_items if loot.size > max_items else 0
            if self.sink is not None:
                self.sink.emit(
                    QueueSteal(
                        t=t,
                        thief=home % self.num_queues,
                        victim=victim_idx,
                        items=int(loot.size),
                        banked=banked,
                    )
                )
            # keep what we can process now; bank the rest in our own deque.
            # The banking push serializes on our deque's tail atomic like
            # any other push, so its completion time is charged to the
            # steal (a previous version dropped it, making banked surplus
            # free in simulated time and flattering stealing in the
            # bench_ablations comparison).  Banked items hit the push/pop
            # item counters a second time; ``banked_items`` records how
            # many, so distinct-item accounting can subtract them.
            if banked:
                self.own_stats.banked_items += banked
                t = own.push(loot[max_items:], t)
                loot = loot[:max_items]
            return loot, t
        return np.empty(0, dtype=np.int64), t

    def drain(self) -> np.ndarray:
        """Snapshot-and-clear all deques (deque order)."""
        parts = [d.drain() for d in self.deques]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def stats(self) -> WorklistStats:
        """Deque counters plus the steal outcomes (``Worklist`` protocol)."""
        return WorklistStats.total([*(d.stats for d in self.deques), self.own_stats])
