"""Per-device worklists with interconnect-priced remote operations.

:class:`DeviceWorklist` is the multi-device sibling of
:class:`~repro.queueing.stealing.StealingWorklist`: one deque per *device*
(not per worker group), where every cross-device movement of work pays the
cluster's :class:`~repro.sim.spec.InterconnectSpec` cost model:

* a **remote push** (a completion whose new items belong to another
  device under the partition) reserves the directed ``src -> dst`` link —
  transfers behind an earlier transfer on the same link queue up — and
  the items only become poppable at ``link_end + latency``.  The
  scheduling of that arrival is the policy's job (it owns the event
  loop); this class owns the link clocks and the delivery;
* a **remote steal** reuses the parent's Fisher-Yates victim order, with
  ``steal_probe_ns`` set to the interconnect latency (a probe is a remote
  read of another device's queue counter).  A steal only proceeds when
  the estimated work of the loot beats :data:`STEAL_RATIO` times its
  transfer cost — the forwarding heuristic that makes stealing profitable
  on work-rich scale-free frontiers and a loss on narrow mesh wavefronts;
* the **host** (initial seeding, ``final_check`` re-seeds) scatters items
  directly into owner deques with no link cost, like a ``cudaMemcpy``
  staged before the launch.

Conservation is inherited: items enter a deque by push/delivery and leave
by pop/steal/drain, so the per-queue and distinct-item equations of
:func:`repro.check.invariants.verify_queue_conservation` hold unchanged.
The remote counters (``remote_pushes``, ``remote_items``,
``remote_steals``, ``comm_ns``) are
:class:`~repro.queueing.protocol.WorklistStats` fields the worklist keeps
in its ``own_stats`` record beside the steal counters, so the inherited
:meth:`~repro.queueing.stealing.StealingWorklist.stats` fold reports them
and single-device accounting stays untouched.
"""

from __future__ import annotations

import numpy as np

from repro.graph.partition import Partition
from repro.obs.events import EventSink, QueueSteal, RemotePush, RemoteSteal
from repro.queueing.stealing import StealingWorklist
from repro.sim.spec import InterconnectSpec

__all__ = ["DeviceWorklist", "STEAL_RATIO"]

#: a cross-device steal must promise at least this many ns of estimated
#: work per ns of transfer cost
STEAL_RATIO = 2.0


class DeviceWorklist(StealingWorklist):
    """One deque per device; remote push/steal pays the interconnect.

    ``home`` in :meth:`push`/:meth:`pop` is a **device index**, not a
    worker id — the distributed policy routes every worker through its
    device's deque.  Deques are named ``{name}@dev{i}`` so the invariant
    monitor and metrics sink can attribute queue events to devices by
    parsing the suffix.
    """

    def __init__(
        self,
        partition: Partition,
        interconnect: InterconnectSpec,
        *,
        capacity: int = 1 << 62,
        atomic_ns: float = 2.0,
        seed: int = 0,
        name: str = "dist",
        sink: EventSink | None = None,
        item_work_ns: float = 1.0,
    ) -> None:
        num_devices = partition.num_parts
        super().__init__(
            num_devices,
            capacity=capacity,
            atomic_ns=atomic_ns,
            steal_probe_ns=interconnect.latency_ns,
            seed=seed,
            name=name,
            sink=sink,
        )
        # rename the parent's deques to the device-tagged scheme the
        # check/metrics layers parse ("{name}[{i}]" -> "{name}@dev{i}")
        for i, d in enumerate(self.deques):
            d.name = f"{name}@dev{i}"
        self.partition = partition
        self.interconnect = interconnect
        #: estimated service time of one work item on its executing device;
        #: the steal gate compares loot work against transfer cost with it
        self.item_work_ns = float(item_work_ns)
        #: per-directed-link serialization clock (src, dst) -> free-at time
        self._link_free: dict[tuple[int, int], float] = {}

    # -- interconnect ---------------------------------------------------
    def reserve_link(self, src: int, dst: int, units: float, now: float) -> float:
        """Occupy the directed ``src -> dst`` link for ``units`` of payload.

        Returns the serialization end time; the payload is usable at
        ``end + latency``.  Link occupancy plus the latency are charged to
        ``comm_ns`` (queueing *behind* the link is waiting, not
        communication, and is visible in elapsed time instead).
        """
        link = self.interconnect
        key = (src, dst)
        start = self._link_free.get(key, 0.0)
        if now > start:
            start = now
        end = start + units / link.items_per_ns
        self._link_free[key] = end
        self.own_stats.comm_ns += (end - start) + link.latency_ns
        return end

    def send(
        self, src: int, dst: int, items: np.ndarray, now: float
    ) -> tuple[float, float]:
        """Start a remote push of ``items``; returns ``(arrival, transfer_ns)``.

        The caller (the distributed policy) schedules the arrival on its
        event loop and completes it with :meth:`deliver` — the items are
        in flight until then, owned by neither deque.
        """
        end = self.reserve_link(src, dst, float(items.size), now)
        arrive = end + self.interconnect.latency_ns
        self.own_stats.remote_pushes += 1
        self.own_stats.remote_items += int(items.size)
        return arrive, arrive - now

    def deliver(
        self, src: int, dst: int, items: np.ndarray, t: float, transfer_ns: float
    ) -> float:
        """Complete a remote push: land ``items`` in device ``dst``'s deque."""
        t_done = self.deques[dst].push(items, t)
        if self.sink is not None:
            self.sink.emit(
                RemotePush(
                    t=t,
                    src=src,
                    dst=dst,
                    items=int(items.size),
                    transfer_ns=transfer_ns,
                )
            )
        return t_done

    # -- worklist protocol ----------------------------------------------
    def push(self, items: np.ndarray, now: float = 0.0, *, home: int = 0) -> float:
        """Host-side scatter: route ``items`` to their owner deques, free.

        This is the seeding path (initial items, ``final_check`` refills):
        the host stages data on every device before work begins, so no
        link cost applies.  Device-side pushes go through
        :meth:`push_local` / :meth:`send` instead — ``home`` is ignored
        because ownership, not the producer, decides placement here.
        """
        if items.size == 0:
            return now
        owners = self.partition.owner_of(items)
        t = now
        for dev in np.unique(owners):
            t = max(t, self.deques[int(dev)].push(items[owners == dev], now))
        return t

    def push_local(self, dev: int, items: np.ndarray, now: float) -> float:
        """A device-side push into the producer's own deque."""
        return self.deques[dev].push(items, now)

    def pop(
        self,
        max_items: int,
        now: float = 0.0,
        *,
        home: int = 0,
        allow_steal: bool = True,
    ) -> tuple[np.ndarray, float]:
        """Pop from the home device's deque; optionally steal cross-device.

        The steal path mirrors the parent's probe loop but every probe
        costs one interconnect latency, the loot must pass the
        steal-ratio gate, and moving it reserves the victim->thief link —
        the items only become usable at the transfer's arrival time.
        """
        if max_items <= 0:
            raise ValueError("max_items must be positive")
        own = self.deques[home % self.num_queues]
        items, t = own.pop(max_items, now)
        if items.size or not allow_steal:
            return items, t
        link = self.interconnect
        for victim_idx in self._victim_order(home):
            t += self.steal_probe_ns  # remote queue-counter read
            victim = self.deques[victim_idx]
            if victim.size == 0:
                self.own_stats.failed_steals += 1
                continue
            take = max(1, victim.size // 2)
            # forwarding heuristic: stolen work must beat its freight
            if take * self.item_work_ns < STEAL_RATIO * link.transfer_ns(take):
                self.own_stats.failed_steals += 1
                continue
            loot, t = victim.pop(take, t)
            if loot.size == 0:
                self.own_stats.failed_steals += 1
                continue
            self.own_stats.steals += 1
            self.own_stats.remote_steals += 1
            end = self.reserve_link(victim_idx, home % self.num_queues, float(loot.size), t)
            arrive = end + link.latency_ns
            banked = int(loot.size) - max_items if loot.size > max_items else 0
            if self.sink is not None:
                self.sink.emit(
                    QueueSteal(
                        t=arrive,
                        thief=home % self.num_queues,
                        victim=victim_idx,
                        items=int(loot.size),
                        banked=banked,
                    )
                )
                self.sink.emit(
                    RemoteSteal(
                        t=arrive,
                        thief=home % self.num_queues,
                        victim=victim_idx,
                        items=int(loot.size),
                        transfer_ns=arrive - t,
                    )
                )
            if banked:
                self.own_stats.banked_items += banked
                arrive = own.push(loot[max_items:], arrive)
                loot = loot[:max_items]
            return loot, arrive
        return np.empty(0, dtype=np.int64), t
