"""The distributed execution policy: N devices, one simulated clock.

This is the multi-GPU extension the Atos authors' follow-up work targets:
each device runs a persistent-kernel worker pool against its *own* deque
of a :class:`~repro.queueing.device.DeviceWorklist`; the graph is split by
a :func:`~repro.graph.partition.partition_graph` placement, completions
forward new work to its owner device over the interconnect, and idle
devices pull work back with interconnect-priced steals.

Everything shares one event heap and one drain loop
(:meth:`~repro.core.engine.ExecutionEngine.drain_events`), so
cross-device causality is free: a remote push is an ``ARRIVE`` event
scheduled at its link-transfer completion, and the destination's parked
workers wake when it lands — no per-device clock skew to reconcile.
:class:`DeviceEngine` supplies the device-aware versions of the loop's
generic steps (pop, push, completion tail, arrival); the policy keeps the
setup and the outer wake-all / ``final_check`` loop.

Execution model per device:

* its own :class:`~repro.sim.memory.BandwidthServer` and cost closure
  (per-device HBM; devices never contend on each other's memory);
* its own occupancy-derived worker slots (global worker id = device base
  + local slot, so obs events stay worker-attributed and device
  attribution is a range lookup);
* a worker that pops its device's deque empty parks; it may probe remote
  deques (paying one interconnect latency per probe) only once the
  device's consecutive-empty-pop streak reaches :data:`STEAL_IDLE_THRESHOLD`,
  and a steal only proceeds when the loot's estimated work beats
  :data:`~repro.queueing.device.STEAL_RATIO` times its transfer cost.

Stolen (and steal-banked) items execute away from their owner, so their
edge traffic is additionally charged to the owner->executor link — the
remote-data-access cost that makes meshes punish stealing while
work-rich rmat frontiers absorb it (the ``bench_multigpu`` shape result).

``devices=1`` never reaches this module: single-device configurations
keep their original strategies, and the classic policies are untouched —
the golden-digest matrix pins that.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from heapq import heappush

import numpy as np

from repro.core.engine import _ARRIVE, ExecutionEngine, SchedulerError, _worker_slots
from repro.core.policy import (
    ExecutionPolicy,
    PolicyOutcome,
    register_policy,
)
from repro.core.config import KernelStrategy
from repro.graph.partition import Partition, partition_graph, resolve_partition_choice
from repro.obs.events import KernelLaunch
from repro.queueing.device import DeviceWorklist
from repro.sim.cost import make_cost_fn
from repro.sim.memory import BandwidthServer
from repro.sim.spec import cluster_for

__all__ = ["DeviceState", "DeviceEngine", "DistributedPolicy", "STEAL_IDLE_THRESHOLD"]

#: consecutive empty local pops a device's workers must see before one
#: of them may probe remote deques
STEAL_IDLE_THRESHOLD = 2


@dataclass
class DeviceState:
    """Per-device simulated hardware plus scheduling state."""

    index: int
    mem: BandwidthServer
    cost_fn: object
    slots: int
    base: int  # first global worker id on this device
    occupancy: float
    idle: list[int] = dataclass_field(default_factory=list)
    #: consecutive empty local pops across the device's workers; gates the
    #: steal permission and resets on any successful pop
    idle_streak: int = 0
    # per-device accounting, surfaced as RunResult.device_stats
    tasks: int = 0
    items_retired: int = 0
    work_units: float = 0.0

    def snapshot(self) -> dict:
        return {
            "device": self.index,
            "worker_slots": self.slots,
            "tasks": self.tasks,
            "items_retired": self.items_retired,
            "work_units": self.work_units,
            "mem_busy_ns": self.mem.busy_time,
        }


class DeviceEngine(ExecutionEngine):
    """The engine with device-aware generic steps.

    :class:`DistributedPolicy` sets ``devices``, ``device_of`` (global
    worker id -> its :class:`DeviceState`), ``partition`` and the
    :class:`DeviceWorklist` queue before the first drain, so every
    completion runs through the overrides below.
    """

    devices: list[DeviceState]
    device_of: list[DeviceState]
    partition: Partition

    def push(self, worker: int, items: np.ndarray, t: float) -> None:
        """Send a completion's pushes home: local free, remote via link."""
        d = self.device_of[worker]
        wl = self.queue
        owners = self.partition.owner_of(items)
        local = items[owners == d.index]
        if local.size:
            wl.push_local(d.index, local, t)
        if local.size == items.size:
            return
        for dst in np.unique(owners):
            dst = int(dst)
            if dst == d.index:
                continue
            batch = items[owners == dst]
            arrive, transfer_ns = wl.send(d.index, dst, batch, t)
            s = self.seq
            heappush(self.heap, (arrive, s, _ARRIVE, dst, batch, (d.index, transfer_ns)))
            self.seq = s + 1

    def arrive(self, dst: int, items: np.ndarray, t: float, x: tuple) -> None:
        """A remote push lands in device ``dst``'s deque; its workers wake."""
        src, transfer_ns = x
        self.queue.deliver(src, dst, items, t, transfer_ns)
        self.wake_device(self.devices[dst], t)

    def reissue(
        self, worker: int, tpop: float, t: float, retired: int, work: float
    ) -> None:
        """Charge the completion to its device, pop again (steal gate
        applies), wake the device's parked workers and poke a starved one."""
        d = self.device_of[worker]
        d.tasks += 1
        d.items_retired += retired
        d.work_units += work
        self.try_pop(worker, tpop)
        self.wake_device(d, t)
        self.poke_idle_devices(t)

    def try_pop(self, worker: int, t: float, *, force_steal: bool = False) -> bool:
        """One pop attempt for ``worker``; schedules its READ on success."""
        d = self.device_of[worker]
        wl = self.queue
        allow = force_steal or d.idle_streak >= STEAL_IDLE_THRESHOLD
        items, t_acq = wl.pop(self._fetch, t, home=d.index, allow_steal=allow)
        if items.size == 0:
            d.idle_streak += 1
            d.idle.append(worker)
            return False
        d.idle_streak = 0
        self.issue(worker, items, t_acq, d.cost_fn, d)
        return True

    def remote_finish(self, d: DeviceState, items, edge_work, t_acq, finish) -> float:
        """Charge items owned elsewhere (stolen or steal-banked loot) for
        reading their adjacency over the owner's link."""
        owners = self.partition.owner_of(items)
        remote = owners != d.index
        if remote.any():
            n = items.size
            counts = np.bincount(owners[remote], minlength=len(self.devices))
            latency = self.queue.interconnect.latency_ns
            for o in np.flatnonzero(counts):
                share = (edge_work + n) * counts[o] / n
                link_end = self.queue.reserve_link(int(o), d.index, share, t_acq)
                if link_end + latency > finish:
                    finish = link_end + latency
        return finish

    def wake_device(self, d: DeviceState, t: float) -> None:
        """Hand a device's queued items to its parked workers."""
        deque = self.queue.deques[d.index]
        while d.idle and deque.size > 0:
            worker = d.idle.pop()
            if not self.try_pop(worker, t + self.pop_stagger(worker, self.pop_seq)):
                break

    def poke_idle_devices(self, t: float) -> None:
        """Give one starved device a steal attempt (bounded: one per event).

        Workers are event-driven: once parked they never poll, so without
        a poke a device that drained early would idle forever while its
        peers are loaded.  Each completion elsewhere pokes at most one
        fully-idle device whose deque is empty; the woken worker's pop
        runs with stealing allowed and pays the normal probe/transfer
        costs (and re-parks if the steal-ratio gate refuses every victim).
        """
        wl = self.queue
        if len(self.devices) == 1 or wl.size == 0:
            return
        for d in self.devices:
            if d.idle and wl.deques[d.index].size == 0:
                worker = d.idle.pop()
                self.try_pop(worker, t, force_steal=True)
                return


class DistributedPolicy(ExecutionPolicy):
    """Per-device persistent pools + partition-routed forwarding/stealing."""

    name = "distributed"
    engine = DeviceEngine

    def execute(self, eng: DeviceEngine) -> PolicyOutcome:
        config, kernel, sink = eng.config, eng.kernel, eng.sink
        graph = getattr(kernel, "graph", None)
        if graph is None:
            raise SchedulerError(
                "the distributed policy needs kernel.graph to partition; "
                f"kernel {type(kernel).__name__} does not expose one"
            )
        cluster = cluster_for(config.devices, config.interconnect, eng.spec)
        ndev = cluster.num_devices
        kind, method = resolve_partition_choice(config.partition)
        eng.partition = partition_graph(graph, ndev, kind=kind, method=method)
        eng.set_mode(persistent=True)

        devs: list[DeviceState] = []
        dev_of: list[DeviceState] = []
        base = 0
        for i, dspec in enumerate(cluster.devices):
            mem = BandwidthServer(dspec.mem_edges_per_ns)
            slots, occ = _worker_slots(dspec, config)
            d = DeviceState(
                index=i,
                mem=mem,
                cost_fn=make_cost_fn(
                    dspec,
                    mem,
                    worker_threads=config.worker_threads,
                    use_internal_lb=config.internal_lb,
                ),
                slots=slots,
                base=base,
                occupancy=occ,
            )
            devs.append(d)
            dev_of.extend([d] * slots)
            base += slots
        eng.devices, eng.device_of = devs, dev_of
        eng.slots = base
        eng.occupancy = sum(d.occupancy * d.slots for d in devs) / base

        # steal-gate work estimate: the average item costs about one unit
        # of frontier traffic plus its average degree of edge traffic,
        # served at device HBM rate
        avg_degree = graph.num_edges / max(1, graph.num_vertices)
        item_work_ns = (1.0 + avg_degree) / cluster.devices[0].mem_edges_per_ns

        wl = eng.queue = DeviceWorklist(
            eng.partition,
            cluster.interconnect,
            capacity=config.queue_capacity,
            atomic_ns=eng.spec.atomic_queue_ns,
            seed=0,
            name=f"{config.name}-wl",
            sink=sink,
            item_work_ns=item_work_ns,
        )

        # launch: one kernel per device, concurrently, at t=0
        t0 = eng.spec.kernel_launch_ns
        if sink is not None:
            for _ in range(ndev):
                sink.emit(KernelLaunch(t=0.0, duration_ns=t0))
        wl.push(kernel.initial_items(), t0)  # host scatter to owner deques
        for d in devs:
            queued = wl.deques[d.index].size
            needed = min(d.slots, -(-queued // config.fetch_size)) if queued else 0
            for local in range(d.slots):
                w = d.base + local
                if local < needed:
                    eng.try_pop(w, t0 + eng.pop_stagger(w, 0))
                else:
                    d.idle.append(w)

        end = t0
        while True:
            end = max(end, eng.drain_events(push_to_queue=True))
            # heap empty: any parked work means every owner device idled
            # before its items landed — wake them and keep draining
            if wl.size:
                for d in devs:
                    eng.wake_device(d, eng.now)
                if eng.heap:
                    continue
            extra = kernel.final_check(end)
            if extra.size == 0:
                break
            wl.push(extra, end)  # host-side refill, owner-routed
            for d in devs:
                eng.wake_device(d, end)
            if not eng.heap:
                break
        eng.device_stats = [d.snapshot() for d in devs]
        # engine-level memory utilization = mean device-HBM utilization
        eng.mem.busy_time = sum(d.mem.busy_time for d in devs) / ndev
        eng.mem.total_edges = sum(d.mem.total_edges for d in devs)
        return PolicyOutcome(
            elapsed_ns=end, kernel_launches=ndev, generations=1
        )


register_policy(KernelStrategy.DISTRIBUTED)(DistributedPolicy)
