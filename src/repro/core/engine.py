"""Strategy-agnostic execution machinery shared by every kernel policy.

Historically the scheduler was two monolithic functions
(``run_persistent`` / ``run_discrete``) sharing a private ``_Engine``
class.  This module is that machinery factored out behind a neutral
surface so that *policies* (:mod:`repro.core.policy`) can compose it:

* :class:`ExecutionEngine` owns the simulated hardware (event heap,
  bandwidth server, occupancy-derived worker slots), the live
  :class:`~repro.queueing.protocol.Worklist`, and the run accumulators;
* the engine is **mode-switchable**: :meth:`ExecutionEngine.set_mode`
  selects the read-instant lead and pop-jitter amplitude that distinguish
  persistent from discrete execution (Section 6.3 semantics), so one
  engine instance can serve a policy that alternates between them;
* :meth:`ExecutionEngine.drain_events` accepts an optional ``stop_when``
  predicate: when it fires, the engine stops issuing new pops and lets
  in-flight tasks retire — the mechanism the hybrid policy uses to
  interrupt a persistent phase whose queue has grown past its watermark;
* every pop-issue instant flows through :meth:`ExecutionEngine.pop_stagger`,
  which adds the mode's hardware-scheduler jitter plus an optional
  **perturbation hook** (``perturb=``) — a deterministic, non-negative
  extra delay per ``(worker, seq)`` that the schedule-perturbation fuzzer
  (:mod:`repro.check.fuzz`) uses to explore alternative, model-legal
  interleavings without touching any other mechanism.

:meth:`ExecutionEngine.drain_events` is the simulator's only event loop:
every policy (the multi-device one included) drains the engine's heap
through it.  Every completion goes through the same generic steps
(:meth:`~ExecutionEngine.push`, :meth:`~ExecutionEngine.reissue`,
:meth:`~ExecutionEngine.try_pop`), which
:class:`~repro.core.distributed.DeviceEngine` overrides to route work
between devices; every successful pop, on one device or many, ends in
the one task-issue tail :meth:`~ExecutionEngine.issue`.  A pop runs :meth:`MpmcQueue.pop
<repro.queueing.mpmc.MpmcQueue.pop>` or the worklist's own ``pop``, and
every hash-derived delay comes from :func:`_jitter`, whether or not a sink
is attached: the path a benchmark times is the path the checkers observe.

Everything observable (event order, timestamps, counters) is identical to
the pre-refactor ``_Engine`` for the persistent and discrete policies;
``tests/test_equivalence.py`` pins that with obs digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.core.config import AtosConfig
from repro.core.kernel import TaskKernel
from repro.obs.events import EventSink, TaskComplete, TaskPop, TaskRead
from repro.queueing.broker import QueueBroker
from repro.queueing.protocol import Worklist, WorklistStats
from repro.queueing.stealing import StealingWorklist
from repro.sim.cost import make_cost_fn
from repro.sim.memory import BandwidthServer
from repro.sim.occupancy import occupancy_for
from repro.sim.spec import GpuSpec
from repro.sim.trace import ThroughputTrace

__all__ = ["RunResult", "SchedulerError", "ExecutionEngine"]

# Events are flat 6-tuples ``(t, seq, tag, worker, items, x)``: ``x`` is the
# finish time of a READ, the on-read payload of a DONE and ``(src_device,
# transfer_ns)`` of an ARRIVE (a remote push landing in device ``worker``'s
# deque; only DeviceEngine schedules those).  ``seq`` is unique, so heap
# comparisons never reach the later fields.
_READ = 0
_DONE = 1
_ARRIVE = 2


class SchedulerError(RuntimeError):
    """Raised when a run exceeds its task budget (diverging application)."""


@dataclass
class RunResult:
    """Everything measured during one simulated kernel execution."""

    elapsed_ns: float
    total_tasks: int
    items_retired: int
    work_units: float
    kernel_launches: int
    generations: int
    worker_slots: int
    occupancy_fraction: float
    mem_utilization: float
    #: raw queue counters folded over every worklist the run used (one
    #: per generation under discrete strategies, not just the last)
    queue: WorklistStats
    #: hybrid strategy: number of discrete↔persistent crossovers
    policy_switches: int = 0
    #: multi-device runs (defaults keep single-device results unchanged):
    #: the simulated device count and per-device accounting snapshots
    devices: int = 1
    device_stats: list | None = field(repr=False, default=None)
    trace: ThroughputTrace = field(repr=False, default_factory=ThroughputTrace)
    config_name: str = ""

    @property
    def elapsed_ms(self) -> float:
        """Simulated runtime in milliseconds (the paper's Table 1 unit)."""
        return self.elapsed_ns / 1e6

    def counters(self) -> dict:
        """The scheduler counters an engine run reports in ``AppResult.extra``.

        Item totals are *distinct*: surplus a thief steals and re-pushes
        ("banks") into its own deque sits in both raw totals twice (the
        victim's pop, the thief's push), so it is subtracted from both
        here, the one place.  The device block appears only on
        multi-device runs, so a single-device ``extra`` keeps its keys.
        """
        q = self.queue
        out = {
            "worker_slots": self.worker_slots,
            "occupancy": self.occupancy_fraction,
            "queue_contention_ns": q.contention_wait_ns,
            "total_tasks": self.total_tasks,
            "mem_utilization": self.mem_utilization,
            "empty_pops": q.empty_pops,
            "steals": q.steals,
            "failed_steals": q.failed_steals,
            "policy_switches": self.policy_switches,
            "queue_pushes": q.pushes,
            "queue_pops": q.pops,
            "queue_items_pushed": q.items_pushed - q.banked_items,
            "queue_items_popped": q.items_popped - q.banked_items,
            "queue_items_banked": q.banked_items,
        }
        if self.devices > 1:
            out["devices"] = self.devices
            out["remote_pushes"] = q.remote_pushes
            out["remote_items"] = q.remote_items
            out["remote_steals"] = q.remote_steals
            out["comm_ns"] = q.comm_ns
            if self.device_stats is not None:
                out["device_stats"] = self.device_stats
        return out


def _worker_slots(spec: GpuSpec, config: AtosConfig) -> tuple[int, float]:
    """Resident worker count and occupancy fraction for a configuration."""
    occ = occupancy_for(
        spec,
        threads_per_cta=config.occupancy_cta_threads,
        registers_per_thread=config.registers_per_thread,
        shared_mem_per_cta=config.shared_mem_per_cta,
    )
    if config.is_cta_worker:
        return occ.total_ctas, occ.occupancy_fraction
    if config.is_warp_worker:
        return occ.total_warps, occ.occupancy_fraction
    return occ.threads_per_sm * spec.num_sms, occ.occupancy_fraction


def _jitter(worker: int, seq: int, amplitude: float) -> float:
    """Deterministic pseudo-random value in ``[0, amplitude)`` per ``(worker, seq)``.

    The persistent-kernel pop stagger, and (on the stream ``seq + 7919``)
    the per-task duration jitter.
    """
    if amplitude <= 0.0:
        return 0.0
    h = (worker * 2654435761 + seq * 40503 + 12345) & 0xFFFF
    return (h / 65536.0) * amplitude


class ExecutionEngine:
    """Shared simulated-GPU machinery every execution policy drives.

    A policy owns the control flow (when to launch, barrier, create
    queues, quiesce); the engine owns the mechanism (pops, cost model,
    read/complete event processing, counters).  The engine starts with no
    mode — a policy must call :meth:`set_mode` before seeding work.
    """

    def __init__(
        self,
        kernel: TaskKernel,
        config: AtosConfig,
        spec: GpuSpec,
        max_tasks: int,
        *,
        sink: EventSink | None = None,
        perturb: Callable[[int, int], float] | None = None,
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.spec = spec
        self.max_tasks = max_tasks
        self.sink = sink
        self.perturb = perturb
        self.mem = BandwidthServer(spec.mem_edges_per_ns)
        # the event heap, its tie-break counter (events at the same time pop
        # in scheduling order, which makes every run bit-deterministic) and
        # the time of the most recently popped event
        self.heap: list[tuple] = []
        self.seq = 0
        self.now = 0.0
        self.trace = ThroughputTrace()
        self.slots, self.occupancy = _worker_slots(spec, config)
        self.idle: list[int] = []
        self.in_flight = 0
        self.total_tasks = 0
        self.items_retired = 0
        self.work_units = 0.0
        self.pop_seq = 0
        self.queue: Worklist | None = None  # set per run/generation
        self.pending_pushes: list[np.ndarray] = []  # discrete: next generation
        # mode-dependent knobs; set_mode() must run before any pop
        self.read_lead_ns = 0.0
        self.jitter_amp = 0.0
        # the run's queue counters: discrete runs replace the queue every
        # generation, so each retiring queue is folded in before its
        # replacement
        self.queue_stats = WorklistStats()
        #: per-device snapshots, set by the distributed policy
        self.device_stats: list | None = None
        # hot-path specialisations (repro.perf): the per-task cost closure
        # binds every spec/config-derived constant once; the fetch size and
        # duration-jitter amplitude are hoisted out of try_pop.  All of it
        # is bit-identical to the generic task_cost path (golden digests).
        self._cost_fn = make_cost_fn(
            spec,
            self.mem,
            worker_threads=config.worker_threads,
            use_internal_lb=config.internal_lb,
        )
        self._fetch = config.fetch_size
        self._dur_jit = spec.duration_jitter
        # bound to the lone MpmcQueue's pop/push by new_queue() when the
        # broker has exactly one physical queue (the paper's headline
        # setup), skipping the broker dispatch
        self._qpop = None
        self._qpush = None

    # ------------------------------------------------------------------
    def set_mode(self, *, persistent: bool) -> None:
        """Select the read-instant and jitter semantics (Section 6.3).

        Persistent workers read ``read_lead_ns`` before completion and pop
        with hardware-scheduler jitter; discrete waves read at their pop
        instant and issue in strict queue order with no stagger.
        """
        if persistent:
            self.read_lead_ns = self.spec.read_lead_ns
            self.jitter_amp = self.spec.persistent_jitter_ns
        else:
            self.read_lead_ns = self.spec.discrete_read_lead_ns
            self.jitter_amp = 0.0

    # ------------------------------------------------------------------
    def absorb_queue_stats(self) -> None:
        """Fold the current queue's counters into the run's record."""
        if self.queue is not None:
            self.queue_stats += self.queue.stats()

    def new_queue(self, name: str) -> Worklist:
        self.absorb_queue_stats()  # retire the previous generation's queue
        if self.config.worklist == "stealing":
            self.queue = StealingWorklist(
                max(2, self.config.num_queues),
                capacity=self.config.queue_capacity,
                atomic_ns=self.spec.atomic_queue_ns,
                name=name,
                sink=self.sink,
            )
        else:
            self.queue = QueueBroker(
                self.config.num_queues,
                capacity=self.config.queue_capacity,
                atomic_ns=self.spec.atomic_queue_ns,
                name=name,
                sink=self.sink,
            )
        single = getattr(self.queue, "_single", None)
        self._qpop = single.pop if single is not None else None
        self._qpush = single.push if single is not None else None
        return self.queue

    def pop_stagger(self, worker: int, seq: int) -> float:
        """Delay before a worker's next pop is issued.

        The base term is the mode's hardware-scheduler jitter
        (:func:`_jitter`; zero in discrete mode).  The optional
        ``perturb`` hook adds a further non-negative, deterministic delay —
        the fuzzer's lever for exploring alternative pop interleavings.
        Negative hook values are clamped: the event loop cannot schedule
        into the past, and the model only permits *delaying* a pop.
        """
        jit = _jitter(worker, seq, self.jitter_amp)
        perturb = self.perturb
        if perturb is not None:
            jit += max(0.0, float(perturb(worker, seq)))
        return jit

    def try_pop(self, worker: int, t: float) -> bool:
        """Attempt a pop; on success schedules the task's READ event."""
        qpop = self._qpop
        if qpop is not None:  # single shared queue: home is ignored anyway
            items, t_acq = qpop(self._fetch, t)
        else:
            items, t_acq = self.queue.pop(self._fetch, t, home=worker)
        if items.size == 0:
            self.idle.append(worker)
            return False
        self.issue(worker, items, t_acq, self._cost_fn)
        return True

    def issue(
        self, worker: int, items: np.ndarray, t_acq: float, cost_fn, device=None
    ) -> None:
        """Issue a popped task: count it, cost it and schedule its READ.

        The tail every successful pop runs, single- or multi-device:
        ``cost_fn`` is the popping device's cost closure, and ``device``
        (multi-device runs only) lets :meth:`remote_finish` charge items
        owned by another device for reading over its link.
        """
        n = int(items.size)
        seq = self.pop_seq + 1
        self.pop_seq = seq
        self.total_tasks += 1
        if self.sink is not None:
            self.sink.emit(TaskPop(t=t_acq, worker=worker, items=n))
        if self.total_tasks > self.max_tasks:
            raise SchedulerError(
                f"run exceeded max_tasks={self.max_tasks}; "
                "the application appears not to converge"
            )
        edge_work, max_degree = self.kernel.work_estimate(items)
        # deterministic per-task latency jitter (cache misses, scheduling
        # noise): the pop-stagger hash on a different stream
        finish = cost_fn(
            t_acq, n, edge_work, max_degree, 1.0 + _jitter(worker, seq + 7919, self._dur_jit)
        )
        if device is not None:
            finish = self.remote_finish(device, items, edge_work, t_acq, finish)
        t_read = finish - self.read_lead_ns
        if t_read < t_acq:
            t_read = t_acq
        # t_read >= t_acq >= now by construction (queue acquisition and the
        # cost model never move time backwards)
        s = self.seq
        heappush(self.heap, (t_read, s, _READ, worker, items, finish))
        self.seq = s + 1
        self.in_flight += 1

    def remote_finish(self, device, items, edge_work, t_acq, finish) -> float:
        """A task's finish time once remote items have read their adjacency.

        Single-device runs own every item, so the cost model's ``finish``
        stands; :class:`~repro.core.distributed.DeviceEngine` overrides it.
        """
        return finish

    def push(self, worker: int, items: np.ndarray, t: float) -> None:
        """Generic push step: a completion's follow-on work enters the worklist."""
        self.queue.push(items, t, home=worker)

    def reissue(
        self, worker: int, tpop: float, t: float, retired: int, work: float
    ) -> None:
        """Generic completion tail: ``worker`` pops again, parked workers wake.

        ``retired``/``work`` are the completion's counters, already in the
        run totals; a device-aware engine also charges them to the
        worker's device.
        """
        self.try_pop(worker, tpop)
        if self.idle:
            self.wake_idle(t)

    def wake_idle(self, t: float) -> None:
        """Hand queued work to parked workers."""
        while self.idle and self.queue.size > 0:
            worker = self.idle.pop()
            if not self.try_pop(worker, t + self.pop_stagger(worker, self.pop_seq)):
                break

    def seed_workers(self, t: float) -> None:
        """Initial wave: give every worker that can be fed a first pop."""
        needed = min(self.slots, max(1, -(-self.queue.size // self.config.fetch_size)))
        for w in range(self.slots):
            if w < needed:
                self.try_pop(w, t + self.pop_stagger(w, 0))
            else:
                self.idle.append(w)

    def drain_events(self, *, push_to_queue: bool, stop_when=None) -> float:
        """Process events until the heap empties; return the last completion time.

        This is the simulator's one event loop (the paper's Listing 2:
        pop a task, run it, push its follow-on work).  A READ calls the
        kernel's ``on_read`` and schedules the DONE; a DONE applies
        ``on_complete``, pushes the new work and lets the worker pop again;
        an ARRIVE lands a remote push (:meth:`arrive`, multi-device only).

        ``push_to_queue=False`` (discrete) collects pushes for the next
        generation instead of making them immediately poppable.

        ``stop_when`` (checked after each completion) stops the engine
        from issuing *new* pops once true; in-flight tasks still retire,
        so the loop drains to a consistent stop.  Used by the hybrid
        policy to interrupt a persistent phase at its high watermark.
        """
        # Hot loop: every per-event attribute chase is hoisted into a local.
        heap = self.heap
        end = self.now
        stopped = False
        kernel = self.kernel
        on_read = kernel.on_read
        on_complete = kernel.on_complete
        trace = self.trace
        tr_times = trace.times.append
        tr_items = trace.items.append
        tr_work = trace.work.append
        sink = self.sink
        pending = self.pending_pushes
        idle_append = self.idle.append
        reissue = self.reissue
        pop_stagger = self.pop_stagger
        # policies only call new_queue between drains, so the queue's bound
        # push is stable for the whole loop
        qpush = self._qpush
        while heap:
            t, _, tag, worker, items, x = heappop(heap)
            self.now = t
            if tag == _READ:
                if sink is not None:
                    sink.emit(TaskRead(t=t, worker=worker, items=int(items.size)))
                payload = on_read(items, t)
                # finish (x) >= t_read == t always
                s = self.seq
                heappush(heap, (x, s, _DONE, worker, items, payload))
                self.seq = s + 1
                continue
            if tag == _ARRIVE:  # scheduled (and handled) by DeviceEngine only
                self.arrive(worker, items, t, x)
                continue
            self.in_flight -= 1
            result = on_complete(items, x, t)
            if t > end:
                end = t
            retired = result.items_retired
            work = result.work_units
            new_items = result.new_items
            self.items_retired += retired
            self.work_units += work
            tr_times(t)  # inlined ThroughputTrace.record
            tr_items(retired)
            tr_work(work)
            if sink is not None:
                sink.emit(
                    TaskComplete(
                        t=t,
                        worker=worker,
                        items=int(items.size),
                        retired=retired,
                        pushed=int(new_items.size),
                        work=work,
                    )
                )
            if new_items.size:
                if push_to_queue:
                    if qpush is not None:
                        qpush(new_items, t)
                    else:
                        self.push(worker, new_items, t)
                else:
                    pending.append(new_items)
            if stop_when is not None and not stopped and stop_when():
                stopped = True
            if stopped:
                idle_append(worker)
                continue
            reissue(worker, t + pop_stagger(worker, self.pop_seq), t, retired, work)
        assert self.in_flight == 0, "event loop drained with tasks in flight"
        return end

    # ------------------------------------------------------------------
    def build_result(
        self,
        *,
        elapsed_ns: float,
        kernel_launches: int,
        generations: int,
        policy_switches: int = 0,
    ) -> RunResult:
        """Materialise the final :class:`RunResult` from the accumulators.

        Absorbs the live queue's counters first, so call exactly once,
        after the policy has quiesced.
        """
        self.absorb_queue_stats()
        return RunResult(
            elapsed_ns=elapsed_ns,
            total_tasks=self.total_tasks,
            items_retired=self.items_retired,
            work_units=self.work_units,
            kernel_launches=kernel_launches,
            generations=generations,
            worker_slots=self.slots,
            occupancy_fraction=self.occupancy,
            mem_utilization=self.mem.utilization(elapsed_ns) if elapsed_ns > 0 else 0.0,
            queue=self.queue_stats,
            policy_switches=policy_switches,
            devices=self.config.devices,
            device_stats=self.device_stats,
            trace=self.trace,
            config_name=self.config.name,
        )
