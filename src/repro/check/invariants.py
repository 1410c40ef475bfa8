"""Live discrete-event-model invariant checking over the obs stream.

:class:`InvariantMonitor` is an :class:`~repro.obs.events.EventSink`: pass
it as the ``sink=`` of any run and it asserts, event by event, that the
simulation respects the model's conservation and ordering laws:

* **queue conservation** — every :class:`~repro.obs.events.QueuePush` /
  :class:`~repro.obs.events.QueuePop` must move the queue's reported
  depth by exactly its item count, the tracked depth never goes negative,
  and an :class:`~repro.obs.events.EmptyPop` may only happen on a queue
  the event stream says is empty.  (``drain`` emits no event and is
  terminal for a queue in every shipped policy — generation and phase
  queues are named uniquely and never reused after a drain; the stats-side
  equation covering drains is :func:`verify_queue_conservation`.)
* **per-device conservation** — on a multi-device run the worklist names
  its deques ``{name}@dev{i}``; the monitor attributes pushes/pops to
  devices by that suffix and :meth:`reconcile` asserts the conservation
  equation ``pushed_d == popped_d + depth_d`` for **every device
  individually and for the global sum**.  Items in flight on a link
  belong to no deque (a remote push only lands as a
  :class:`~repro.obs.events.RemotePush` + ``QueuePush`` at its arrival
  time), so both granularities must balance exactly once the run drains.
* **clock monotonicity** — per queue, each atomic's completion times are
  non-decreasing (push stream and pop/empty-pop stream serialize on
  separate atomics); per worker slot, the TaskPop → TaskRead →
  TaskComplete lifecycle never steps backwards in simulated time.
* **slot occupancy** — a worker holds at most one task (a second TaskPop
  before its TaskComplete is double occupancy), tasks in flight never
  exceed ``worker_slots``, and reads/completes only happen on a busy slot.
* **policy-switch consistency** — :class:`~repro.obs.events.PolicySwitch`
  events alternate persistent ↔ discrete starting with ``"persistent"``
  (the hybrid strategy's resting mode is discrete), carry non-decreasing
  times and generation ordinals, and only fire at a quiescent boundary
  (no task in flight); generation brackets pair up un-nested with
  strictly increasing ordinals.

Violations are collected (``strict=False``, the default) or raised
immediately as :class:`InvariantViolation` (``strict=True``).  After the
run, :meth:`InvariantMonitor.reconcile` cross-checks the event totals
against the run's counter block — the same numbers derived two
independent ways.  To capture a trace as well, attach the monitor beside
a :class:`~repro.obs.collector.Collector` through one
:class:`~repro.obs.events.MultiSink`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import RunResult
from repro.obs.events import (
    EmptyPop,
    EpochMark,
    GenerationEnd,
    GenerationStart,
    KernelLaunch,
    PolicySwitch,
    QueuePop,
    QueuePush,
    QueueSteal,
    RemotePush,
    RemoteSteal,
    TaskComplete,
    TaskPop,
    TaskRead,
    TraceEvent,
)

__all__ = [
    "InvariantViolation",
    "Violation",
    "InvariantMonitor",
    "verify_queue_conservation",
]


class InvariantViolation(AssertionError):
    """A run broke a discrete-event-model invariant."""


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    rule: str
    detail: str
    event: TraceEvent | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


_IDLE, _POPPED, _READING = 0, 1, 2


class InvariantMonitor:
    """EventSink asserting conservation/ordering laws over a live run."""

    def __init__(self, *, worker_slots: int | None = None, strict: bool = False) -> None:
        self.worker_slots = worker_slots
        self.strict = strict
        self.violations: list[Violation] = []
        # per-queue state (keyed by physical queue name)
        self._depth: dict[str, int] = {}
        self._push_t: dict[str, float] = {}
        self._pop_t: dict[str, float] = {}
        # per-device item totals (keyed by the "@dev{i}" queue-name suffix;
        # empty on single-device runs, which never tag their queues)
        self._dev_pushed: dict[int, int] = {}
        self._dev_popped: dict[int, int] = {}
        self._dev_queues: dict[int, set[str]] = {}
        # per-worker state
        self._worker_state: dict[int, int] = {}
        self._worker_t: dict[int, float] = {}
        self.in_flight = 0
        self.max_in_flight = 0
        # policy / generation state
        self._last_switch: PolicySwitch | None = None
        self._open_generation: int | None = None
        self._last_generation = 0
        # event totals for reconcile()
        self.counts: dict[str, int] = {
            "task_pops": 0,
            "task_reads": 0,
            "task_completes": 0,
            "queue_pushes": 0,
            "queue_pops": 0,
            "empty_pops": 0,
            "steals": 0,
            "kernel_launches": 0,
            "policy_switches": 0,
            "remote_pushes": 0,
            "remote_steals": 0,
        }
        self.items_retired = 0
        self.queue_items_pushed = 0
        self.queue_items_popped = 0
        self.queue_items_banked = 0
        self.remote_items = 0

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if anything was flagged."""
        if self.violations:
            lines = "; ".join(str(v) for v in self.violations[:10])
            more = len(self.violations) - 10
            if more > 0:
                lines += f"; … and {more} more"
            raise InvariantViolation(f"{len(self.violations)} invariant violation(s): {lines}")

    def _flag(self, rule: str, detail: str, event: TraceEvent | None = None) -> None:
        v = Violation(rule=rule, detail=detail, event=event)
        self.violations.append(v)
        if self.strict:
            raise InvariantViolation(str(v))

    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if isinstance(event, QueuePush):
            self._on_queue_push(event)
        elif isinstance(event, QueuePop):
            self._on_queue_pop(event)
        elif isinstance(event, EmptyPop):
            self._on_empty_pop(event)
        elif isinstance(event, TaskPop):
            self._on_task_pop(event)
        elif isinstance(event, TaskRead):
            self._on_task_read(event)
        elif isinstance(event, TaskComplete):
            self._on_task_complete(event)
        elif isinstance(event, PolicySwitch):
            self._on_policy_switch(event)
        elif isinstance(event, GenerationStart):
            self._on_generation_start(event)
        elif isinstance(event, GenerationEnd):
            self._on_generation_end(event)
        elif isinstance(event, QueueSteal):
            self.counts["steals"] += 1
            self.queue_items_banked += event.banked
        elif isinstance(event, RemotePush):
            self.counts["remote_pushes"] += 1
            self.remote_items += event.items
        elif isinstance(event, RemoteSteal):
            self.counts["remote_steals"] += 1
        elif isinstance(event, EpochMark):
            self._on_epoch_mark(event)
        elif isinstance(event, KernelLaunch):
            self.counts["kernel_launches"] += 1

    # -- queue layer ---------------------------------------------------
    @staticmethod
    def _device_of(queue: str) -> int | None:
        """Device index from a ``{name}@dev{i}`` queue name, else ``None``."""
        _, sep, tail = queue.rpartition("@dev")
        if sep and tail.isdigit():
            return int(tail)
        return None

    def _on_queue_push(self, ev: QueuePush) -> None:
        self.counts["queue_pushes"] += 1
        self.queue_items_pushed += ev.items
        dev = self._device_of(ev.queue)
        if dev is not None:
            self._dev_pushed[dev] = self._dev_pushed.get(dev, 0) + ev.items
            self._dev_queues.setdefault(dev, set()).add(ev.queue)
        prev = self._depth.get(ev.queue, 0)
        if ev.depth != prev + ev.items:
            self._flag(
                "queue-conservation",
                f"push of {ev.items} moved {ev.queue!r} depth {prev} -> {ev.depth} "
                f"(expected {prev + ev.items})",
                ev,
            )
        self._depth[ev.queue] = ev.depth
        last = self._push_t.get(ev.queue)
        if last is not None and ev.t < last:
            self._flag(
                "queue-clock",
                f"push on {ev.queue!r} completed at t={ev.t} before prior push t={last}",
                ev,
            )
        self._push_t[ev.queue] = ev.t

    def _on_queue_pop(self, ev: QueuePop) -> None:
        self.counts["queue_pops"] += 1
        self.queue_items_popped += ev.items
        dev = self._device_of(ev.queue)
        if dev is not None:
            self._dev_popped[dev] = self._dev_popped.get(dev, 0) + ev.items
            self._dev_queues.setdefault(dev, set()).add(ev.queue)
        prev = self._depth.get(ev.queue, 0)
        expected = prev - ev.items
        if ev.depth != expected or expected < 0:
            self._flag(
                "queue-conservation",
                f"pop of {ev.items} moved {ev.queue!r} depth {prev} -> {ev.depth} "
                f"(expected {expected})",
                ev,
            )
        self._depth[ev.queue] = ev.depth
        self._check_pop_clock(ev.queue, ev.t, ev)

    def _on_empty_pop(self, ev: EmptyPop) -> None:
        self.counts["empty_pops"] += 1
        prev = self._depth.get(ev.queue, 0)
        if prev != 0:
            self._flag(
                "queue-conservation",
                f"empty pop on {ev.queue!r} while tracked depth is {prev}",
                ev,
            )
        self._check_pop_clock(ev.queue, ev.t, ev)

    def _check_pop_clock(self, queue: str, t: float, ev: TraceEvent) -> None:
        last = self._pop_t.get(queue)
        if last is not None and t < last:
            self._flag(
                "queue-clock",
                f"pop on {queue!r} completed at t={t} before prior pop t={last}",
                ev,
            )
        self._pop_t[queue] = t

    # -- worker layer --------------------------------------------------
    def _check_worker_clock(self, worker: int, t: float, ev: TraceEvent) -> None:
        last = self._worker_t.get(worker)
        if last is not None and t < last:
            self._flag(
                "worker-clock",
                f"worker {worker} stepped back in time: t={t} after t={last}",
                ev,
            )
        self._worker_t[worker] = t

    def _on_task_pop(self, ev: TaskPop) -> None:
        self.counts["task_pops"] += 1
        self._check_worker_clock(ev.worker, ev.t, ev)
        if self.worker_slots is not None and not (0 <= ev.worker < self.worker_slots):
            self._flag(
                "slot-occupancy",
                f"pop on worker {ev.worker} outside slot range [0, {self.worker_slots})",
                ev,
            )
        if self._worker_state.get(ev.worker, _IDLE) != _IDLE:
            self._flag(
                "slot-occupancy",
                f"worker {ev.worker} popped a task while one is in flight",
                ev,
            )
        else:
            self.in_flight += 1
        self._worker_state[ev.worker] = _POPPED
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        if self.worker_slots is not None and self.in_flight > self.worker_slots:
            self._flag(
                "slot-occupancy",
                f"{self.in_flight} tasks in flight exceeds worker_slots={self.worker_slots}",
                ev,
            )

    def _on_task_read(self, ev: TaskRead) -> None:
        self.counts["task_reads"] += 1
        self._check_worker_clock(ev.worker, ev.t, ev)
        state = self._worker_state.get(ev.worker, _IDLE)
        if state != _POPPED:
            self._flag(
                "task-lifecycle",
                f"read on worker {ev.worker} without a pending pop (state={state})",
                ev,
            )
        self._worker_state[ev.worker] = _READING

    def _on_task_complete(self, ev: TaskComplete) -> None:
        self.counts["task_completes"] += 1
        self.items_retired += ev.retired
        self._check_worker_clock(ev.worker, ev.t, ev)
        state = self._worker_state.get(ev.worker, _IDLE)
        if state == _IDLE:
            self._flag(
                "task-lifecycle",
                f"completion on idle worker {ev.worker}",
                ev,
            )
        else:
            self.in_flight -= 1
        self._worker_state[ev.worker] = _IDLE

    # -- epoch boundaries (dynamic-graph runs) -------------------------
    def _on_epoch_mark(self, ev: EpochMark) -> None:
        """An epoch boundary must be quiescent, then resets the clocks.

        :class:`~repro.obs.events.EpochMark` is emitted between the
        per-epoch engine runs of a dynamic replay.  The boundary laws:

        * **no task in flight** — an item popped in one epoch and never
          completed before the mark has leaked across the boundary;
        * every worker slot is idle (the per-slot refinement of the same
          rule: a slot stuck in POPPED/READING holds a leaked task);
        * no generation bracket is open.

        Each epoch then runs on a *fresh engine*: simulated time restarts
        at 0 and queue names are reused (``{config}-gen1`` exists in every
        epoch), so the per-queue depth/clock maps, worker clocks,
        generation ordinals and policy-switch state are reset — carrying
        them over would flag legal epoch-2 events against epoch-1 state.
        Event totals and item counters are *not* reset: reconcile() for a
        dynamic run checks the whole replay's sums.
        """
        self.counts["epoch_marks"] = self.counts.get("epoch_marks", 0) + 1
        if self.in_flight != 0:
            self._flag(
                "epoch-boundary",
                f"epoch {ev.epoch} begins with {self.in_flight} task(s) "
                "in flight — items leaked across the epoch boundary",
                ev,
            )
        busy = sorted(w for w, s in self._worker_state.items() if s != _IDLE)
        if busy:
            self._flag(
                "epoch-boundary",
                f"epoch {ev.epoch} begins with busy worker slot(s) {busy}",
                ev,
            )
        if self._open_generation is not None:
            self._flag(
                "epoch-boundary",
                f"epoch {ev.epoch} begins inside open generation "
                f"{self._open_generation}",
                ev,
            )
        self._depth.clear()
        self._push_t.clear()
        self._pop_t.clear()
        self._worker_t.clear()
        self._worker_state.clear()
        self.in_flight = 0
        self._last_switch = None
        self._open_generation = None
        self._last_generation = 0

    # -- policy / generation layer -------------------------------------
    def _on_policy_switch(self, ev: PolicySwitch) -> None:
        self.counts["policy_switches"] += 1
        prev = self._last_switch
        if prev is None:
            if ev.policy != "persistent":
                self._flag(
                    "policy-switch",
                    f"first switch must enter persistent mode, got {ev.policy!r}",
                    ev,
                )
        else:
            if ev.policy == prev.policy:
                self._flag(
                    "policy-switch",
                    f"consecutive switches to {ev.policy!r} (must alternate)",
                    ev,
                )
            if ev.t < prev.t:
                self._flag(
                    "policy-switch",
                    f"switch at t={ev.t} before prior switch t={prev.t}",
                    ev,
                )
            if ev.generation < prev.generation:
                self._flag(
                    "policy-switch",
                    f"switch generation regressed {prev.generation} -> {ev.generation}",
                    ev,
                )
        if self.in_flight != 0:
            self._flag(
                "policy-switch",
                f"switch with {self.in_flight} tasks in flight (boundary must be quiescent)",
                ev,
            )
        self._last_switch = ev

    def _on_generation_start(self, ev: GenerationStart) -> None:
        if self._open_generation is not None:
            self._flag(
                "generation-bracket",
                f"generation {ev.generation} started inside open generation "
                f"{self._open_generation}",
                ev,
            )
        if ev.generation <= self._last_generation:
            self._flag(
                "generation-bracket",
                f"generation ordinal regressed {self._last_generation} -> {ev.generation}",
                ev,
            )
        if self.in_flight != 0:
            self._flag(
                "generation-bracket",
                f"generation {ev.generation} started with {self.in_flight} tasks in flight",
                ev,
            )
        self._open_generation = ev.generation
        self._last_generation = max(self._last_generation, ev.generation)

    def _on_generation_end(self, ev: GenerationEnd) -> None:
        if self._open_generation != ev.generation:
            self._flag(
                "generation-bracket",
                f"generation {ev.generation} ended but {self._open_generation} is open",
                ev,
            )
        if self.in_flight != 0:
            self._flag(
                "generation-bracket",
                f"generation {ev.generation} ended with {self.in_flight} tasks in flight",
                ev,
            )
        self._open_generation = None

    # ------------------------------------------------------------------
    def reconcile(self, result: Any) -> None:
        """Cross-check the event totals against a finished run's counters.

        ``result`` is a :class:`~repro.core.engine.RunResult` (read
        through its ``counters()``, the block an app result's ``extra``
        copies) or an :class:`~repro.apps.common.AppResult`.  Every
        discrepancy is flagged as a ``counter-reconcile`` violation: these
        numbers are accumulated by the engine and derived from the event
        stream independently, so a mismatch means a counter (or an emit
        point) lies.
        """
        if isinstance(result, RunResult):
            extra = result.counters()
        else:
            extra = getattr(result, "extra", None)

        def counter(name: str) -> Any:
            if extra is not None and name in extra:
                return extra[name]
            return getattr(result, name, None)

        if self.in_flight != 0:
            self._flag(
                "counter-reconcile",
                f"{self.in_flight} tasks still in flight at reconcile",
            )
        if self._open_generation is not None:
            self._flag(
                "counter-reconcile",
                f"generation {self._open_generation} never ended",
            )
        pairs = [
            ("total_tasks", self.counts["task_pops"]),
            ("items_retired", self.items_retired),
            ("empty_pops", self.counts["empty_pops"]),
            ("queue_pushes", self.counts["queue_pushes"]),
            ("queue_pops", self.counts["queue_pops"]),
            # the run reports *distinct* item totals; QueuePush/QueuePop
            # events count banked steal surplus twice, so subtract the
            # banked totals derived from the QueueSteal stream
            ("queue_items_pushed", self.queue_items_pushed - self.queue_items_banked),
            ("queue_items_popped", self.queue_items_popped - self.queue_items_banked),
            ("queue_items_banked", self.queue_items_banked),
            ("steals", self.counts["steals"]),
            ("kernel_launches", self.counts["kernel_launches"]),
            ("policy_switches", self.counts["policy_switches"]),
            ("remote_pushes", self.counts["remote_pushes"]),
            ("remote_items", self.remote_items),
            ("remote_steals", self.counts["remote_steals"]),
        ]
        for name, observed in pairs:
            reported = counter(name)
            if reported is None:
                continue
            if int(reported) != int(observed):
                self._flag(
                    "counter-reconcile",
                    f"{name}: run reports {reported}, event stream shows {observed}",
                )
        if self.counts["task_pops"] != self.counts["task_completes"]:
            self._flag(
                "counter-reconcile",
                f"{self.counts['task_pops']} pops vs "
                f"{self.counts['task_completes']} completions",
            )
        slots = counter("worker_slots")
        if slots is not None and self.max_in_flight > int(slots):
            self._flag(
                "counter-reconcile",
                f"peak {self.max_in_flight} tasks in flight exceeds "
                f"worker_slots={slots}",
            )
        self._reconcile_devices(counter)

    def _reconcile_devices(self, counter: Any) -> None:
        """Per-device and global conservation over device-tagged queues.

        Every push/pop event on a ``{name}@dev{i}`` queue was attributed
        to device ``i``; once the run drains, each device's deques must
        balance on their own (``pushed_d == popped_d + depth_d``) and the
        device totals must sum to the global equation.  Remote transfers
        cannot hide items: an item in flight was popped from the victim
        (steal) or never entered a deque (push), and lands as a tracked
        push on arrival.
        """
        if not self._dev_queues:
            return
        total_pushed = total_popped = total_depth = 0
        for dev in sorted(self._dev_queues):
            pushed = self._dev_pushed.get(dev, 0)
            popped = self._dev_popped.get(dev, 0)
            depth = sum(self._depth.get(q, 0) for q in self._dev_queues[dev])
            if pushed != popped + depth:
                self._flag(
                    "device-conservation",
                    f"device {dev} leaks items: pushed {pushed} != "
                    f"popped {popped} + live {depth}",
                )
            total_pushed += pushed
            total_popped += popped
            total_depth += depth
        if total_pushed != total_popped + total_depth:
            self._flag(
                "device-conservation",
                f"global device sum leaks items: pushed {total_pushed} != "
                f"popped {total_popped} + live {total_depth}",
            )
        devices = counter("devices")
        if devices is not None and len(self._dev_queues) > int(devices):
            self._flag(
                "device-conservation",
                f"events name {len(self._dev_queues)} devices but the run "
                f"reports devices={devices}",
            )


# ---------------------------------------------------------------------------
# Stats-side conservation (covers drains, which emit no event)
# ---------------------------------------------------------------------------

def verify_queue_conservation(worklist: Any) -> None:
    """Assert the item-conservation equation on a queue or worklist.

    For every physical :class:`~repro.queueing.mpmc.MpmcQueue` ``q``::

        q.stats.items_pushed == q.stats.items_popped
                                + q.stats.items_drained + q.size

    (see the ``MpmcQueue`` docstring).  Accepts a bare queue, a
    :class:`~repro.queueing.broker.QueueBroker` or a
    :class:`~repro.queueing.priority.BucketedWorklist` (``.queues``), or a
    :class:`~repro.queueing.stealing.StealingWorklist` (``.deques``).
    Raises :class:`InvariantViolation` on the first imbalance.
    """
    physical = getattr(worklist, "queues", None) or getattr(worklist, "deques", None)
    if physical is None:
        physical = [worklist]
    for q in physical:
        s = q.stats
        balance = s.items_popped + s.items_drained + q.size
        if s.items_pushed != balance:
            raise InvariantViolation(
                f"queue {q.name!r} leaks items: pushed {s.items_pushed} != "
                f"popped {s.items_popped} + drained {s.items_drained} "
                f"+ live {q.size}"
            )
    # worklist-level distinct-item equation: banked steal surplus appears in
    # the raw per-queue totals twice (once at the victim's pop, once at the
    # thief's banking push), so the aggregated stats() record must balance
    # after removing the double count from both sides
    stats_fn = getattr(worklist, "stats", None)
    if callable(stats_fn):
        st = stats_fn()
        banked = st.banked_items
        if not 0 <= banked <= min(st.items_pushed, st.items_popped):
            raise InvariantViolation(
                f"worklist banked {banked} items but only pushed "
                f"{st.items_pushed} / popped {st.items_popped}"
            )
        distinct_pushed = st.items_pushed - banked
        distinct_popped = st.items_popped - banked
        if distinct_pushed != distinct_popped + st.items_drained + worklist.size:
            raise InvariantViolation(
                f"worklist leaks distinct items: pushed {distinct_pushed} != "
                f"popped {distinct_popped} + drained {st.items_drained} "
                f"+ live {worklist.size} (banked {banked})"
            )
