"""Typed simulation events and the ``EventSink`` protocol.

The observability layer follows one rule everywhere: **disabled means
absent**.  A producer holds ``sink: EventSink | None`` and every emit point
is guarded by ``if sink is not None`` — when no sink is attached, no event
object is ever constructed, so instrumented code paths cost one attribute
test (the acceptance criterion for the benchmark harness, which runs with
tracing off).

Events are frozen, slotted dataclasses keyed on simulated time ``t`` (ns).
Two producers emit them:

* the **queueing layer** (:mod:`repro.queueing.mpmc`,
  :mod:`repro.queueing.stealing`) emits :class:`QueuePush`,
  :class:`QueuePop`, :class:`EmptyPop` and :class:`QueueSteal` — one event
  per physical-queue atomic operation, carrying the queue's depth after the
  operation and the contention wait the atomic induced;
* the **scheduler layer** (:mod:`repro.core.engine`) emits
  :class:`TaskPop`, :class:`TaskRead`, :class:`TaskComplete`,
  :class:`KernelLaunch`, :class:`Barrier` and
  :class:`GenerationStart`/:class:`GenerationEnd` — the worker-visible
  lifecycle;
* the **BSP baseline** (:class:`repro.bsp.engine.BspTimeline`) emits the
  same scheduler types, one generation per iteration.

An edit replay emits an :class:`EpochMark` between epochs, and an
:class:`EpochClock` lays its epochs end to end.

Because every field is a plain number or string and the simulation is
bit-deterministic for a fixed seed, the ``repr`` of an event stream is
byte-stable across runs; :meth:`repro.obs.collector.Collector.digest`
exploits this to turn any traced run into a determinism check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

__all__ = [
    "TraceEvent",
    "TaskPop",
    "TaskRead",
    "TaskComplete",
    "QueuePush",
    "QueuePop",
    "EmptyPop",
    "QueueSteal",
    "RemotePush",
    "RemoteSteal",
    "EpochMark",
    "EpochClock",
    "GenerationStart",
    "GenerationEnd",
    "KernelLaunch",
    "Barrier",
    "PolicySwitch",
    "EventSink",
    "MultiSink",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class: every event happens at a simulated instant ``t`` (ns)."""

    t: float


# ---------------------------------------------------------------------------
# Scheduler-level events (one per worker-task lifecycle step)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TaskPop(TraceEvent):
    """A worker's successful pop: ``items`` work items claimed at ``t``."""

    worker: int
    items: int


@dataclass(frozen=True, slots=True)
class TaskRead(TraceEvent):
    """The task's read instant — shared state observed (Section 6.3)."""

    worker: int
    items: int


@dataclass(frozen=True, slots=True)
class TaskComplete(TraceEvent):
    """Task completion: writes applied, follow-on work pushed.

    ``retired`` and ``work`` are the task's contribution to the run's
    ``items_retired`` / ``work_units`` counters; ``pushed`` is the number of
    new work items the completion produced.
    """

    worker: int
    items: int
    retired: int
    pushed: int
    work: float


@dataclass(frozen=True, slots=True)
class GenerationStart(TraceEvent):
    """Discrete strategy: a queue generation begins with ``items`` queued."""

    generation: int
    items: int


@dataclass(frozen=True, slots=True)
class GenerationEnd(TraceEvent):
    """Discrete strategy: the generation's event loop drained."""

    generation: int


@dataclass(frozen=True, slots=True)
class KernelLaunch(TraceEvent):
    """A kernel launch occupying ``[t, t + duration_ns]`` of wall time."""

    duration_ns: float


@dataclass(frozen=True, slots=True)
class Barrier(TraceEvent):
    """A global synchronization occupying ``[t, t + duration_ns]``."""

    duration_ns: float


@dataclass(frozen=True, slots=True)
class PolicySwitch(TraceEvent):
    """Hybrid strategy: the scheduler crossed a frontier watermark.

    ``policy`` names the mode being switched *to* (``"persistent"`` or
    ``"discrete"``); ``items`` is the live frontier size that triggered the
    decision; ``generation`` is the upcoming phase's ordinal.
    """

    generation: int
    items: int
    policy: str


# ---------------------------------------------------------------------------
# Queue-level events (one per physical-queue atomic operation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class QueuePush(TraceEvent):
    """``items`` appended to physical queue ``queue``; completed at ``t``.

    ``depth`` is the queue's size after the push; ``wait_ns`` is how long
    the operation waited behind the queue's tail atomic.
    """

    queue: str
    items: int
    depth: int
    wait_ns: float


@dataclass(frozen=True, slots=True)
class QueuePop(TraceEvent):
    """``items`` removed from physical queue ``queue``; completed at ``t``."""

    queue: str
    items: int
    depth: int
    wait_ns: float


@dataclass(frozen=True, slots=True)
class EmptyPop(TraceEvent):
    """A pop that found ``queue`` empty (still paid the atomic)."""

    queue: str
    wait_ns: float


@dataclass(frozen=True, slots=True)
class QueueSteal(TraceEvent):
    """A successful steal: ``items`` moved from deque ``victim`` to ``thief``.

    ``banked`` of those items are immediately re-pushed into the thief's
    own deque (stolen surplus beyond the pop's ``max_items``); they show up
    a second time in the push/pop item totals, so item-conservation checks
    subtract them.
    """

    thief: int
    victim: int
    items: int
    banked: int = 0


# ---------------------------------------------------------------------------
# Device-level events (multi-device runs only; never emitted when devices=1,
# so single-device event streams — and their digests — are unchanged)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RemotePush(TraceEvent):
    """``items`` forwarded from device ``src`` to their owner device ``dst``.

    ``t`` is the *arrival* instant at the destination deque (send time plus
    link serialization plus latency); ``transfer_ns`` is the interconnect
    occupancy the transfer paid, including queueing behind earlier
    transfers on the same directed link.
    """

    src: int
    dst: int
    items: int
    transfer_ns: float


@dataclass(frozen=True, slots=True)
class RemoteSteal(TraceEvent):
    """A cross-device steal: ``items`` pulled from device ``victim``'s deque.

    Emitted alongside the :class:`QueueSteal` carrying the worker-level
    thief/victim detail; this event carries the device-level routing and
    the interconnect cost of moving the loot.
    """

    thief: int
    victim: int
    items: int
    transfer_ns: float


# ---------------------------------------------------------------------------
# Dynamic-graph events (edit-replay runs only; never emitted for a static
# graph, so frozen-graph event streams — and their digests — are unchanged)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EpochMark(TraceEvent):
    """Boundary between two graph epochs of a multi-epoch (dynamic) run.

    Emitted by :func:`repro.apps.common.replay_app` after the epoch's
    engine drained and **before** the next epoch's run begins — i.e. at a
    quiescent instant: no tasks in flight, every queue empty.  ``t`` is
    the finishing epoch's elapsed simulated time; per-epoch runs restart
    their clocks at 0, so the invariant monitor resets its queue/worker
    clocks here, and every derived view reads the stream through an
    :class:`EpochClock`.  ``inserts``/``deletes`` count the *effective*
    edge changes of the batch that produced the next epoch's graph.
    """

    epoch: int
    inserts: int
    deletes: int


class EpochClock:
    """A replay's one time line: each epoch laid after the one before.

    Fed every event of a stream in order, :meth:`at` returns its instant on
    the run-wide axis; an :class:`EpochMark` moves the origin (``offset``)
    to the finished epoch's end.  A static run's times pass through as
    they are, and the events stay raw (digests hash them as emitted).
    """

    __slots__ = ("offset",)

    def __init__(self) -> None:
        self.offset = 0.0

    def at(self, event: TraceEvent) -> float:
        t = event.t + self.offset
        if isinstance(event, EpochMark):
            self.offset = t
        return t


# ---------------------------------------------------------------------------
# Sink protocol
# ---------------------------------------------------------------------------

@runtime_checkable
class EventSink(Protocol):
    """Anything that accepts a stream of :class:`TraceEvent` objects.

    Producers treat a sink of ``None`` as "tracing disabled" and skip event
    construction entirely; implementations therefore never see gaps — if a
    sink is attached, it sees every event the run generates.
    """

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - protocol
        ...


class MultiSink:
    """Fan one event stream out to several sinks, in order.

    Lets a :class:`~repro.obs.collector.Collector`, a
    :class:`~repro.metrics.sink.MetricsSink` and a
    :class:`~repro.check.invariants.InvariantMonitor` all observe the same
    run — producers still hold exactly one ``sink``.  ``None`` entries are
    dropped and nested ``MultiSink`` instances are flattened, so callers
    can compose optional sinks without special-casing; a ``MultiSink``
    over zero or one sink is never needed (pass the sink, or ``None``).
    """

    __slots__ = ("sinks",)

    def __init__(self, *sinks: "EventSink | None") -> None:
        flat: list[EventSink] = []
        for sink in sinks:
            if sink is None:
                continue
            if isinstance(sink, MultiSink):
                flat.extend(sink.sinks)
            else:
                flat.append(sink)
        self.sinks: tuple[EventSink, ...] = tuple(flat)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)
