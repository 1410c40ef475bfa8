"""In-memory event collector and derived run analyses.

:class:`Collector` is the standard :class:`~repro.obs.events.EventSink`:
it appends every event to a list and derives, on demand,

* per-worker timelines (pop→complete spans, one per task);
* the global queue-depth time series (summed over physical queues);
* a worker-utilization / occupancy summary;
* a byte-stable digest of the whole event stream, which doubles as a
  determinism check — two same-seed runs must produce identical digests.

All analyses are computed lazily from the raw event list, so collecting is
a single ``list.append`` per event.  The timelines read times through an
:class:`~repro.obs.events.EpochClock`, so an edit replay's epochs lie end
to end; :attr:`Collector.events` and :meth:`Collector.digest` stay raw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.obs.events import (
    Barrier,
    EmptyPop,
    EpochClock,
    KernelLaunch,
    QueuePop,
    QueuePush,
    TaskComplete,
    TaskPop,
    TraceEvent,
)

__all__ = ["Collector", "TaskSpan", "WorkerSummary"]


@dataclass(frozen=True, slots=True)
class TaskSpan:
    """One task's residence on a worker: pop instant to completion."""

    worker: int
    start: float
    end: float
    items: int
    retired: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class WorkerSummary:
    """Occupancy summary for one worker slot."""

    worker: int
    tasks: int
    busy_ns: float
    utilization: float  # busy / observed span


class Collector:
    """Append-only event sink with derived timelines and metrics.

    ``trace_id`` optionally names the owning service trace
    (:mod:`repro.dash.trace`).  It lives on the collector — never on the
    events — so correlation costs nothing on the digest-pinned stream:
    event reprs stay byte-identical whether or not a trace owns the run.
    """

    def __init__(self, *, trace_id: str | None = None) -> None:
        self.events: list[TraceEvent] = []
        self.trace_id = trace_id

    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def events_of(self, *types: type) -> list[TraceEvent]:
        """All events that are instances of the given event classes."""
        return [e for e in self.events if isinstance(e, types)]

    def counts(self) -> dict[str, int]:
        """Event count per event-class name."""
        out: dict[str, int] = {}
        for e in self.events:
            name = type(e).__name__
            out[name] = out.get(name, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Timelines
    # ------------------------------------------------------------------
    def task_spans(self) -> list[TaskSpan]:
        """Pop→complete spans, paired per worker.

        A worker slot processes one task at a time, so its ``TaskComplete``
        always matches its most recent ``TaskPop``.
        """
        clock = EpochClock()
        open_pops: dict[int, float] = {}
        spans: list[TaskSpan] = []
        for e in self.events:
            t = clock.at(e)
            if isinstance(e, TaskPop):
                open_pops[e.worker] = t
            elif isinstance(e, TaskComplete):
                start = open_pops.pop(e.worker, None)
                if start is not None:
                    spans.append(
                        TaskSpan(
                            worker=e.worker,
                            start=start,
                            end=t,
                            items=e.items,
                            retired=e.retired,
                        )
                    )
        return spans

    def worker_timelines(self) -> dict[int, list[TaskSpan]]:
        """Per-worker lists of task spans in time order."""
        out: dict[int, list[TaskSpan]] = {}
        for span in self.task_spans():
            out.setdefault(span.worker, []).append(span)
        return out

    def worker_summaries(self, *, elapsed_ns: float | None = None) -> list[WorkerSummary]:
        """Busy time and utilization per worker slot.

        ``elapsed_ns`` defaults to the time of the last event; utilization
        is busy time divided by that span.
        """
        end = elapsed_ns if elapsed_ns is not None else self.end_time()
        out = []
        for worker, spans in sorted(self.worker_timelines().items()):
            busy = sum(s.duration for s in spans)
            out.append(
                WorkerSummary(
                    worker=worker,
                    tasks=len(spans),
                    busy_ns=busy,
                    utilization=busy / end if end > 0 else 0.0,
                )
            )
        return out

    def queue_depth_series(self) -> list[tuple[float, int]]:
        """``(t, total_depth)`` after every queue push/pop, summed over all
        physical queues.  Ends at 0 when the run drained everything."""
        clock = EpochClock()
        depths: dict[str, int] = {}
        total = 0
        series: list[tuple[float, int]] = []
        for e in self.events:
            t = clock.at(e)
            if isinstance(e, (QueuePush, QueuePop)):
                total += e.depth - depths.get(e.queue, 0)
                depths[e.queue] = e.depth
                series.append((t, total))
        return series

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def end_time(self) -> float:
        """Latest instant observed (including launch/barrier extents)."""
        clock = EpochClock()
        end = 0.0
        for e in self.events:
            t = clock.at(e)
            if isinstance(e, (KernelLaunch, Barrier)):
                t += e.duration_ns
            if t > end:
                end = t
        return end

    def busy_ns(self) -> float:
        """Total worker-busy time (sum of task-span durations)."""
        return sum(s.duration for s in self.task_spans())

    def queue_wait_ns(self) -> float:
        """Total time spent waiting on queue atomics (contention)."""
        return sum(
            e.wait_ns for e in self.events if isinstance(e, (QueuePush, QueuePop, EmptyPop))
        )

    def launch_ns(self) -> float:
        return sum(e.duration_ns for e in self.events_of(KernelLaunch))

    def barrier_ns(self) -> float:
        return sum(e.duration_ns for e in self.events_of(Barrier))

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over the canonical event stream.

        Event reprs are byte-stable for a fixed seed, so equal digests
        across two runs certify bit-deterministic simulation.
        """
        h = hashlib.sha256()
        for e in self.events:
            h.update(repr(e).encode("utf-8"))
            h.update(b"\x1e")
        return h.hexdigest()
