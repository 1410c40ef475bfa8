"""Trace export: Chrome ``trace_event`` JSON and flat harness metrics.

:func:`to_chrome_trace` converts a collected event stream into the Chrome
trace-event format (the JSON array flavour wrapped in an object), loadable
in Perfetto or ``chrome://tracing``:

* each worker slot becomes a thread; its tasks are complete events ("X");
* kernel launches, barriers and discrete generations live on a dedicated
  "scheduler" thread;
* queue pushes/pops feed a global "queue depth" counter track ("C");
* empty pops and steals appear as instant events ("i") on per-queue
  threads.

Timestamps are exported in microseconds (the format's unit) from simulated
nanoseconds, on the run's one time line
(:class:`~repro.obs.events.EpochClock`: an edit replay's epochs end to end).  Serialization uses sorted keys and fixed separators so the
same event stream always produces byte-identical JSON — re-running a
seeded simulation and diffing the files is a determinism check.

:func:`flat_metrics` is the harness-facing summary: one flat dict of
scalars suitable for a benchmark table row.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.collector import Collector
from repro.obs.events import (
    Barrier,
    EmptyPop,
    EpochClock,
    GenerationEnd,
    GenerationStart,
    KernelLaunch,
    PolicySwitch,
    QueuePop,
    QueuePush,
    QueueSteal,
    TaskPop,
    TaskRead,
)

__all__ = ["to_chrome_trace", "write_chrome_trace", "flat_metrics"]

_PID = 0
#: tid of the synthetic "scheduler" thread (launches, barriers, generations)
_SCHED_TID = 10_000
#: queue threads are numbered upward from here, in first-seen order
_QUEUE_TID_BASE = 20_000


def _us(t_ns: float) -> float:
    return t_ns / 1e3


def _thread_name(tid: int, name: str) -> dict[str, Any]:
    return {"name": "thread_name", "ph": "M", "pid": _PID, "tid": tid, "args": {"name": name}}


def _span(name: str, tid: int, start_ns: float, dur_ns: float, args: dict) -> dict[str, Any]:
    """A complete ("X") event."""
    return {
        "name": name, "ph": "X", "pid": _PID, "tid": tid,
        "ts": _us(start_ns), "dur": _us(dur_ns), "args": args,
    }


def _instant(name: str, scope: str, tid: int, t_ns: float, args: dict) -> dict[str, Any]:
    """An instant ("i") event; ``scope`` is ``"t"`` (thread) or ``"p"`` (process)."""
    return {
        "name": name, "ph": "i", "s": scope, "pid": _PID, "tid": tid,
        "ts": _us(t_ns), "args": args,
    }


def to_chrome_trace(
    collector: Collector, *, process_name: str = "repro", trace_id: str | None = None
) -> dict:
    """Render the collected events as a Chrome trace-event document.

    ``trace_id`` (explicit, or inherited from ``collector.trace_id``)
    stamps the owning service trace into ``otherData`` so a per-job
    engine trace can be joined with its broker spans
    (:func:`repro.dash.trace.trace_to_chrome`) without touching the
    digest-pinned event stream itself.
    """
    trace: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _PID, "args": {"name": process_name}},
        _thread_name(_SCHED_TID, "scheduler"),
    ]
    queue_tids: dict[str, int] = {}

    def queue_tid(name: str) -> int:
        tid = queue_tids.get(name)
        if tid is None:
            tid = queue_tids[name] = _QUEUE_TID_BASE + len(queue_tids)
            trace.append(_thread_name(tid, f"queue {name}"))
        return tid

    # worker task spans (one "X" event per task)
    workers_seen: set[int] = set()
    for span in collector.task_spans():
        if span.worker not in workers_seen:
            workers_seen.add(span.worker)
            trace.append(_thread_name(span.worker, f"worker {span.worker}"))
        trace.append(_span(
            "task", span.worker, span.start, span.duration,
            {"items": span.items, "retired": span.retired},
        ))

    clock = EpochClock()
    open_generations: dict[int, tuple[float, int]] = {}
    for e in collector.events:
        t = clock.at(e)
        if isinstance(e, TaskRead):
            trace.append(_instant("read", "t", e.worker, t, {"items": e.items}))
        elif isinstance(e, (KernelLaunch, Barrier)):
            name = "kernel launch" if isinstance(e, KernelLaunch) else "barrier"
            trace.append(_span(name, _SCHED_TID, t, e.duration_ns, {}))
        elif isinstance(e, GenerationStart):
            open_generations[e.generation] = (t, e.items)
        elif isinstance(e, GenerationEnd):
            start = open_generations.pop(e.generation, None)
            if start is not None:
                trace.append(_span(
                    f"generation {e.generation}", _SCHED_TID, start[0], t - start[0],
                    {"items": start[1]},
                ))
        elif isinstance(e, EmptyPop):
            trace.append(_instant("empty pop", "t", queue_tid(e.queue), t, {}))
        elif isinstance(e, QueueSteal):
            trace.append(_instant(
                "steal", "p", _SCHED_TID, t,
                {"thief": e.thief, "victim": e.victim, "items": e.items},
            ))
        elif isinstance(e, PolicySwitch):
            trace.append(_instant(
                f"switch to {e.policy}", "p", _SCHED_TID, t,
                {"generation": e.generation, "items": e.items},
            ))

    for t, depth in collector.queue_depth_series():
        trace.append(
            {"name": "queue depth", "ph": "C", "pid": _PID, "ts": _us(t), "args": {"items": depth}}
        )

    other: dict[str, Any] = {"digest": collector.digest(), "events": len(collector.events)}
    if trace_id is None:
        trace_id = getattr(collector, "trace_id", None)
    if trace_id is not None:
        other["trace_id"] = trace_id
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(collector: Collector, path: str, *, process_name: str = "repro") -> None:
    """Serialize :func:`to_chrome_trace` output to ``path``.

    Sorted keys and fixed separators make equal event streams produce
    byte-identical files.
    """
    doc = to_chrome_trace(collector, process_name=process_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def flat_metrics(collector: Collector, *, elapsed_ns: float | None = None) -> dict[str, Any]:
    """One flat dict of scalars summarizing the traced run.

    Counts are ints, durations are floats (ns).
    """
    spans = collector.task_spans()
    end = elapsed_ns if elapsed_ns is not None else collector.end_time()
    busy = sum(s.duration for s in spans)
    series = collector.queue_depth_series()
    return {
        "events": len(collector.events),
        "elapsed_ns": float(end),
        "tasks": len(collector.events_of(TaskPop)),
        "items_popped": int(sum(e.items for e in collector.events_of(TaskPop))),
        "items_retired": int(sum(s.retired for s in spans)),
        "busy_ns": float(busy),
        "queue_wait_ns": float(collector.queue_wait_ns()),
        "launch_ns": float(collector.launch_ns()),
        "barrier_ns": float(collector.barrier_ns()),
        "empty_pops": len(collector.events_of(EmptyPop)),
        "queue_pushes": len(collector.events_of(QueuePush)),
        "queue_pops": len(collector.events_of(QueuePop)),
        "steals": len(collector.events_of(QueueSteal)),
        "policy_switches": len(collector.events_of(PolicySwitch)),
        "max_queue_depth": int(max((d for _, d in series), default=0)),
        "final_queue_depth": int(series[-1][1]) if series else 0,
    }
