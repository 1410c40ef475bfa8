"""Span-based tracing for the service path (broker → executor → engine).

The obs layer (:mod:`repro.obs`) records *simulated* time inside one
engine run; this module records *wall-clock* spans across the service
machinery around it, so one submitted job becomes one :class:`Trace`:

* a root ``job`` span covering submit → result,
* a ``cache.lookup`` child (every path),
* a ``queue.wait`` child (enqueue → worker dequeue),
* one ``attempt`` child per execution attempt (failed attempts carry
  ``status="error"``),
* an ``engine`` child inside each attempt, measured on the executor
  thread around the actual :func:`~repro.service.jobs.execute_spec`, and
* for dynamic (``--edits``) jobs with event capture on, one ``epoch``
  child per replay epoch under the engine span
  (:class:`EpochWallSink` stamps the wall clock at each
  :class:`~repro.obs.events.EpochMark`).

Design constraints that shaped this:

* **Event reprs are digest-pinned.**  The obs event dataclasses cannot
  grow a ``trace_id`` field without changing their byte-stable reprs
  (and thereby every golden digest).  Correlation therefore lives one
  level up: the broker tags the per-job :class:`~repro.obs.Collector`
  with the trace id, and the Chrome export stamps it into ``otherData``
  — the *stream* stays bit-identical.
* **Spans close on executor threads.**  The engine span is measured on
  the worker thread that ran the simulation, while the root closes on
  the event loop; :class:`Trace` serialises appends behind a lock.
* **Bounded memory.**  :class:`Tracer` keeps the last ``capacity``
  finished traces (FIFO eviction), mirroring the bounded-memory
  contract everywhere else in the telemetry stack.

:func:`trace_to_chrome` merges one trace with its captured engine event
stream into a single Chrome ``trace_event`` document: broker wall-clock
spans under one pid, the engine's simulated-time events under another,
``otherData.trace_id`` shared — the "one merged trace file per job".
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.obs.events import EpochMark, TraceEvent

__all__ = [
    "TRACE_SCHEMA",
    "TraceContext",
    "Span",
    "Trace",
    "Tracer",
    "EpochWallSink",
    "trace_to_chrome",
]

TRACE_SCHEMA = "repro.dash/trace-v1"

#: wall-clock now in integer nanoseconds (one clock for every span)
now_ns = time.perf_counter_ns


def _new_id() -> str:
    """16-hex random id (trace or span); uniqueness, not cryptography."""
    return os.urandom(8).hex()


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagatable identity of a trace: its id + the parent span id.

    Minted at :meth:`~repro.service.broker.Broker.submit`; everything
    downstream (executor thread, engine Collector, Chrome export) references the
    ``trace_id``, and child spans attach under ``span_id``.
    """

    trace_id: str
    span_id: str

    def child_of(self, span: "Span") -> "TraceContext":
        return TraceContext(self.trace_id, span.span_id)


@dataclass(slots=True)
class Span:
    """One named wall-clock interval inside a trace."""

    span_id: str
    parent_id: str | None
    name: str
    start_ns: int
    end_ns: int | None = None
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return 0 if self.end_ns is None else self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class Trace:
    """One job's spans plus (optionally) its captured engine events.

    Appends are lock-serialised: the engine span lands from an executor
    thread while the root span closes on the event loop.
    """

    def __init__(self, trace_id: str, *, job: str, key: str, tenant: str) -> None:
        self.trace_id = trace_id
        self.job = job
        self.key = key
        self.tenant = tenant
        self.outcome = "open"
        self.spans: list[Span] = []
        self.engine_doc: dict | None = None  # Chrome doc of the captured run
        self._lock = threading.Lock()
        self.root = self.start_span("job", parent_id=None)

    # ------------------------------------------------------------------
    def start_span(
        self, name: str, *, parent_id: str | None = "root", start_ns: int | None = None
    ) -> Span:
        """Open a span; ``parent_id="root"`` (default) nests under the root."""
        if parent_id == "root":
            parent_id = self.root.span_id
        span = Span(
            span_id=_new_id(),
            parent_id=parent_id,
            name=name,
            start_ns=now_ns() if start_ns is None else start_ns,
        )
        with self._lock:
            self.spans.append(span)
        return span

    def end_span(self, span: Span, *, status: str = "ok", **attrs) -> Span:
        span.end_ns = now_ns()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        return span

    def add_span(
        self,
        name: str,
        *,
        start_ns: int,
        end_ns: int,
        parent_id: str | None = "root",
        status: str = "ok",
        attrs: dict | None = None,
    ) -> Span:
        """Record a span whose bounds were measured externally."""
        span = self.start_span(name, parent_id=parent_id, start_ns=start_ns)
        span.end_ns = end_ns
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        return span

    # ------------------------------------------------------------------
    def find_span(self, name: str) -> Span | None:
        """First span with this name, or None."""
        with self._lock:
            for span in self.spans:
                if span.name == name:
                    return span
        return None

    def spans_named(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    @property
    def wall_ms(self) -> float:
        return self.root.duration_ns / 1e6

    def to_dict(self) -> dict:
        with self._lock:
            spans = [s.to_dict() for s in self.spans]
        doc = {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "job": self.job,
            "key": self.key,
            "tenant": self.tenant,
            "outcome": self.outcome,
            "start_ns": self.root.start_ns,
            "wall_ms": self.wall_ms,
            "spans": spans,
        }
        if self.engine_doc is not None:
            doc["engine"] = self.engine_doc
        return doc

    def summary(self, *, t0_ns: int | None = None) -> dict:
        """Compact row for the trace table / task-stream panel."""
        engine = self.find_span("engine")
        attempts = self.spans_named("attempt")
        worker = None
        for span in attempts:
            worker = span.attrs.get("worker", worker)
        base = self.root.start_ns - (t0_ns if t0_ns is not None else self.root.start_ns)
        return {
            "trace_id": self.trace_id,
            "job": self.job,
            "tenant": self.tenant,
            "outcome": self.outcome,
            "start_ms": base / 1e6,
            "wall_ms": self.wall_ms,
            "engine_ms": (engine.duration_ns / 1e6) if engine else 0.0,
            "attempts": len(attempts),
            "worker": worker,
            "spans": len(self.spans),
        }


class Tracer:
    """Mints traces and retains the last ``capacity`` finished ones."""

    def __init__(self, *, capacity: int = 256, capture_events: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.capture_events = capture_events
        self.t0_ns = now_ns()
        self._done: OrderedDict[str, Trace] = OrderedDict()
        self._lock = threading.Lock()
        self.started = 0
        self.finished = 0

    # ------------------------------------------------------------------
    def start(self, *, job: str, key: str, tenant: str) -> Trace:
        self.started += 1
        return Trace(_new_id(), job=job, key=key, tenant=tenant)

    def finish(self, trace: Trace, *, outcome: str, **attrs) -> Trace:
        """Close the root span, stamp the outcome, and retain the trace."""
        trace.end_span(
            trace.root, status="error" if outcome in ("failed", "rejected") else "ok",
            **attrs,
        )
        trace.outcome = outcome
        with self._lock:
            self.finished += 1
            self._done[trace.trace_id] = trace
            while len(self._done) > self.capacity:
                self._done.popitem(last=False)
        return trace

    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            return self._done.get(trace_id)

    def traces(self, *, limit: int | None = None) -> list[Trace]:
        """Finished traces, most recent first."""
        with self._lock:
            out = list(reversed(self._done.values()))
        return out if limit is None else out[:limit]

    def summaries(self, *, limit: int = 100) -> list[dict]:
        return [t.summary(t0_ns=self.t0_ns) for t in self.traces(limit=limit)]


class EpochWallSink:
    """EventSink stamping the wall clock at each dynamic-replay epoch mark.

    Attached (alongside the capturing Collector) only when event capture
    is on — attaching any sink makes the engine construct event objects,
    so the spans-only fast path must stay sink-free.
    """

    def __init__(self) -> None:
        self.start_ns = now_ns()
        self.marks: list[tuple[int, int]] = []  # (epoch, wall ns)

    def emit(self, event: TraceEvent) -> None:
        if isinstance(event, EpochMark):
            self.marks.append((event.epoch, now_ns()))

    def epoch_spans(self) -> list[tuple[str, int, int]]:
        """``(name, start_ns, end_ns)`` per observed epoch boundary."""
        out = []
        prev = self.start_ns
        for epoch, t in self.marks:
            out.append((f"epoch {epoch}", prev, t))
            prev = t
        return out


# ---------------------------------------------------------------------------
# Merged Chrome export
# ---------------------------------------------------------------------------

#: pid of the broker's wall-clock spans in the merged document
_BROKER_PID = 1
#: pid engine (simulated-time) events are rebased onto
_ENGINE_PID = 2
#: tid offset for broker worker lanes ("worker 0" → 100)
_WORKER_TID_BASE = 100


def trace_to_chrome(doc: dict) -> dict:
    """Merge one trace document into a single Chrome ``trace_event`` doc.

    Broker spans render as "X" events under pid 1 in *wall* microseconds
    (zeroed at the root span); the captured engine stream — already a
    Chrome doc in *simulated* microseconds — is rebased onto pid 2.  The
    two clocks are different by construction; the shared ``trace_id`` in
    ``otherData`` is the join key, not the time axis.
    """
    base_ns = doc["start_ns"]
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _BROKER_PID,
            "args": {"name": f"broker (wall) {doc['job']}"},
        },
        {"name": "thread_name", "ph": "M", "pid": _BROKER_PID, "tid": 0,
         "args": {"name": "client"}},
    ]
    worker_tids: set[int] = set()
    for span in doc["spans"]:
        worker = span["attrs"].get("worker")
        if span["name"] in ("attempt", "engine") and worker is not None:
            tid = _WORKER_TID_BASE + int(worker)
            if tid not in worker_tids:
                worker_tids.add(tid)
                events.append(
                    {"name": "thread_name", "ph": "M", "pid": _BROKER_PID,
                     "tid": tid, "args": {"name": f"svc worker {worker}"}}
                )
        else:
            tid = 0
        end_ns = span["end_ns"] if span["end_ns"] is not None else span["start_ns"]
        events.append(
            {
                "name": span["name"],
                "ph": "X",
                "pid": _BROKER_PID,
                "tid": tid,
                "ts": (span["start_ns"] - base_ns) / 1e3,
                "dur": (end_ns - span["start_ns"]) / 1e3,
                "args": {"status": span["status"], **span["attrs"]},
            }
        )
    other = {"trace_id": doc["trace_id"], "outcome": doc["outcome"], "job": doc["job"]}
    engine = doc.get("engine")
    if engine is not None:
        for ev in engine["traceEvents"]:
            ev = dict(ev)
            ev["pid"] = _ENGINE_PID
            events.append(ev)
        other["engine_digest"] = engine.get("otherData", {}).get("digest")
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}
