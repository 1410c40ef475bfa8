"""``repro.obs`` — structured run observability.

A zero-overhead-when-disabled tracing and metrics subsystem threaded
through the scheduler, queueing and BSP layers:

* :mod:`repro.obs.events` — typed simulation events, ``EventSink`` and
  the ``EpochClock`` that lays an edit replay's epochs end to end;
* :mod:`repro.obs.collector` — in-memory collector with per-worker
  timelines, queue-depth series and occupancy summaries;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``) and flat harness metrics;
* :mod:`repro.obs.report` — ASCII top-time-sinks profile.

Attach a :class:`Collector` via the ``sink=`` argument of
:func:`repro.core.policy.run_policy` (or ``Atos(sink=...)``,
``execute_spec(RunSpec(...), sink=...)`` from :mod:`repro.service.jobs`),
or from a shell::

    python -m repro trace bfs roadnet_ca_sim --config persist-warp --out trace.json

Every run emits one stream: the BSP baseline's timeline and an edit
replay reach the same sinks as an engine run (``--config BSP``,
``bfs-inc``).
"""

from repro.obs.collector import Collector, TaskSpan, WorkerSummary
from repro.obs.events import (
    Barrier,
    EmptyPop,
    EpochMark,
    EventSink,
    GenerationEnd,
    GenerationStart,
    KernelLaunch,
    MultiSink,
    PolicySwitch,
    QueuePop,
    QueuePush,
    QueueSteal,
    TaskComplete,
    TaskPop,
    TaskRead,
    TraceEvent,
)
from repro.obs.export import flat_metrics, to_chrome_trace, write_chrome_trace
from repro.obs.report import format_profile

__all__ = [
    "Collector",
    "TaskSpan",
    "WorkerSummary",
    "TraceEvent",
    "EventSink",
    "MultiSink",
    "TaskPop",
    "TaskRead",
    "TaskComplete",
    "QueuePush",
    "QueuePop",
    "EmptyPop",
    "QueueSteal",
    "EpochMark",
    "GenerationStart",
    "GenerationEnd",
    "KernelLaunch",
    "Barrier",
    "PolicySwitch",
    "to_chrome_trace",
    "write_chrome_trace",
    "flat_metrics",
    "format_profile",
]
