"""ASCII profile report: where did the simulated time go?

:func:`format_profile` renders the paper-reading view of a traced run —
the top time sinks per configuration (compute, queue-atomic wait, idle,
barrier, launch) plus a worker-occupancy summary.  This is the inspection
tool the evaluation methodology calls for: before trusting a Table 1
number, look at where its nanoseconds went.

Accounting model
----------------
Wall time is the run's ``elapsed_ns``.  Worker time is
``worker_slots * elapsed_ns`` — the area the paper's occupancy argument is
about.  Within worker time:

* **compute** — sum of task spans (pop instant to completion);
* **queue wait** — contention wait behind queue atomics (also inside task
  spans; reported separately because it is the shared-queue scaling term);
* **launch/barrier** — wall-clock scheduler overhead, charged across all
  slots (no worker can run during them);
* **idle** — the remainder: parked workers and drained-queue polling.
"""

from __future__ import annotations

from repro.obs.collector import Collector

__all__ = ["format_profile"]


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "-"


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.4f}"


def format_profile(
    collector: Collector,
    *,
    elapsed_ns: float | None = None,
    worker_slots: int | None = None,
    config_name: str = "",
) -> str:
    """Render the top-time-sinks table plus a worker-occupancy summary.

    ``elapsed_ns`` is the run's wall time (an edit replay's
    ``replay_total_elapsed_ns``; default: the collector's
    :meth:`~repro.obs.collector.Collector.end_time`) and ``worker_slots``
    its slot count (default: the workers observed).
    """
    # deferred: analysis imports the apps package, whose kernels import the
    # scheduler, which imports repro.obs — a module-level import here would
    # close that cycle
    from repro.analysis.tables import format_table

    end = elapsed_ns if elapsed_ns is not None else collector.end_time()
    summaries = collector.worker_summaries(elapsed_ns=end)
    slots = worker_slots if worker_slots is not None else len(summaries)
    compute = collector.busy_ns()
    qwait = collector.queue_wait_ns()
    launch = collector.launch_ns()
    barrier = collector.barrier_ns()
    worker_time = slots * end
    overhead = slots * (launch + barrier)
    idle = max(0.0, worker_time - compute - overhead)

    sink_rows = [
        ["compute (task spans)", _ms(compute), _pct(compute, worker_time)],
        ["queue-atomic wait", _ms(qwait), _pct(qwait, worker_time)],
        ["launch (x slots)", _ms(slots * launch), _pct(slots * launch, worker_time)],
        ["barrier (x slots)", _ms(slots * barrier), _pct(slots * barrier, worker_time)],
        ["idle", _ms(idle), _pct(idle, worker_time)],
    ]
    sink_rows.sort(key=lambda r: -float(r[1]))
    title = "Profile — top time sinks"
    if config_name:
        title += f" ({config_name})"
    sinks = format_table(["Sink", "ms", "% worker-time"], sink_rows, title=title)

    if summaries:
        utils = [s.utilization for s in summaries]
        busiest = max(summaries, key=lambda s: s.busy_ns)
        occupancy_rows = [
            ["workers observed", len(summaries), ""],
            ["worker slots", slots, ""],
            ["tasks", sum(s.tasks for s in summaries), ""],
            ["mean utilization", f"{sum(utils) / len(utils):.3f}", ""],
            ["max utilization", f"{max(utils):.3f}", f"worker {busiest.worker}"],
            ["min utilization", f"{min(utils):.3f}", ""],
        ]
        occupancy = format_table(
            ["Metric", "Value", "Note"], occupancy_rows, title="Worker occupancy"
        )
    else:
        occupancy = "(no task spans collected)"

    counts = collector.counts()
    count_line = "events: " + ", ".join(
        f"{name}={counts[name]}" for name in sorted(counts)
    )
    return "\n".join([sinks, "", occupancy, "", count_line])
