"""Static snapshot assembly for the dashboard (CI artifacts, offline runs).

Two producers, one page:

* :func:`service_snapshot` — point-in-time copy of a *running* service:
  the ``/v1/stats`` document, the recent-trace list, and pre-fetched
  detail documents for the newest traces, so the emitted HTML is fully
  clickable with no server behind it.
* :func:`collector_snapshot` — offline rendering for non-service runs: a
  :class:`~repro.obs.Collector` from one traced cell becomes the
  task-stream / queue-depth / occupancy panels in *simulated* time,
  optionally alongside the run's streamed-metrics summary
  (``result.extra["metrics"]``) series.

Both return the plain-dict payload that
:func:`~repro.dash.page.render_page` embeds as ``window.SNAPSHOT``;
:func:`write_snapshot` is the one-call "give me the HTML file" form.
"""

from __future__ import annotations

from pathlib import Path

from repro.dash.page import render_page

__all__ = [
    "SNAPSHOT_SCHEMA",
    "service_snapshot",
    "collector_snapshot",
    "write_snapshot",
]

#: v2 embeds the ``/v1/stats`` document under ``stats``
SNAPSHOT_SCHEMA = "repro.dash/snapshot-v2"


def service_snapshot(client, *, detail_limit: int = 20) -> dict:
    """Capture a running service's dashboard state via its HTTP API.

    ``client`` is a :class:`~repro.service.client.ServiceClient`; the
    newest ``detail_limit`` traces are fetched in full so the snapshot's
    waterfall view works offline.
    """
    stats = client.stats()
    traces = client.traces()
    details: dict[str, dict] = {}
    for row in traces.get("traces", [])[:detail_limit]:
        trace_id = row.get("trace_id")
        if trace_id:
            try:
                details[trace_id] = client.trace(trace_id)
            except Exception:  # noqa: BLE001 - a trace may be evicted mid-walk
                continue
    return {
        "schema": SNAPSHOT_SCHEMA,
        "stats": stats,
        "traces": traces,
        "details": details,
    }


def collector_snapshot(collector, result=None, *, config: str | None = None) -> dict:
    """Offline (no service) snapshot from one collected engine run.

    ``collector`` is a :class:`~repro.obs.Collector` that observed the
    run; ``result`` the :class:`~repro.apps.common.AppResult` (supplies
    identity, the authoritative elapsed clock — an edit replay's
    ``replay_total_elapsed_ns`` — and, when the run was executed with
    ``metrics=True``, the streamed-metrics summary whose
    :class:`~repro.metrics.series.StrideSeries` panels render alongside).
    """
    elapsed = (
        float(result.extra.get("replay_total_elapsed_ns", result.elapsed_ns))
        if result is not None else collector.end_time()
    )
    spans = [
        [int(s.worker), float(s.start), float(s.end), int(s.items), int(s.retired)]
        for s in collector.task_spans()
    ]
    summaries = collector.worker_summaries(elapsed_ns=elapsed)
    engine = {
        "meta": {
            "app": getattr(result, "app", None),
            "dataset": getattr(result, "dataset", None),
            "config": config or getattr(result, "impl", None),
            "elapsed_ns": elapsed,
            "tasks": len(spans),
            "retired": int(sum(s[4] for s in spans)),
            "events": len(collector.events),
            "workers": len(summaries),
            "digest": collector.digest(),
            "trace_id": getattr(collector, "trace_id", None),
        },
        "spans": spans,
        "queue": [[float(t), int(d)] for t, d in collector.queue_depth_series()],
        "occupancy": [[w.worker, w.utilization] for w in summaries],
        "metrics": (result.extra.get("metrics") if result is not None else None),
    }
    return {"schema": SNAPSHOT_SCHEMA, "engine": engine}


def write_snapshot(snapshot: dict, path: str | Path) -> Path:
    """Render ``snapshot`` through the dashboard page and write it."""
    path = Path(path)
    path.write_text(render_page(snapshot), encoding="utf-8")
    return path
