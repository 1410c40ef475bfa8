"""repro.dash: end-to-end job tracing + the live/zero-dep web dashboard.

* :mod:`repro.dash.trace` — wall-clock span tracing across broker →
  executor → engine (:class:`Trace`, :class:`Tracer`), plus the merged
  Chrome export joining broker spans with the captured engine event
  stream under one ``trace_id``;
* :mod:`repro.dash.page` — the self-contained HTML/JS/SVG dashboard
  served at ``GET /dash`` and written by ``repro dash --snapshot``; it
  draws the broker's ``/v1/stats`` document;
* :mod:`repro.dash.snapshot` — static snapshot assembly from a live
  service or from a single :class:`~repro.obs.Collector` run.

See ``docs/observability.md`` ("Tracing" / "Live dashboard").
"""

from repro.dash.page import render_page
from repro.dash.snapshot import (
    collector_snapshot,
    service_snapshot,
    write_snapshot,
)
from repro.dash.trace import (
    TRACE_SCHEMA,
    EpochWallSink,
    Span,
    Trace,
    Tracer,
    trace_to_chrome,
)

__all__ = [
    "TRACE_SCHEMA",
    "EpochWallSink",
    "Span",
    "Trace",
    "Tracer",
    "collector_snapshot",
    "render_page",
    "service_snapshot",
    "trace_to_chrome",
    "write_snapshot",
]
