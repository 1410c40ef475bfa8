"""Metric exporters: Prometheus text, JSONL, CSV, sparkline dashboard.

One telemetry model, two documents.  A run's ``MetricsSummary``
(:func:`repro.metrics.summary.summarize`) and the service broker's
``repro.service/stats-v2`` document (:meth:`repro.service.broker.Broker.stats`)
are both laid out as ``counters``, ``histograms`` (log-histogram
snapshots) and ``series`` (stride-series snapshots) plus one labelled
block — a summary's ``devices``, the broker's ``tenants`` — and
:func:`to_prometheus` / :func:`to_jsonl` render either through one
number formatter, one label escaper and one histogram renderer.

Every exporter operates on the document, not on a live sink or broker,
so a document written yesterday exports identically today.  Output is
deterministic — fixed ordering, fixed separators — making exported files
diffable artifacts like the Chrome traces.
"""

from __future__ import annotations

import json
import math

from repro.metrics.hist import LogHistogram
from repro.metrics.sink import COUNTER_NAMES, SERIES_NAMES

__all__ = ["STATS_SCHEMA", "to_prometheus", "to_jsonl", "series_csv", "format_dashboard"]

#: schema of the broker's stats document (the other document rendered here)
STATS_SCHEMA = "repro.service/stats-v2"

#: summary counters exported as Prometheus gauges (high-water marks, not totals)
_GAUGE_COUNTERS = {"max_queue_depth", "max_in_flight"}
#: entries of a labelled block exported as gauges; every other entry is a total
_BLOCK_GAUGES = {"max_depth", "queue_depth"}
#: result-cache entries that are totals; the rest of the cache block are gauges
_CACHE_COUNTERS = {"hits", "misses", "evictions", "poisons_detected"}
_IDENT = ("app", "dataset", "config", "size")

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _escape(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: list[tuple[str, str]]) -> str:
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in pairs)
    return "{" + inner + "}" if inner else ""


def _histogram_lines(name: str, doc: dict, pairs: list) -> list[str]:
    """Native cumulative-``le`` histogram plus p50/p90/p99 gauges."""
    hist = LogHistogram.from_dict(doc)
    lines = [f"# TYPE {name} histogram"]
    cumulative = hist.zero
    for idx, count in hist.items():
        cumulative += count
        le = repr(hist.bucket_bounds(idx)[1])
        lines.append(f"{name}_bucket{_labels([*pairs, ('le', le)])} {cumulative}")
    lines.append(f"{name}_bucket{_labels([*pairs, ('le', '+Inf')])} {hist.count}")
    lines.append(f"{name}_sum{_labels(pairs)} {_fmt(doc['sum'])}")
    lines.append(f"{name}_count{_labels(pairs)} {hist.count}")
    for q in ("p50", "p90", "p99"):
        lines.append(f"# TYPE {name}_{q} gauge")
        lines.append(f"{name}_{q}{_labels(pairs)} {_fmt(doc[q])}")
    return lines


def _scalar(name: str, value: float, pairs: list, *, gauge: bool) -> tuple:
    """One single-sample family: ``(name, type, [(labels, value)])``."""
    if gauge:
        return name, "gauge", [(pairs, value)]
    return f"{name}_total", "counter", [(pairs, value)]


def _block_families(prefix: str, label: str, block: dict, pairs: list) -> list[tuple]:
    """One family per labelled-block entry, one sample per label value."""
    names = sorted({name for entries in block.values() for name in entries})
    families = []
    for name in names:
        gauge = name in _BLOCK_GAUGES
        families.append((
            f"{prefix}_{label}_{name}" + ("" if gauge else "_total"),
            "gauge" if gauge else "counter",
            [([*pairs, (label, key)], entries[name])
             for key, entries in block.items() if name in entries],
        ))
    return families


def _families(doc: dict, prefix: str | None) -> tuple[str, list, list[tuple]]:
    """``(prefix, identity labels, families)`` of either document."""
    if doc.get("schema") == STATS_SCHEMA:
        prefix = prefix or "repro_service"
        families = [
            *(_scalar(f"{prefix}_{k}", v, [], gauge=False) for k, v in doc["counters"].items()),
            *(_scalar(f"{prefix}_{k}", v, [], gauge=True) for k, v in doc["gauges"].items()),
            *(_scalar(f"{prefix}_cache_{k}", v, [], gauge=k not in _CACHE_COUNTERS)
              for k, v in doc["cache"].items()),
            *(_scalar(f"{prefix}_fault_{k}", v, [], gauge=False)
              for k, v in doc["faults"].items()),
            *_block_families(prefix, "tenant", doc["tenants"], []),
        ]
        return prefix, [], families
    prefix = prefix or "repro"
    pairs = [(key, doc[key]) for key in _IDENT if doc.get(key)]
    families = [
        _scalar(f"{prefix}_elapsed_ns", doc["elapsed_ns"], pairs, gauge=True),
        *(_scalar(f"{prefix}_{name}", doc["counters"][name], pairs,
                  gauge=name in _GAUGE_COUNTERS) for name in COUNTER_NAMES),
        # Prometheus has no series type: export each series' peak, the
        # full curves live in the JSONL/CSV exports
        *(_scalar(f"{prefix}_{name}_peak", doc["series"][name]["peak"], pairs, gauge=True)
          for name in SERIES_NAMES),
        *_block_families(prefix, "device", doc.get("devices") or {}, pairs),
    ]
    return prefix, pairs, families


def to_prometheus(doc: dict, *, prefix: str | None = None) -> str:
    """Render a run summary or a broker stats document as Prometheus text.

    Counters become ``<prefix>_<name>_total``, gauges and high-water
    marks stay bare, histograms use the native cumulative-``le``
    representation (bucket upper bounds from the log layout) with
    quantile gauges, and each labelled-block entry becomes one family
    with a ``device``/``tenant`` label.  Every family is declared by
    exactly one ``# TYPE`` line, above all of its samples.  The prefix
    defaults to ``repro`` for a summary, ``repro_service`` for stats.
    """
    prefix, pairs, families = _families(doc, prefix)
    lines: list[str] = []
    for name, mtype, samples in families:
        lines.append(f"# TYPE {name} {mtype}")
        lines.extend(f"{name}{_labels(p)} {_fmt(value)}" for p, value in samples)
    for hname, hdoc in doc["histograms"].items():
        lines.extend(_histogram_lines(f"{prefix}_{hname}", hdoc, pairs))
    return "\n".join(lines) + "\n"


def to_jsonl(doc: dict) -> str:
    """One JSON object per line: header, counters, histograms, series, block.

    Line-oriented so downstream tooling (``jq``, log shippers) can stream
    it; every line carries ``kind`` (and, for a summary, the run identity).
    """
    if doc.get("schema") == STATS_SCHEMA:
        ident: dict = {}
        records = [
            {"kind": "service", "schema": doc["schema"], "wall_s": doc["wall_s"],
             "tracing": doc["tracing"], **doc["gauges"]},
            {"kind": "counters", **doc["counters"]},
            {"kind": "cache", **doc["cache"]},
            {"kind": "faults", **doc["faults"]},
        ]
        label, block = "tenant", doc["tenants"]
    else:
        ident = {key: doc.get(key, "") for key in _IDENT}
        records = [
            {"kind": "run", **ident, "elapsed_ns": doc["elapsed_ns"],
             "events_seen": doc["events_seen"], "schema": doc["schema"]},
            {"kind": "counters", **ident, **doc["counters"]},
        ]
        label, block = "device", doc.get("devices") or {}
    for hname, hdoc in doc["histograms"].items():
        records.append({"kind": "histogram", "name": hname, **ident, **hdoc})
    for sname, sdoc in doc["series"].items():
        payload = dict(sdoc)
        # the series' own "kind" (rate/gauge) must not clobber the record kind
        payload["series_kind"] = payload.pop("kind")
        records.append({"kind": "series", "name": sname, **ident, **payload})
    for key, entries in block.items():
        records.append({"kind": label, label: key, **ident, **entries})
    return "\n".join(
        json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records
    ) + "\n"


def series_csv(doc: dict) -> str:
    """Long-format CSV of every time series: ``series,bin,t_ns,value``."""
    rows = ["series,bin,t_ns,value"]
    for sname in SERIES_NAMES:
        s = doc["series"][sname]
        stride = s["stride_ns"]
        for i, value in enumerate(s["values"]):
            rows.append(f"{sname},{i},{i * stride!r},{value!r}")
    return "\n".join(rows) + "\n"


def _spark(values: list[float], width: int = 60) -> str:
    """Unicode sparkline, hardened for degenerate series.

    The scale runs 0..peak (not min..max): negative samples clamp to the
    baseline rather than index-wrapping into the tallest block, non-finite
    samples count as zero, and an empty / all-zero / all-negative series
    renders a placeholder or a flat baseline instead of raising.  A
    constant positive series is everywhere at its own peak, so it renders
    full-height — the peak label alongside carries the magnitude.
    """
    if not values:
        return "(no data)"
    values = [v if math.isfinite(v) else 0.0 for v in values]
    if len(values) > width:  # re-bin to display width by max (peaks matter)
        binned = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            binned.append(max(values[lo:hi]))
        values = binned
    peak = max(values)
    if peak <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, max(0, int(v / peak * top)))] for v in values
    )


def format_dashboard(doc: dict) -> str:
    """ASCII dashboard: headline numbers + one sparkline per series."""
    c = doc["counters"]
    head = " ".join(filter(None, (doc.get("app"), doc.get("dataset"),
                                  f"[{doc.get('config')}]" if doc.get("config") else "",
                                  f"size={doc.get('size')}" if doc.get("size") else "")))
    lines = [
        f"metrics — {head}" if head else "metrics",
        f"  elapsed {doc['elapsed_ns'] / 1e6:.3f} ms   events {doc['events_seen']}   "
        f"tasks {int(c['task_pops'])}   retired {int(c['items_retired'])}",
        f"  launches {int(c['kernel_launches'])}   generations {int(c['generations'])}   "
        f"switches {int(c['policy_switches'])}   steals {int(c['steals'])}   "
        f"empty pops {int(c['empty_pops'])}",
    ]
    lat = doc["histograms"]["task_latency_ns"]
    wait = doc["histograms"]["queue_wait_ns"]
    lines.append(
        f"  task latency ns  p50={lat['p50']:.0f} p90={lat['p90']:.0f} "
        f"p99={lat['p99']:.0f} max={lat['max']:.0f}"
    )
    lines.append(
        f"  queue wait ns    p50={wait['p50']:.0f} p90={wait['p90']:.0f} "
        f"p99={wait['p99']:.0f} max={wait['max']:.0f}"
    )
    label_w = max(len(name) for name in SERIES_NAMES)
    for sname in SERIES_NAMES:
        s = doc["series"][sname]
        unit = "" if s["kind"] == "gauge" else f"/{s['stride_ns'] / 1e3:g}us"
        lines.append(
            f"  {sname:<{label_w}s} {_spark(s['values'])} peak={s['peak']:g}{unit}"
        )
    devices = doc.get("devices") or {}
    if devices:
        lines.append(
            f"  devices {len(devices)}   remote pushes {int(c['remote_pushes'])}   "
            f"remote steals {int(c['remote_steals'])}   "
            f"comm {c['comm_ns'] / 1e6:.3f} ms"
        )
        for dev, block in sorted(devices.items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"    dev{dev}  pushed={int(block['items_pushed'])} "
                f"popped={int(block['items_popped'])} "
                f"remote_in={int(block['remote_items_in'])} "
                f"steals={int(block['remote_steals'])} "
                f"max_depth={int(block['max_depth'])}"
            )
    return "\n".join(lines)
