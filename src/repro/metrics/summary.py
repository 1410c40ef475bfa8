"""The stable ``MetricsSummary`` schema: one run, one JSON document.

A summary freezes a :class:`~repro.metrics.sink.MetricsSink` into a
schema-versioned dict — counters, histogram snapshots (count/sum/min/max
plus bucket contents), and the stride time series — together with the
run's identity (app, dataset, config, size) and simulated elapsed time.
Every value is derived from *simulated* time, so summaries are
bit-deterministic for a fixed seed and machine-independent: the committed
``BENCH_metrics_baseline.json`` diffs exactly on any host.

:func:`validate_summary` is the drift gate CI runs: schema version,
required keys, internal consistency (bucket counts sum to the histogram
count, series lengths within the bin cap).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.metrics.sink import (
    COUNTER_NAMES,
    DEVICE_COUNTER_NAMES,
    HISTOGRAM_NAMES,
    SERIES_NAMES,
    MetricsSink,
)

__all__ = [
    "SUMMARY_SCHEMA",
    "summarize",
    "validate_summary",
    "write_summary",
    "load_summary",
]

#: v2 adds the device dimension: the ``remote_*``/``comm_ns`` counters,
#: the ``remote_items`` series and the per-device ``devices`` block
#: (empty dict on single-device runs, so v1-era values are unchanged)
SUMMARY_SCHEMA = "repro.metrics/summary-v2"


def summarize(
    sink: MetricsSink,
    *,
    app: str = "",
    dataset: str = "",
    config: str = "",
    size: str = "",
    elapsed_ns: float | None = None,
) -> dict:
    """Freeze a sink into a schema-stable ``MetricsSummary`` document."""
    return {
        "schema": SUMMARY_SCHEMA,
        "app": app,
        "dataset": dataset,
        "config": config,
        "size": size,
        "elapsed_ns": float(elapsed_ns if elapsed_ns is not None else sink.end_t),
        "events_seen": sink.events_seen,
        "counters": {name: sink.counters[name] for name in COUNTER_NAMES},
        "histograms": {name: sink.histograms[name].to_dict() for name in HISTOGRAM_NAMES},
        "series": {name: sink.series[name].to_dict() for name in SERIES_NAMES},
        # keyed by str(device index) so the document round-trips JSON
        "devices": {
            str(dev): dict(sink.device_counters[dev])
            for dev in sorted(sink.device_counters)
        },
    }


def _check_histogram(name: str, doc: Any, problems: list[str]) -> None:
    if not isinstance(doc, dict):
        problems.append(f"histogram {name!r} must be a dict")
        return
    for key in ("min_value", "subbuckets", "count", "sum", "zero", "min", "max",
                "mean", "p50", "p90", "p99", "buckets"):
        if key not in doc:
            problems.append(f"histogram {name!r} missing key {key!r}")
            return
    if not isinstance(doc["buckets"], dict):
        problems.append(f"histogram {name!r} buckets must be a dict")
        return
    bucket_total = sum(doc["buckets"].values()) + doc["zero"]
    if bucket_total != doc["count"]:
        problems.append(
            f"histogram {name!r} buckets sum to {bucket_total}, count says {doc['count']}"
        )
    if doc["count"] < 0 or any(v < 0 for v in doc["buckets"].values()):
        problems.append(f"histogram {name!r} has negative counts")


def _check_series(name: str, doc: Any, problems: list[str]) -> None:
    if not isinstance(doc, dict):
        problems.append(f"series {name!r} must be a dict")
        return
    for key in ("kind", "stride_ns", "max_bins", "rescales", "values", "peak"):
        if key not in doc:
            problems.append(f"series {name!r} missing key {key!r}")
            return
    if doc["kind"] not in ("rate", "gauge"):
        problems.append(f"series {name!r} has unknown kind {doc['kind']!r}")
    if not isinstance(doc["values"], list):
        problems.append(f"series {name!r} values must be a list")
        return
    if len(doc["values"]) > doc["max_bins"]:
        problems.append(
            f"series {name!r} holds {len(doc['values'])} bins, cap is {doc['max_bins']}"
        )
    if doc["stride_ns"] <= 0:
        problems.append(f"series {name!r} stride must be positive")


def validate_summary(doc: Any) -> list[str]:
    """Schema + consistency check; returns problems (empty = valid)."""
    if not isinstance(doc, dict):
        return [f"summary must be a dict, got {type(doc).__name__}"]
    problems: list[str] = []
    if doc.get("schema") != SUMMARY_SCHEMA:
        problems.append(f"schema {doc.get('schema')!r} != {SUMMARY_SCHEMA!r}")
    for key, typ in (
        ("app", str), ("dataset", str), ("config", str), ("size", str),
        ("elapsed_ns", (int, float)), ("events_seen", int),
        ("counters", dict), ("histograms", dict), ("series", dict),
        ("devices", dict),
    ):
        if key not in doc:
            problems.append(f"missing key {key!r}")
        elif not isinstance(doc[key], typ):
            problems.append(f"{key!r} has wrong type {type(doc[key]).__name__}")
    if problems:
        return problems
    for name in COUNTER_NAMES:
        if name not in doc["counters"]:
            problems.append(f"missing counter {name!r}")
        elif not isinstance(doc["counters"][name], (int, float)):
            problems.append(f"counter {name!r} is not a number")
        elif doc["counters"][name] < 0:
            problems.append(f"counter {name!r} is negative")
    for name in HISTOGRAM_NAMES:
        if name not in doc["histograms"]:
            problems.append(f"missing histogram {name!r}")
        else:
            _check_histogram(name, doc["histograms"][name], problems)
    for name in SERIES_NAMES:
        if name not in doc["series"]:
            problems.append(f"missing series {name!r}")
        else:
            _check_series(name, doc["series"][name], problems)
    for dev, block in sorted(doc["devices"].items()):
        if not (isinstance(dev, str) and dev.isdigit()):
            problems.append(f"device key {dev!r} must be a stringified index")
            continue
        if not isinstance(block, dict):
            problems.append(f"device {dev} block must be a dict")
            continue
        for name in DEVICE_COUNTER_NAMES:
            if name not in block:
                problems.append(f"device {dev} missing counter {name!r}")
            elif not isinstance(block[name], (int, float)) or block[name] < 0:
                problems.append(f"device {dev} counter {name!r} invalid")
    if not problems and doc["elapsed_ns"] < 0:
        problems.append("elapsed_ns must be non-negative")
    return problems


def write_summary(doc: dict, path: str | Path) -> None:
    """Serialize with sorted keys: equal summaries → byte-identical files."""
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_summary(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
