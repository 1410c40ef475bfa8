"""Run-to-run regression diffing over ``MetricsSummary`` documents.

:func:`diff_summaries` flattens two summaries into scalar metrics and
compares them with per-metric relative-delta thresholds.  Metrics carry a
*polarity*: for ``lower``-is-better metrics (elapsed time, launch/barrier
overhead, queue wait, task latency, empty pops) only an increase past the
threshold is a regression; everything else is an *anchor* metric —
simulated runs are deterministic, so drift in either direction beyond the
threshold means the engine's behavior changed and the diff flags it.

:func:`diff_docs` dispatches on the document schema, so one CLI
(``python -m repro diff``) covers every committed artifact family:

* two ``MetricsSummary`` docs (or a summary against the matching cell of
  a committed ``BENCH_metrics_baseline.json``);
* two cell-keyed baseline docs — per-cell summary diffs plus missing /
  extra cell detection (the schema-drift gate CI runs);
* two ``BENCH_perf.json`` wall-clock reports — throughput compared after
  calibration normalization, so a slower machine does not read as an
  engine regression;
* two ``BENCH_service.json`` service load reports — latency/throughput
  calibration-normalized the same way, with zero tolerance on the
  digest-match ratio (service answers must stay bit-identical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.metrics.sink import HISTOGRAM_NAMES, SERIES_NAMES
from repro.metrics.summary import SUMMARY_SCHEMA, validate_summary

__all__ = [
    "DiffEntry",
    "DiffReport",
    "DEFAULT_THRESHOLD",
    "DEFAULT_THRESHOLDS",
    "flatten_summary",
    "diff_summaries",
    "diff_docs",
]

DEFAULT_THRESHOLD = 0.05

#: per-metric overrides; a trailing ``*`` matches by prefix.  Histogram
#: quantiles are bucket-quantized (quarter-octave buckets are up to ~25%
#: wide) and rate-series peaks move with stride rescaling, so both get
#: looser gates than exact counters.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "histograms.*": 0.30,
    "series.*": 0.25,
    "events_seen": 0.02,
    "counters.task_pops": 0.02,
    "counters.items_retired": 0.02,
    "counters.queue_items_pushed": 0.02,
    "counters.queue_items_popped": 0.02,
    # wall-clock bench metrics (BENCH_perf.json) are noisy even normalized
    "bench.*": 0.25,
    # service load-bench metrics (BENCH_service.json): sub-millisecond hit
    # latencies are the noisiest wall numbers we gate, so the generic gate
    # is loose; the exact/structural numbers below get tight ones
    "service.*": 0.50,
    # responses must stay digest-identical to serial runs — zero tolerance
    "service.digest_match_ratio": 0.0,
    # hit ratio is determined by the seeded workload mix, not wall speed
    "service.hit_ratio": 0.10,
    # the speedup *ratio* is machine-independent; validate_service_report
    # separately enforces the hard >= 100x acceptance floor
    "service.warm_speedup": 0.90,
}

#: metrics where only an increase is a regression (lower is better)
_LOWER_IS_BETTER = (
    "elapsed_ns",
    "counters.launch_ns",
    "counters.barrier_ns",
    "counters.empty_pops",
    "counters.steals",
    "counters.steal_items",
    "histograms.task_latency_ns.",
    "histograms.queue_wait_ns.",
    "service.warm_ms",
    "service.cold_ms",
)

#: metrics where only a decrease is a regression (higher is better)
_HIGHER_IS_BETTER = (
    "bench.cells_per_s",
    "bench.sim_ns_per_wall_ms",
    "service.throughput_rps",
    "service.warm_speedup",
)


def _polarity(metric: str) -> str:
    for prefix in _HIGHER_IS_BETTER:
        if metric.startswith(prefix):
            return "higher"
    for prefix in _LOWER_IS_BETTER:
        if metric.startswith(prefix):
            return "lower"
    return "anchor"


def threshold_for(metric: str, thresholds: dict[str, float], default: float) -> float:
    """Exact name, then longest ``*``-prefix match, then the default."""
    if metric in thresholds:
        return thresholds[metric]
    best: tuple[int, float] | None = None
    for pattern, value in thresholds.items():
        if pattern.endswith("*") and metric.startswith(pattern[:-1]):
            if best is None or len(pattern) > best[0]:
                best = (len(pattern), value)
    return best[1] if best is not None else default


@dataclass(frozen=True)
class DiffEntry:
    """One compared metric."""

    metric: str
    base: float
    new: float
    rel: float  # signed relative delta (new - base) / base
    threshold: float
    polarity: str  # "lower" | "higher" | "anchor"
    regressed: bool
    improved: bool

    def __str__(self) -> str:
        rel = "inf" if math.isinf(self.rel) else f"{self.rel:+.1%}"
        tag = "REGRESSED" if self.regressed else ("improved" if self.improved else "ok")
        return (
            f"{self.metric}: {self.base:g} -> {self.new:g} "
            f"({rel}, thr {self.threshold:.0%}) {tag}"
        )


@dataclass
class DiffReport:
    """Outcome of comparing two documents."""

    base_label: str
    new_label: str
    entries: list[DiffEntry] = field(default_factory=list)
    #: structural problems (schema mismatch, missing cells) — always fatal
    problems: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.problems

    def format(self, *, verbose: bool = False) -> str:
        lines = [f"diff {self.base_label} -> {self.new_label}: {len(self.entries)} metrics"]
        lines.extend(f"  problem: {p}" for p in self.problems)
        shown = self.entries if verbose else [
            e for e in self.entries if e.regressed or e.improved
        ]
        lines.extend(f"  {e}" for e in shown)
        if self.ok:
            lines.append("  OK — no regressions")
        else:
            lines.append(
                f"  FAIL — {len(self.regressions)} regression(s), "
                f"{len(self.problems)} problem(s)"
            )
        return "\n".join(lines)


def flatten_summary(doc: dict) -> dict[str, float]:
    """Scalar metrics of one summary, keyed by dotted path."""
    out: dict[str, float] = {
        "elapsed_ns": float(doc["elapsed_ns"]),
        "events_seen": float(doc["events_seen"]),
    }
    for name, value in doc["counters"].items():
        out[f"counters.{name}"] = float(value)
    for name in HISTOGRAM_NAMES:
        h = doc["histograms"][name]
        for stat in ("count", "mean", "p50", "p90", "p99", "max"):
            out[f"histograms.{name}.{stat}"] = float(h[stat])
    for name in SERIES_NAMES:
        out[f"series.{name}.peak"] = float(doc["series"][name]["peak"])
    for dev, block in sorted((doc.get("devices") or {}).items()):
        for name, value in block.items():
            out[f"devices.{dev}.{name}"] = float(value)
    return out


def _compare(
    metrics: list[tuple[str, float, float]],
    report: DiffReport,
    thresholds: dict[str, float],
    default: float,
) -> None:
    for metric, base, new in metrics:
        if base == 0.0:
            rel = 0.0 if new == 0.0 else math.inf
        else:
            rel = (new - base) / abs(base)
        thr = threshold_for(metric, thresholds, default)
        polarity = _polarity(metric)
        exceeded = abs(rel) > thr
        if polarity == "lower":
            regressed = exceeded and rel > 0
            improved = exceeded and rel < 0
        elif polarity == "higher":
            regressed = exceeded and rel < 0
            improved = exceeded and rel > 0
        else:  # anchor: any drift past the threshold is a regression
            regressed = exceeded
            improved = False
        report.entries.append(
            DiffEntry(
                metric=metric, base=base, new=new, rel=rel, threshold=thr,
                polarity=polarity, regressed=regressed, improved=improved,
            )
        )


def diff_summaries(
    base: dict,
    new: dict,
    *,
    thresholds: dict[str, float] | None = None,
    default_threshold: float = DEFAULT_THRESHOLD,
    base_label: str = "base",
    new_label: str = "new",
    prefix: str = "",
) -> DiffReport:
    """Compare two ``MetricsSummary`` docs metric by metric."""
    merged = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        merged.update(thresholds)
    report = DiffReport(base_label=base_label, new_label=new_label)
    for label, doc in (("base", base), ("new", new)):
        for problem in validate_summary(doc):
            report.problems.append(f"{label} summary invalid: {problem}")
    if report.problems:
        return report
    # a devices=1 vs devices=N comparison is a legitimate A/B (scaling
    # study), so tag the labels — same pattern as the device tag in
    # ``_diff_bench`` — and skip the per-device metrics the other side
    # cannot have; with equal device counts a one-sided metric is drift
    ndev_a = len(base.get("devices") or {}) or 1
    ndev_b = len(new.get("devices") or {}) or 1
    if ndev_a != ndev_b:
        report.base_label = f"{base_label} [{ndev_a}dev]"
        report.new_label = f"{new_label} [{ndev_b}dev]"
    a, b = flatten_summary(base), flatten_summary(new)
    if ndev_a == ndev_b:
        for k in sorted(set(a) - set(b)):
            report.problems.append(f"metric {prefix + k} missing from new")
        for k in sorted(set(b) - set(a)):
            report.problems.append(f"metric {prefix + k} not in base")
    _compare(
        [(prefix + k, a[k], b[k]) for k in a if k in b],
        report, merged, default_threshold,
    )
    return report


# ---------------------------------------------------------------------------
# Document-level dispatch (summary / baseline / bench)
# ---------------------------------------------------------------------------

def _cell_key(doc: dict) -> str:
    return f"{doc.get('app')}:{doc.get('dataset')}:{doc.get('config')}"


def diff_docs(
    base: dict,
    new: dict,
    *,
    thresholds: dict[str, float] | None = None,
    default_threshold: float = DEFAULT_THRESHOLD,
    base_label: str = "base",
    new_label: str = "new",
) -> DiffReport:
    """Schema-dispatching diff; see module docstring for the pairings."""
    from repro.metrics.baseline import BASELINE_SCHEMA
    from repro.perf.bench import BENCH_SCHEMA

    schema_a, schema_b = base.get("schema"), new.get("schema")
    if BASELINE_SCHEMA in (schema_a, schema_b) and schema_a != schema_b:
        # one side is cell-keyed: pull the matching cell for the summary side
        baseline, summary = (base, new) if schema_a == BASELINE_SCHEMA else (new, base)
        key = _cell_key(summary)
        cell = baseline.get("cells", {}).get(key)
        if cell is None:
            report = DiffReport(base_label=base_label, new_label=new_label)
            report.problems.append(
                f"baseline has no cell {key!r}; known: {sorted(baseline.get('cells', {}))}"
            )
            return report
        pair = (cell, summary) if schema_a == BASELINE_SCHEMA else (summary, cell)
        return diff_summaries(
            *pair, thresholds=thresholds, default_threshold=default_threshold,
            base_label=base_label, new_label=new_label,
        )
    if schema_a != schema_b:
        report = DiffReport(base_label=base_label, new_label=new_label)
        report.problems.append(f"cannot diff schema {schema_a!r} against {schema_b!r}")
        return report
    if schema_a == SUMMARY_SCHEMA:
        return diff_summaries(
            base, new, thresholds=thresholds, default_threshold=default_threshold,
            base_label=base_label, new_label=new_label,
        )
    if schema_a == BASELINE_SCHEMA:
        return _diff_baselines(
            base, new, thresholds=thresholds, default_threshold=default_threshold,
            base_label=base_label, new_label=new_label,
        )
    if schema_a == BENCH_SCHEMA:
        return _diff_bench(
            base, new, thresholds=thresholds, default_threshold=default_threshold,
            base_label=base_label, new_label=new_label,
        )
    from repro.service.bench import SERVICE_BENCH_SCHEMA

    if schema_a == SERVICE_BENCH_SCHEMA:
        return _diff_service(
            base, new, thresholds=thresholds, default_threshold=default_threshold,
            base_label=base_label, new_label=new_label,
        )
    report = DiffReport(base_label=base_label, new_label=new_label)
    report.problems.append(f"unknown document schema {schema_a!r}")
    return report


def _diff_baselines(base, new, *, thresholds, default_threshold, base_label, new_label):
    report = DiffReport(base_label=base_label, new_label=new_label)
    cells_a = base.get("cells", {})
    cells_b = new.get("cells", {})
    for key in sorted(set(cells_a) - set(cells_b)):
        report.problems.append(f"cell {key!r} missing from {new_label}")
    for key in sorted(set(cells_b) - set(cells_a)):
        report.problems.append(f"cell {key!r} not in {base_label}")
    for key in sorted(set(cells_a) & set(cells_b)):
        sub = diff_summaries(
            cells_a[key], cells_b[key], thresholds=thresholds,
            default_threshold=default_threshold, base_label=base_label,
            new_label=new_label, prefix=f"{key}/",
        )
        report.entries.extend(sub.entries)
        report.problems.extend(f"{key}: {p}" for p in sub.problems)
    return report


def _diff_bench(base, new, *, thresholds, default_threshold, base_label, new_label):
    """Wall-clock report diff, calibration-normalized (BENCH_perf.json)."""
    report = DiffReport(base_label=base_label, new_label=new_label)
    if base.get("size") != new.get("size"):
        report.problems.append(
            f"bench sizes differ: {base.get('size')!r} vs {new.get('size')!r}"
        )
        return report
    # differing device counts / partition methods are legitimate A/B
    # comparisons (deliberate scaling studies), so tag the labels instead
    # of refusing
    tags_a: list[str] = []
    tags_b: list[str] = []
    for key, default, fmt in (
        ("devices", 1, "{}dev"),
        ("partition", "hash", "{}"),
    ):
        va, vb = base.get(key, default), new.get(key, default)
        if va != vb:
            tags_a.append(fmt.format(va))
            tags_b.append(fmt.format(vb))
    if tags_a:
        report.base_label = f"{base_label} [{' '.join(tags_a)}]"
        report.new_label = f"{new_label} [{' '.join(tags_b)}]"
    merged = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        merged.update(thresholds)
    # a slower machine inflates the calibration spin and deflates
    # throughput alike, so scale the new run onto the base machine
    scale = new["calibration_loop_ns"] / base["calibration_loop_ns"]
    _compare(
        [
            ("bench.cells_per_s", base["cells_per_s"], new["cells_per_s"] * scale),
            (
                "bench.sim_ns_per_wall_ms",
                base["sim_ns_per_wall_ms"],
                new["sim_ns_per_wall_ms"] * scale,
            ),
        ],
        report, merged, default_threshold,
    )
    # simulated-time telemetry embedded by run_bench(metrics=True): exact,
    # so diffed cell-by-cell like a baseline (no calibration scaling)
    cells_a = base.get("metrics") or {}
    cells_b = new.get("metrics") or {}
    for key in sorted(set(cells_a) & set(cells_b)):
        sub = diff_summaries(
            cells_a[key], cells_b[key], thresholds=thresholds,
            default_threshold=default_threshold, base_label=base_label,
            new_label=new_label, prefix=f"{key}/",
        )
        report.entries.extend(sub.entries)
        report.problems.extend(f"{key}: {p}" for p in sub.problems)
    return report


def _diff_service(base, new, *, thresholds, default_threshold, base_label, new_label):
    """Service load-bench diff, calibration-normalized (BENCH_service.json).

    Latencies and throughput are rescaled onto the base machine exactly
    like ``_diff_bench``; the exact numbers — digest match ratio, hit
    ratio, the dimensionless warm speedup — are compared raw.  Validation
    problems from either side are structural (a committed report that
    fails its own acceptance floor should never pass a diff).
    """
    from repro.service.bench import validate_service_report

    report = DiffReport(base_label=base_label, new_label=new_label)
    for label, doc in (("base", base), ("new", new)):
        for problem in validate_service_report(doc):
            report.problems.append(f"{label} service report invalid: {problem}")
    if report.problems:
        return report
    for key in ("size", "clients", "tenants", "workers", "distinct_jobs"):
        if base.get(key) != new.get(key):
            report.problems.append(
                f"service bench {key} differs: {base.get(key)!r} vs {new.get(key)!r}"
            )
    if report.problems:
        return report
    merged = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        merged.update(thresholds)
    # slower machine => larger calibration spin and slower service alike:
    # scale the new run's wall numbers onto the base machine before gating
    scale = new["calibration_loop_ns"] / base["calibration_loop_ns"]
    _compare(
        [
            ("service.throughput_rps", base["throughput_rps"], new["throughput_rps"] * scale),
            ("service.warm_ms_p50", base["warm_ms_p50"], new["warm_ms_p50"] / scale),
            ("service.warm_ms_p99", base["warm_ms_p99"], new["warm_ms_p99"] / scale),
            ("service.cold_ms_mean", base["cold_ms_mean"], new["cold_ms_mean"] / scale),
            ("service.warm_speedup", base["warm_speedup"], new["warm_speedup"]),
            (
                "service.digest_match_ratio",
                base["digest_match_ratio"],
                new["digest_match_ratio"],
            ),
            ("service.hit_ratio", base["hit_ratio"], new["hit_ratio"]),
        ],
        report, merged, default_threshold,
    )
    return report
