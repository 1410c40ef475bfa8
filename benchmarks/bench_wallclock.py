"""Wall-clock benchmark — the ``BENCH_perf.json`` scenario as a bench.

Runs the repro.perf benchmark grid (8 apps x engine presets x 2 datasets)
at ``REPRO_BENCH_SIZE``, validates the report against the schema, prints
the summary and archives both the text and the JSON under
``benchmarks/out/``.  The committed repo-root ``BENCH_perf.json`` is the
small-size baseline this scenario regenerates; see docs/performance.md
for how to refresh it.

``run_bench(metrics=True)`` also re-runs the ``METRICS_CELLS`` subset
untimed with a streaming MetricsSink, so the archived report embeds the
simulated-time ``MetricsSummary`` documents ``python -m repro diff``
compares alongside the wall numbers.
"""

from __future__ import annotations

import json

from repro.metrics.summary import validate_summary
from repro.perf.bench import METRICS_CELLS, format_report, run_bench, validate_report


def test_wallclock(benchmark, bench_size, artifact_dir, save_artifact):
    doc = benchmark.pedantic(
        lambda: run_bench(size=bench_size, repeats=2, metrics=True),
        rounds=1,
        iterations=1,
    )
    problems = validate_report(doc)
    assert not problems, problems
    assert doc["cells"] == 44
    assert doc["cells_per_s"] > 0
    assert doc["sim_ns_per_wall_ms"] > 0
    assert doc["t_end"] >= doc["t_start"]
    assert len(doc["metrics"]) == len(METRICS_CELLS)
    for key, summary in doc["metrics"].items():
        assert not validate_summary(summary), (key, validate_summary(summary))
    save_artifact("bench_wallclock", format_report(doc))
    (artifact_dir / "BENCH_perf.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

