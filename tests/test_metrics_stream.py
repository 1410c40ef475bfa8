"""Streaming telemetry tests (repro.metrics): the tentpole contracts.

Three acceptance criteria from the metrics subsystem pin down here:

* **exactness** — every counter and histogram the streaming
  :class:`MetricsSink` reports must be *exactly* derivable from a full
  :class:`~repro.obs.collector.Collector` event dump (same floats, same
  bucket contents), so the bounded sink loses no information the
  summary claims to carry;
* **bounded memory** — the retained-object count must be a function of
  the bucket/stride caps, not of the event count;
* **passivity** — attaching the sink (alone or fanned out through
  :class:`~repro.obs.events.MultiSink`) must leave simulated behavior
  bit-identical, pinned against the golden digests.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps.common import run_app
from repro.core.config import CONFIGS
from repro.harness.runner import Lab
from repro.metrics import (
    LogHistogram,
    MetricsSink,
    StrideSeries,
    format_dashboard,
    series_csv,
    summarize,
    to_jsonl,
    to_prometheus,
    validate_summary,
    write_summary,
)
from repro.metrics.sink import COUNTER_NAMES, HISTOGRAM_NAMES, SERIES_NAMES
from repro.metrics.summary import load_summary
from repro.obs import Collector, MultiSink
from repro.obs.events import (
    Barrier,
    EmptyPop,
    EpochMark,
    GenerationEnd,
    GenerationStart,
    KernelLaunch,
    PolicySwitch,
    QueuePop,
    QueuePush,
    QueueSteal,
    TaskComplete,
    TaskPop,
    TaskRead,
)
from repro.service.jobs import RunSpec, execute_spec

STEAL_CTA = CONFIGS["discrete-CTA"].with_overrides(
    worklist="stealing", num_queues=4, name="discrete-CTA+steal"
)
BFS_WARP = RunSpec("bfs", "roadNet-CA", "persist-warp", size="tiny")


@pytest.fixture(scope="module")
def lab() -> Lab:
    return Lab(size="tiny")


def _traced(lab, app, dataset, config):
    collector, msink = Collector(), MetricsSink()
    res = run_app(app, lab.graph(dataset), config, sink=MultiSink(collector, msink))
    return res, collector, msink


@pytest.fixture(scope="module")
def persist_cell(lab):
    return _traced(lab, "bfs", "roadNet-CA", CONFIGS["persist-warp"])


@pytest.fixture(scope="module")
def steal_cell(lab):
    """Discrete + stealing: exercises generations, barriers and steals."""
    return _traced(lab, "coloring", "indochina-2004", STEAL_CTA)


# ---------------------------------------------------------------------------
# LogHistogram
# ---------------------------------------------------------------------------

class TestLogHistogram:
    def test_basic_stats(self):
        h = LogHistogram()
        for v in (1.0, 2.0, 4.0, 800.0):
            h.record(v)
        assert h.count == 4
        assert h.sum == 807.0
        assert h.min == 1.0 and h.max == 800.0
        assert h.mean == pytest.approx(201.75)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 800.0

    def test_buckets_cover_their_samples(self):
        h = LogHistogram(subbuckets=4)
        for v in (1.0, 1.5, 3.0, 17.0, 1000.0, 123456.0):
            h.record(v)
            lo, hi = h.bucket_bounds(h._index(v))
            assert lo <= v < hi

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = LogHistogram()
        h.record(0.0)
        h.record(-3.0)
        h.record(0.5)  # below min_value -> bucket 0, not zero bucket
        assert h.zero == 2
        assert h.buckets.get(0, 0) == 1
        assert h.count == 3

    def test_quantile_is_bucket_bounded(self):
        h = LogHistogram(subbuckets=4)
        for _ in range(100):
            h.record(100.0)
        p50 = h.quantile(0.5)
        lo, hi = h.bucket_bounds(h._index(100.0))
        assert lo <= 100.0 <= p50 <= hi

    def test_merge_equals_bulk_recording(self):
        a, b, bulk = LogHistogram(), LogHistogram(), LogHistogram()
        for i, v in enumerate((3.0, 9.0, 27.0, 81.0, 243.0)):
            (a if i % 2 == 0 else b).record(v)
            bulk.record(v)
        a.merge(b)
        assert a.count == bulk.count
        assert a.buckets == bulk.buckets
        assert a.min == bulk.min and a.max == bulk.max

    def test_merge_rejects_different_layout(self):
        with pytest.raises(ValueError, match="layout"):
            LogHistogram(subbuckets=4).merge(LogHistogram(subbuckets=8))

    def test_dict_roundtrip(self):
        h = LogHistogram()
        for v in (0.0, 2.0, 5.0, 700.0):
            h.record(v)
        back = LogHistogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert back.buckets == h.buckets
        assert back.count == h.count and back.zero == h.zero
        assert back.quantile(0.9) == h.quantile(0.9)

    def test_len_is_nonempty_bucket_count(self):
        h = LogHistogram()
        for _ in range(10_000):
            h.record(64.0)
        assert len(h) == 1


# ---------------------------------------------------------------------------
# StrideSeries
# ---------------------------------------------------------------------------

class TestStrideSeries:
    def test_rate_accumulates_per_bin(self):
        s = StrideSeries("rate", stride_ns=10.0, max_bins=8)
        s.add(0.0)
        s.add(5.0, 2.0)
        s.add(25.0)
        assert s.values() == [3.0, 0.0, 1.0]

    def test_rate_rescale_preserves_total(self):
        s = StrideSeries("rate", stride_ns=1.0, max_bins=4)
        for t in range(100):
            s.add(float(t))
        assert s.rescales > 0
        assert len(s) == 4  # memory bound holds through rescaling
        assert sum(s.values()) == 100.0

    def test_gauge_keeps_last_value_and_carries_forward(self):
        s = StrideSeries("gauge", stride_ns=10.0, max_bins=8)
        s.observe(1.0, 5.0)
        s.observe(2.0, 7.0)  # same bin: later value wins
        s.observe(35.0, 2.0)  # bins 1-2 unobserved: carry 7.0 forward
        assert s.values() == [7.0, 7.0, 7.0, 2.0]

    def test_gauge_rescale_keeps_later_bin(self):
        s = StrideSeries("gauge", stride_ns=1.0, max_bins=4)
        s.observe(0.0, 1.0)
        s.observe(1.0, 9.0)
        s.observe(7.0, 3.0)  # forces one rescale to stride 2
        assert s.stride_ns == 2.0
        assert s.values()[0] == 9.0  # bins 0+1 folded, later value kept

    def test_gauge_first_observation_past_bin_zero_carries_back(self):
        """Regression: leading unobserved gauge bins used to export 0.0.

        A gauge first observed at depth 7 in bin 3 did not hold depth 0
        for bins 0-2 — the exporter was inventing an opening state.  The
        first observed value is carried back over the unobserved prefix.
        """
        s = StrideSeries("gauge", stride_ns=10.0, max_bins=8)
        s.observe(35.0, 7.0)  # first observation lands in bin 3
        assert s.values() == [7.0, 7.0, 7.0, 7.0]
        s.observe(45.0, 2.0)
        assert s.values() == [7.0, 7.0, 7.0, 7.0, 2.0]
        assert s.to_dict()["peak"] == 7.0

    def test_gauge_prefix_carry_back_survives_rescale_fold(self):
        """The carried-back prefix must hold after a rescale folds the
        unobserved leading bins into each other."""
        s = StrideSeries("gauge", stride_ns=1.0, max_bins=4)
        s.observe(2.0, 5.0)  # bins 0-1 unobserved
        s.observe(7.0, 3.0)  # forces one rescale to stride 2
        assert s.stride_ns == 2.0
        # post-fold bins: [unseen, 5.0, unseen, 3.0] -> first value carried
        # back over bin 0, forward over bin 2
        assert s.values() == [5.0, 5.0, 5.0, 3.0]

    def test_kind_mismatch_raises(self):
        with pytest.raises(TypeError):
            StrideSeries("gauge").add(0.0)
        with pytest.raises(TypeError):
            StrideSeries("rate").observe(0.0, 1.0)
        with pytest.raises(ValueError):
            StrideSeries("nope")


# ---------------------------------------------------------------------------
# Exact cross-check against a full Collector dump (acceptance criterion)
# ---------------------------------------------------------------------------

def _derived_counters(collector: Collector) -> dict:
    """Rebuild every MetricsSink counter from the complete event dump."""
    c = {name: 0 for name in COUNTER_NAMES}
    c["work_units"] = 0.0
    c["launch_ns"] = 0.0
    c["barrier_ns"] = 0.0
    in_flight = 0
    open_workers: set[int] = set()
    open_gen: int | None = None
    for e in collector.events:
        if isinstance(e, TaskPop):
            c["task_pops"] += 1
            c["task_items"] += e.items
            open_workers.add(e.worker)
            in_flight += 1
            c["max_in_flight"] = max(c["max_in_flight"], in_flight)
        elif isinstance(e, TaskRead):
            c["task_reads"] += 1
        elif isinstance(e, TaskComplete):
            c["task_completes"] += 1
            c["items_retired"] += e.retired
            c["items_pushed_by_tasks"] += e.pushed
            c["work_units"] += e.work
            if e.worker in open_workers:
                open_workers.discard(e.worker)
                in_flight -= 1
        elif isinstance(e, QueuePush):
            c["queue_pushes"] += 1
            c["queue_items_pushed"] += e.items
        elif isinstance(e, QueuePop):
            c["queue_pops"] += 1
            c["queue_items_popped"] += e.items
        elif isinstance(e, EmptyPop):
            c["empty_pops"] += 1
        elif isinstance(e, QueueSteal):
            c["steals"] += 1
            c["steal_items"] += e.items
        elif isinstance(e, KernelLaunch):
            c["kernel_launches"] += 1
            c["launch_ns"] += e.duration_ns
        elif isinstance(e, Barrier):
            c["barriers"] += 1
            c["barrier_ns"] += e.duration_ns
        elif isinstance(e, GenerationStart):
            open_gen = e.generation
        elif isinstance(e, GenerationEnd):
            if open_gen == e.generation:
                c["generations"] += 1
            open_gen = None
        elif isinstance(e, PolicySwitch):
            c["policy_switches"] += 1
    c["max_queue_depth"] = int(
        max((d for _, d in collector.queue_depth_series()), default=0)
    )
    return c


def _derived_histograms(collector: Collector) -> dict[str, LogHistogram]:
    """Rebuild every histogram from the event dump, in stream order."""
    out = {name: LogHistogram() for name in HISTOGRAM_NAMES}
    open_pops: dict[int, float] = {}
    open_gen: tuple[int, float] | None = None
    for e in collector.events:
        if isinstance(e, TaskPop):
            open_pops[e.worker] = e.t
        elif isinstance(e, TaskComplete):
            start = open_pops.pop(e.worker, None)
            if start is not None:
                out["task_latency_ns"].record(e.t - start)
        elif isinstance(e, (QueuePush, QueuePop, EmptyPop)):
            out["queue_wait_ns"].record(e.wait_ns)
        elif isinstance(e, GenerationStart):
            open_gen = (e.generation, e.t)
        elif isinstance(e, GenerationEnd):
            if open_gen is not None and open_gen[0] == e.generation:
                out["generation_span_ns"].record(e.t - open_gen[1])
            open_gen = None
    return out


class TestCollectorCrossCheck:
    @pytest.mark.parametrize("cell", ["persist_cell", "steal_cell"])
    def test_every_counter_matches_dump(self, cell, request):
        _, collector, msink = request.getfixturevalue(cell)
        assert msink.events_seen == len(collector.events)
        derived = _derived_counters(collector)
        for name in COUNTER_NAMES:
            assert msink.counters[name] == derived[name], name

    @pytest.mark.parametrize("cell", ["persist_cell", "steal_cell"])
    def test_every_histogram_matches_dump_exactly(self, cell, request):
        _, collector, msink = request.getfixturevalue(cell)
        derived = _derived_histograms(collector)
        for name in HISTOGRAM_NAMES:
            d, s = derived[name], msink.histograms[name]
            assert d.count == s.count, name
            assert d.sum == s.sum, name  # exact: same accumulation order
            assert d.buckets == s.buckets, name
            if d.count:
                assert d.min == s.min and d.max == s.max, name

    def test_steal_cell_exercises_the_discrete_paths(self, steal_cell):
        _, _, msink = steal_cell
        assert msink.counters["generations"] > 0
        assert msink.counters["steals"] > 0
        assert msink.histograms["generation_span_ns"].count > 0


# ---------------------------------------------------------------------------
# Bounded memory (acceptance criterion)
# ---------------------------------------------------------------------------

class TestBoundedMemory:
    def test_retained_independent_of_event_count(self):
        small = MetricsSink(stride_ns=64.0, max_bins=16)
        execute_spec(BFS_WARP, metrics=small)
        big = MetricsSink(stride_ns=64.0, max_bins=16)
        execute_spec(RunSpec("bfs", "roadNet-CA", "persist-warp", size="small"), metrics=big)
        total_bins = sum(len(s) for s in big.series.values())
        assert big.events_seen >= 10 * total_bins, "workload too small to prove the bound"
        # retained state tracks the caps, not the stream length
        assert big.events_seen > 2 * small.events_seen
        assert big.retained() <= 2 * small.retained()
        assert big.retained() < big.events_seen / 10

    def test_series_never_exceed_bin_cap(self):
        sink = MetricsSink(stride_ns=1.0, max_bins=8)  # forces many rescales
        execute_spec(BFS_WARP, metrics=sink)
        for name in SERIES_NAMES:
            s = sink.series[name]
            assert len(s) == 8
            assert len(s.values()) <= 8
        assert sink.series["queue_depth"].rescales > 0


# ---------------------------------------------------------------------------
# Passivity: bit-identical results with the sink attached
# ---------------------------------------------------------------------------

class TestPassivity:
    def test_digest_unchanged_with_metrics_attached(self):
        from tests.test_equivalence import GOLDEN_DIGESTS

        alone = Collector()
        execute_spec(BFS_WARP, sink=alone)
        fanned = Collector()
        execute_spec(BFS_WARP, sink=MultiSink(fanned, MetricsSink()))
        golden = GOLDEN_DIGESTS[("bfs", "roadNet-CA", "persist-warp")]
        assert alone.digest() == golden
        assert fanned.digest() == golden

    def test_results_identical_with_and_without_metrics(self):
        cell = RunSpec("bfs", "roadNet-CA", "discrete-CTA", size="tiny")
        plain = execute_spec(cell)
        with_metrics = execute_spec(cell, metrics=True)
        assert plain.elapsed_ns == with_metrics.elapsed_ns
        assert plain.items_retired == with_metrics.items_retired
        assert np.array_equal(plain.output, with_metrics.output)
        assert "metrics" in with_metrics.extra
        assert "metrics" not in plain.extra


# ---------------------------------------------------------------------------
# Summary + exporters
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def summary(persist_cell):
    res, _, msink = persist_cell
    return summarize(
        msink,
        app="bfs",
        dataset=res.dataset,
        config=res.impl,
        size="tiny",
        elapsed_ns=res.elapsed_ns,
    )


class TestSummary:
    def test_summary_validates_clean(self, summary):
        assert validate_summary(summary) == []

    def test_lab_metrics_flag_stamps_size(self):
        lab = Lab(size="tiny", metrics=True)
        result = lab.run("bfs", "roadNet-CA", "persist-warp")
        doc = result.extra["metrics"]
        assert validate_summary(doc) == []
        assert doc["size"] == "tiny"
        assert doc["app"] == "bfs" and doc["config"] == "persist-warp"

    def test_bsp_policy_streams_metrics(self):
        result = execute_spec(RunSpec("bfs", "roadNet-CA", "BSP", size="tiny"), metrics=True)
        doc = result.extra["metrics"]
        assert validate_summary(doc) == []
        assert doc["elapsed_ns"] == result.elapsed_ns
        assert doc["counters"]["kernel_launches"] == result.kernel_launches
        assert doc["counters"]["items_retired"] == result.items_retired
        assert doc["counters"]["generations"] == result.iterations

    def test_validate_catches_drift(self, summary):
        broken = json.loads(json.dumps(summary))
        del broken["counters"]["task_pops"]
        assert any("task_pops" in p for p in validate_summary(broken))
        broken = json.loads(json.dumps(summary))
        broken["histograms"]["task_latency_ns"]["count"] += 1
        assert any("task_latency_ns" in p for p in validate_summary(broken))

    def test_write_load_roundtrip_is_byte_deterministic(self, summary, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_summary(summary, a)
        write_summary(load_summary(a), b)
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# Edit replays: one summary over every epoch
# ---------------------------------------------------------------------------

BFS_REPLAY = RunSpec("bfs-inc", "rmat8", edits="2x8@1", size="tiny")


class TestReplaySummary:
    def test_summary_covers_every_epoch(self):
        from repro.apps.common import replay_app, replay_totals

        collector = Collector()
        res = execute_spec(BFS_REPLAY, sink=collector, metrics=True)
        doc = res.extra["metrics"]
        assert validate_summary(doc) == []
        assert doc["size"] == "tiny" and doc["app"] == "bfs-inc"
        assert doc["events_seen"] == len(collector.events)
        run = replay_app(
            BFS_REPLAY.app, BFS_REPLAY.graph(), BFS_REPLAY.atos_config(), BFS_REPLAY.edits
        )
        assert len(run.epochs) == 3
        assert doc["counters"]["task_pops"] == replay_totals(run.epochs)["total_tasks"]
        assert doc["elapsed_ns"] == res.extra["replay_total_elapsed_ns"]

    def test_lab_replay_cells_carry_a_summary(self):
        [res] = Lab(size="tiny", metrics=True).run_cells([BFS_REPLAY])
        doc = res.extra["metrics"]
        assert validate_summary(doc) == []
        assert doc["elapsed_ns"] == res.extra["replay_total_elapsed_ns"]

    def test_epochs_are_laid_end_to_end(self):
        """Every epoch's engine restarts at t=0 with empty queues; the sink
        continues one time line from the mark (the finished epoch's end)."""
        sink = MetricsSink()
        sink.emit(QueuePush(t=100.0, queue="a", items=2, depth=2, wait_ns=0.0))
        sink.emit(TaskPop(t=500.0, worker=0, items=1))
        sink.emit(TaskComplete(t=3000.0, worker=0, items=1, retired=1, pushed=0, work=1.0))
        sink.emit(EpochMark(t=3000.0, epoch=1, inserts=1, deletes=0))
        sink.emit(QueuePush(t=100.0, queue="b", items=1, depth=1, wait_ns=0.0))
        sink.emit(TaskPop(t=200.0, worker=0, items=1))
        sink.emit(TaskComplete(t=1000.0, worker=0, items=1, retired=1, pushed=0, work=1.0))
        assert sink.end_t == 4000.0
        assert sink.histograms["task_latency_ns"].sum == 2500.0 + 800.0
        assert sink.series["retired"].to_dict()["values"] == [0.0, 0.0, 1.0, 1.0]
        assert sink.series["queue_depth"].to_dict()["values"][-1] == 1.0


class TestExporters:
    def test_prometheus_exposition(self, summary):
        text = to_prometheus(summary)
        assert 'repro_task_pops_total{app="bfs"' in text
        assert 'le="+Inf"' in text
        # the +Inf cumulative bucket must equal the histogram count
        for line in text.splitlines():
            if line.startswith("repro_task_latency_ns_bucket") and 'le="+Inf"' in line:
                assert float(line.rsplit(" ", 1)[1]) == float(
                    summary["histograms"]["task_latency_ns"]["count"]
                )
                break
        else:
            pytest.fail("no +Inf bucket emitted")

    def test_jsonl_lines_parse(self, summary):
        lines = to_jsonl(summary).splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {r["kind"] for r in records}
        assert {"run", "counters", "histogram", "series"} <= kinds

    def test_series_csv_row_count(self, summary):
        rows = series_csv(summary).splitlines()
        assert rows[0] == "series,bin,t_ns,value"
        expected = sum(len(summary["series"][n]["values"]) for n in SERIES_NAMES)
        assert len(rows) == 1 + expected

    def test_dashboard_renders(self, summary):
        text = format_dashboard(summary)
        assert "bfs" in text
        assert "task latency" in text
        assert any(ch in text for ch in "▁▂▃▄▅▆▇█")


def _sparse_multi_octave_summary() -> dict:
    """A fabricated summary whose histograms span several octaves with
    holes between occupied buckets — the case where per-bucket cumulative
    sums and ``le`` bound computation are easiest to get wrong."""
    h = LogHistogram(subbuckets=4)
    for v in (0.0, 0.0, 0.5, 1.5, 1.5, 17.0, 300.0, 1.0e9 + 0.5, 6.0e12):
        h.record(v)
    hdoc = h.to_dict()
    assert len(hdoc["buckets"]) >= 5  # sparse: several distinct buckets
    occupied_octaves = {int(k) // 4 for k in hdoc["buckets"]}
    assert len(occupied_octaves) >= 4  # ... spread over many octaves
    empty_series = {
        "kind": "rate", "stride_ns": 1024.0, "max_bins": 256,
        "rescales": 0, "values": [], "peak": 0.0,
    }
    return {
        "app": "fab", "dataset": "synthetic", "config": "none", "size": "tiny",
        "elapsed_ns": 1.0, "events_seen": 9,
        "counters": {name: 0 for name in COUNTER_NAMES},
        "histograms": {name: hdoc for name in HISTOGRAM_NAMES},
        "series": {name: dict(empty_series) for name in SERIES_NAMES},
    }


def _lint_inputs(exposition_docs) -> list[tuple[str, dict, str]]:
    """``(name, document, Prometheus prefix)``: the fabricated sparse summary
    plus the shared service, ``dist-2`` and quoted-dataset documents."""
    return [("sparse", _sparse_multi_octave_summary(), "repro")] + [
        (which, doc, "repro_service" if "tenants" in doc else "repro")
        for which, doc in exposition_docs.items()
    ]


class TestPrometheusHistogramLint:
    """Exposition-format contract for the cumulative-``le`` histograms."""

    def _bucket_lines(self, text: str, base: str) -> list[tuple[str, float]]:
        out = []
        for line in text.splitlines():
            if line.startswith(f"{base}_bucket"):
                after = line.split('le="', 1)[1]
                le_label = after[: after.index('"')]
                out.append((le_label, float(line.rsplit(" ", 1)[1])))
        return out

    def test_cumulative_buckets_monotone_and_end_at_count(self, exposition_docs):
        for which, doc, prefix in _lint_inputs(exposition_docs):
            text = to_prometheus(doc)
            for hname, hdoc in doc["histograms"].items():
                buckets = self._bucket_lines(text, f"{prefix}_{hname}")
                assert buckets, f"{which}/{hname}: no buckets"
                counts = [c for _, c in buckets]
                assert counts == sorted(counts), f"{which}/{hname}: cumulative decreased"
                assert buckets[-1][0] == "+Inf"
                assert counts[-1] == hdoc["count"]
                # zero-bucket observations are part of every cumulative value
                assert counts[0] >= hdoc["zero"]
        sparse = _sparse_multi_octave_summary()
        for hname in HISTOGRAM_NAMES:  # the sparse layout has real holes
            assert len(self._bucket_lines(to_prometheus(sparse), f"repro_{hname}")) >= 2

    def test_le_bounds_strictly_increasing(self, exposition_docs):
        for which, doc, prefix in _lint_inputs(exposition_docs):
            text = to_prometheus(doc)
            for hname in doc["histograms"]:
                bounds = [
                    float(le) for le, _ in self._bucket_lines(text, f"{prefix}_{hname}")
                    if le != "+Inf"
                ]
                assert all(a < b for a, b in zip(bounds, bounds[1:])), (
                    f"{which}/{hname}: le bounds not strictly increasing: {bounds}"
                )

    def test_le_labels_round_trip_large_floats(self, exposition_docs):
        """The ``le`` label is the repr of the bound, so parsing it back
        must reproduce the exact float — including multi-terascale bounds
        (the sparse summary) where fixed-precision formatting would lose bits."""
        for which, doc, prefix in _lint_inputs(exposition_docs):
            text = to_prometheus(doc)
            for hname, h in doc["histograms"].items():
                subbuckets, min_value = h["subbuckets"], h["min_value"]
                exact = set()
                for idx in (int(k) for k in h["buckets"]):
                    octave, sub = divmod(idx, subbuckets)
                    exact.add(min_value * 2.0**octave * (1.0 + (sub + 1) / subbuckets))
                if which == "sparse":
                    assert max(exact) > 1e12  # the large-float case is exercised
                labels = [
                    le for le, _ in self._bucket_lines(text, f"{prefix}_{hname}")
                    if le != "+Inf"
                ]
                assert len(labels) == len(exact), f"{which}/{hname}"
                for le_label in labels:
                    parsed = float(le_label)
                    assert parsed in exact, f"{which}/{hname}: le={le_label!r} lost precision"
                    assert repr(parsed) == le_label


class TestSparkHardening:
    """_spark must render something sane for every degenerate series."""

    def test_empty_series_placeholder(self):
        from repro.metrics.export import _spark

        assert _spark([]) == "(no data)"

    def test_all_zero_series_is_flat_baseline(self):
        from repro.metrics.export import _spark

        out = _spark([0.0] * 10)
        assert out == "▁" * 10

    def test_constant_positive_series_renders_without_error(self):
        from repro.metrics.export import _spark

        out = _spark([5.0] * 10)
        assert len(out) == 10
        assert len(set(out)) == 1  # constant in, constant out

    def test_negative_values_clamp_to_baseline(self):
        """A negative sample must not index-wrap into the tallest block."""
        from repro.metrics.export import _spark

        out = _spark([-3.0, 0.0, 10.0])
        assert out[0] == "▁", f"negative sample rendered {out[0]!r}"
        assert out[2] == "█"

    def test_all_negative_series_is_flat_baseline(self):
        from repro.metrics.export import _spark

        assert _spark([-5.0, -1.0, -3.0]) == "▁▁▁"

    def test_non_finite_values_count_as_zero(self):
        import math

        from repro.metrics.export import _spark

        out = _spark([math.inf, math.nan, 4.0, -math.inf])
        assert len(out) == 4
        assert out[2] == "█"
        assert out[0] == out[1] == out[3] == "▁"

    def test_rebinning_long_series_keeps_peaks(self):
        from repro.metrics.export import _spark

        values = [0.0] * 200
        values[137] = 9.0
        out = _spark(values, width=60)
        assert len(out) == 60
        assert "█" in out, "the peak must survive re-binning"

    def test_dashboard_renders_with_degenerate_series(self):
        """format_dashboard survives a summary whose series are empty."""
        import json as _json

        from repro.metrics.export import format_dashboard

        lab = Lab(size="tiny", metrics=True)
        summary = lab.run("bfs", "roadNet-CA", "persist-CTA").extra["metrics"]
        doc = _json.loads(_json.dumps(summary))  # deep copy
        for s in doc["series"].values():
            s["values"] = []
        text = format_dashboard(doc)
        assert "(no data)" in text
