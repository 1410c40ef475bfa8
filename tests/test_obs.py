"""End-to-end tests for the observability layer (repro.obs).

The contract under test: with a :class:`Collector` attached, the event
stream must *reconcile* with the RunResult the scheduler reports (same
task counts, same retirements, same empty pops, queues drained), must be
bit-deterministic for a fixed seed, and must export as valid Chrome
trace-event JSON — byte-identical across re-runs.
"""

import json

import pytest

from repro import __main__ as cli
from repro.apps import run_app
from repro.core.config import DISCRETE_WARP, PERSIST_WARP
from repro.core.policy import run_policy
from repro.graph.generators import grid_mesh, rmat
from repro.obs import (
    Collector,
    EmptyPop,
    EventSink,
    MultiSink,
    QueuePop,
    QueuePush,
    TaskComplete,
    TaskPop,
    flat_metrics,
    format_profile,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.5)


def _traced_bfs(config, seed=3):
    g = rmat(7, edge_factor=4, seed=seed)
    sink = Collector()
    res = run_app("bfs", g, config, spec=SPEC, sink=sink)
    return res, sink


class TestCollectorReconciliation:
    @pytest.mark.parametrize("config", [PERSIST_WARP, DISCRETE_WARP], ids=lambda c: c.name)
    def test_counts_match_run_result(self, config):
        res, sink = _traced_bfs(config)
        assert len(sink.events_of(TaskPop)) == res.extra["total_tasks"]
        assert sum(e.retired for e in sink.events_of(TaskComplete)) == res.items_retired
        assert len(sink.events_of(EmptyPop)) == res.extra["empty_pops"]

    @pytest.mark.parametrize("config", [PERSIST_WARP, DISCRETE_WARP], ids=lambda c: c.name)
    def test_queue_depth_series_drains_to_zero(self, config):
        _, sink = _traced_bfs(config)
        series = sink.queue_depth_series()
        assert series, "expected queue activity"
        assert series[-1][1] == 0
        assert all(depth >= 0 for _, depth in series)

    def test_task_spans_pair_pops_with_completions(self):
        _, sink = _traced_bfs(PERSIST_WARP)
        spans = sink.task_spans()
        assert len(spans) == len(sink.events_of(TaskPop))
        assert all(s.end >= s.start for s in spans)

    def test_events_are_time_ordered_per_worker(self):
        _, sink = _traced_bfs(PERSIST_WARP)
        last: dict[int, float] = {}
        for e in sink.events_of(TaskPop, TaskComplete):
            assert e.t >= last.get(e.worker, 0.0)
            last[e.worker] = e.t


class TestDeterminism:
    @pytest.mark.parametrize("config", [PERSIST_WARP, DISCRETE_WARP], ids=lambda c: c.name)
    def test_same_seed_same_digest(self, config):
        _, s1 = _traced_bfs(config)
        _, s2 = _traced_bfs(config)
        assert s1.digest() == s2.digest()
        assert len(s1.events) == len(s2.events)

    def test_different_seed_different_digest(self):
        _, s1 = _traced_bfs(PERSIST_WARP, seed=3)
        _, s2 = _traced_bfs(PERSIST_WARP, seed=4)
        assert s1.digest() != s2.digest()


class TestZeroOverheadDisabled:
    def test_no_sink_is_default_and_result_identical(self):
        g = grid_mesh(8, 8)
        plain = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        traced = run_app("bfs", g, PERSIST_WARP, spec=SPEC, sink=Collector())
        assert plain.elapsed_ns == traced.elapsed_ns
        assert plain.items_retired == traced.items_retired

    def test_protocol_accepts_any_emit(self):
        class Null:
            def __init__(self):
                self.n = 0

            def emit(self, event):
                self.n += 1

        sink = Null()
        assert isinstance(sink, EventSink)
        run_app("bfs", grid_mesh(4, 4), PERSIST_WARP, spec=SPEC, sink=sink)
        assert sink.n > 0


class TestExport:
    def test_chrome_trace_shape(self):
        _, sink = _traced_bfs(PERSIST_WARP)
        doc = to_chrome_trace(sink)
        events = doc["traceEvents"]
        assert doc["otherData"]["digest"] == sink.digest()
        phases = {e["ph"] for e in events}
        assert {"X", "M", "C", "i"} <= phases
        for e in events:
            assert "pid" in e and "name" in e
            if e["ph"] != "M":
                assert e["ts"] >= 0.0

    def test_write_is_byte_deterministic(self, tmp_path):
        _, sink = _traced_bfs(PERSIST_WARP)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(sink, str(a))
        write_chrome_trace(sink, str(b))
        assert a.read_bytes() == b.read_bytes()
        json.loads(a.read_text())  # must be valid JSON

    def test_flat_metrics_reconcile(self):
        res, sink = _traced_bfs(DISCRETE_WARP)
        m = flat_metrics(sink, elapsed_ns=res.elapsed_ns)
        assert m["tasks"] == res.extra["total_tasks"]
        assert m["items_retired"] == res.items_retired
        assert m["empty_pops"] == res.extra["empty_pops"]
        assert m["final_queue_depth"] == 0
        assert m["queue_pushes"] == len(sink.events_of(QueuePush))
        assert m["queue_pops"] == len(sink.events_of(QueuePop))

    def test_profile_report_renders(self):
        res, sink = _traced_bfs(PERSIST_WARP)
        text = format_profile(
            sink,
            elapsed_ns=res.elapsed_ns,
            worker_slots=res.extra["worker_slots"],
            config_name=PERSIST_WARP.name,
        )
        assert "compute (task spans)" in text
        assert "Worker occupancy" in text
        assert PERSIST_WARP.name in text


class TestDirectSchedulerTracing:
    def test_discrete_generation_events(self):
        from repro.obs import GenerationEnd, GenerationStart
        from tests.test_scheduler import DISCRETE, CountdownKernel

        sink = Collector()
        res = run_policy(CountdownKernel(5), DISCRETE, spec=SPEC, sink=sink)
        starts = sink.events_of(GenerationStart)
        ends = sink.events_of(GenerationEnd)
        assert len(starts) == res.generations
        assert len(ends) == res.generations
        # generations are 1-based (generation 1 consumes the seed frontier)
        assert [e.generation for e in starts] == list(range(1, res.generations + 1))

    def test_persistent_single_launch_event(self):
        from repro.obs import KernelLaunch
        from tests.test_scheduler import PERSIST, CountdownKernel

        sink = Collector()
        run_policy(CountdownKernel(5), PERSIST, spec=SPEC, sink=sink)
        assert len(sink.events_of(KernelLaunch)) == 1


class TestTraceCli:
    def test_trace_cli_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        args = ["trace", "bfs", "roadnet_ca_sim", "--config", "persist-warp", "--size", "tiny"]
        assert cli.main([*args, "--out", str(out1)]) == 0
        assert cli.main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["traceEvents"]
        text = capsys.readouterr().out
        assert "digest:" in text
        assert "Profile" in text

    def test_trace_cli_unknown_dataset_raises(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trace", "bfs", "nosuch", "--out", str(tmp_path / "t.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown dataset 'nosuch'" in err and err.count("\n") == 1


class TestMultiSink:
    def test_fanout_delivers_to_every_sink_in_order(self):
        seen: list[tuple[str, float]] = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def emit(self, event):
                seen.append((self.tag, event.t))

        fan = MultiSink(Tagged("a"), Tagged("b"))
        fan.emit(TaskPop(t=1.0, worker=0, items=1))
        fan.emit(TaskPop(t=2.0, worker=0, items=1))
        assert seen == [("a", 1.0), ("b", 1.0), ("a", 2.0), ("b", 2.0)]

    def test_none_sinks_are_skipped_and_nesting_flattens(self):
        a, b, c = Collector(), Collector(), Collector()
        fan = MultiSink(a, None, MultiSink(b, None, c))
        assert fan.sinks == (a, b, c)
        fan.emit(TaskPop(t=0.0, worker=0, items=1))
        assert len(a.events) == len(b.events) == len(c.events) == 1

    def test_fanned_collectors_agree_with_a_lone_collector(self):
        g = rmat(7, edge_factor=4, seed=3)
        alone = Collector()
        run_app("bfs", g, PERSIST_WARP, spec=SPEC, sink=alone)
        fan_a, fan_b = Collector(), Collector()
        run_app("bfs", g, PERSIST_WARP, spec=SPEC, sink=MultiSink(fan_a, fan_b))
        assert fan_a.digest() == fan_b.digest() == alone.digest()

    def test_validate_composes_with_user_sink(self):
        """run_app(sink=..., validate=True) observes AND validates."""
        from repro.graph.generators import grid_mesh as mesh

        sink = Collector()
        result = run_app("bfs", mesh(8, 8), PERSIST_WARP, spec=SPEC,
                         sink=sink, validate=True)
        assert sink.events, "user sink saw no events alongside the monitor"
        assert result.items_retired > 0


class TestFormatProfileResult:
    def test_accepts_run_result_directly(self):
        res, sink = _traced_bfs(PERSIST_WARP)
        via_result = format_profile(sink, res)
        via_kwargs = format_profile(
            sink,
            elapsed_ns=res.elapsed_ns,
            worker_slots=res.extra["worker_slots"],
            config_name=res.impl,
        )
        assert via_result == via_kwargs
        assert PERSIST_WARP.name in via_result

    def test_explicit_kwargs_take_precedence(self):
        res, sink = _traced_bfs(PERSIST_WARP)
        text = format_profile(sink, res, config_name="override")
        assert "override" in text
        assert PERSIST_WARP.name not in text


class TestChromeTraceSchema:
    """Schema tests for the trace export (one persistent + one discrete run)."""

    REQUIRED = {
        "X": ("pid", "tid", "ts", "dur"),
        "C": ("pid", "ts", "args"),
        "i": ("pid", "tid", "ts", "s"),
        "M": ("pid", "args"),
    }

    @pytest.fixture(scope="class", params=[PERSIST_WARP, DISCRETE_WARP],
                    ids=lambda c: c.name)
    def traced(self, request):
        return _traced_bfs(request.param)

    def test_every_event_has_required_keys(self, traced):
        _, sink = traced
        for e in to_chrome_trace(sink)["traceEvents"]:
            assert e["ph"] in self.REQUIRED, f"unknown phase {e['ph']!r}"
            for key in self.REQUIRED[e["ph"]]:
                assert key in e, f"{e['ph']} event missing {key!r}: {e}"
            if e["ph"] == "M":
                assert "name" in e["args"]

    def test_timestamps_monotonic_per_worker_track(self, traced):
        _, sink = traced
        doc = to_chrome_trace(sink)
        worker_tids = {
            e["tid"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e.get("args", {}).get("name", "").startswith("worker")
        }
        last: dict[int, float] = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X" and e["tid"] in worker_tids:
                assert e["ts"] >= last.get(e["tid"], 0.0), "task spans out of order"
                last[e["tid"]] = e["ts"]
        assert last, "no worker task spans exported"

    def test_spans_are_nonnegative_and_counter_track_drains(self, traced):
        _, sink = traced
        doc = to_chrome_trace(sink)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters and counters[-1]["args"]["items"] == 0
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                assert e["dur"] >= 0.0 and e["ts"] >= 0.0

    def test_generation_brackets_are_matched(self):
        from repro.obs import GenerationEnd, GenerationStart

        res, sink = _traced_bfs(DISCRETE_WARP)
        starts = sink.events_of(GenerationStart)
        ends = sink.events_of(GenerationEnd)
        assert len(starts) == len(ends) > 0
        doc = to_chrome_trace(sink)
        gen_spans = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("generation")
        ]
        # every start/end bracket becomes exactly one scheduler-track span
        assert len(gen_spans) == len(starts)
        assert all(e["dur"] >= 0.0 for e in gen_spans)

    def test_other_data_carries_digest(self, traced):
        _, sink = traced
        doc = to_chrome_trace(sink)
        assert doc["otherData"]["digest"] == sink.digest()
        assert doc["otherData"]["events"] == len(sink.events)
