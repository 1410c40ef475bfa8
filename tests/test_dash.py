"""Tests for the tracing + dashboard layer (repro.dash).

Covers the span primitives (Trace/Span/Tracer bounds), the broker
integration (one trace per submit with outcome-shaped span sets: a hit
has no engine span, a retry has one attempt span per execution with the
failed one marked, coalesced traces share the leader's engine span), the
wall-clock reconciliation the ISSUE pins (children nest inside the root
and account for its wall time), the merged Chrome export (broker pid +
engine pid joined by ``otherData.trace_id``), the wall-clock service
series read back through the stats document, the HTTP endpoints
(``/dash``, ``/v1/stats``, ``/v1/traces``), the keys the dashboard
script reads, and both snapshot flavours.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.dash import (
    Trace,
    Tracer,
    collector_snapshot,
    render_page,
    service_snapshot,
    trace_to_chrome,
    write_snapshot,
)
from repro.service import Broker, BrokerConfig, JobFailed, QueueFull, RunSpec
from repro.service.broker import COUNTERS, MAX_TENANTS, OVERFLOW_TENANT
from repro.service.faults import FaultInjector
from repro.service.http import ServiceServer

TINY = dict(dataset="roadNet-CA", size="tiny")


def _run(coro):
    return asyncio.run(coro)


def _submit_one(config: BrokerConfig, spec: RunSpec, tenant: str = "t"):
    """Run one job through a fresh broker; returns (result, trace_doc)."""

    async def main():
        async with Broker(config) as broker:
            result = await broker.submit(spec, tenant=tenant)
            return result, broker.trace_doc(result.trace_id)

    return _run(main())


# ---------------------------------------------------------------------------
# Span primitives
# ---------------------------------------------------------------------------
class TestTracePrimitives:
    def test_root_span_and_nesting(self):
        trace = Trace("abc", job="bfs", key="k", tenant="t")
        assert trace.root.name == "job" and trace.root.parent_id is None
        child = trace.start_span("cache.lookup")
        assert child.parent_id == trace.root.span_id
        grandchild = trace.start_span("engine", parent_id=child.span_id)
        assert grandchild.parent_id == child.span_id

    def test_end_span_stamps_status_and_attrs(self):
        trace = Trace("abc", job="bfs", key="k", tenant="t")
        span = trace.start_span("attempt")
        trace.end_span(span, status="error", error="boom")
        assert span.status == "error"
        assert span.attrs["error"] == "boom"
        assert span.end_ns >= span.start_ns
        assert span.duration_ns == span.end_ns - span.start_ns

    def test_open_span_duration_is_zero(self):
        trace = Trace("abc", job="bfs", key="k", tenant="t")
        span = trace.start_span("attempt")
        assert span.duration_ns == 0
        assert span.to_dict()["end_ns"] is None

    def test_tracer_capacity_is_fifo(self):
        tracer = Tracer(capacity=3)
        ids = []
        for i in range(5):
            trace = tracer.start(job=f"job{i}", key="k", tenant="t")
            tracer.finish(trace, outcome="miss")
            ids.append(trace.trace_id)
        assert tracer.get(ids[0]) is None and tracer.get(ids[1]) is None
        assert [t.trace_id for t in tracer.traces()] == ids[:1:-1]
        assert tracer.started == 5 and tracer.finished == 5

    def test_tracer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_failed_outcome_marks_root_error(self):
        tracer = Tracer()
        ok = tracer.finish(tracer.start(job="a", key="k", tenant="t"), outcome="miss")
        bad = tracer.finish(tracer.start(job="b", key="k", tenant="t"), outcome="failed")
        assert ok.root.status == "ok"
        assert bad.root.status == "error"

    def test_summary_counts_attempts_and_worker(self):
        tracer = Tracer()
        trace = tracer.start(job="bfs", key="k", tenant="t")
        for attempt in (1, 2):
            span = trace.start_span("attempt")
            span.attrs.update(attempt=attempt, worker=attempt)
            trace.end_span(span)
        tracer.finish(trace, outcome="miss")
        row = trace.summary(t0_ns=tracer.t0_ns)
        assert row["attempts"] == 2
        assert row["worker"] == 2  # last attempt's worker
        assert row["wall_ms"] == trace.wall_ms


# ---------------------------------------------------------------------------
# Broker integration: outcome-shaped traces
# ---------------------------------------------------------------------------
class TestBrokerTraces:
    def test_miss_trace_has_full_span_chain(self):
        result, doc = _submit_one(
            BrokerConfig(workers=1), RunSpec(app="bfs", **TINY)
        )
        assert result.trace_id and doc is not None
        assert doc["schema"] == "repro.dash/trace-v1"
        assert doc["outcome"] == "miss"
        names = [s["name"] for s in doc["spans"]]
        for expected in ("job", "job.key", "cache.lookup", "queue.wait",
                         "attempt", "engine"):
            assert expected in names, f"missing span {expected!r} in {names}"
        lookup = next(s for s in doc["spans"] if s["name"] == "cache.lookup")
        assert lookup["attrs"]["hit"] is False

    def test_cache_hit_trace_has_no_engine_span(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = RunSpec(app="bfs", **TINY)
                first = await broker.submit(spec, tenant="t")
                second = await broker.submit(spec, tenant="t")
                return (
                    broker.trace_doc(first.trace_id),
                    broker.trace_doc(second.trace_id),
                )

        first, second = _run(main())
        assert first["trace_id"] != second["trace_id"]
        assert second["outcome"] == "hit"
        names = [s["name"] for s in second["spans"]]
        assert "engine" not in names and "queue.wait" not in names
        lookup = next(s for s in second["spans"] if s["name"] == "cache.lookup")
        assert lookup["attrs"]["hit"] is True

    def test_coalesced_traces_share_one_engine_span(self):
        async def main():
            async with Broker(BrokerConfig(workers=2)) as broker:
                spec = RunSpec(app="pagerank", **TINY)
                a, b = await asyncio.gather(
                    broker.submit(spec, tenant="a"), broker.submit(spec, tenant="b")
                )
                assert broker.stats()["counters"]["coalesced"] == 1
                return broker.trace_doc(a.trace_id), broker.trace_doc(b.trace_id)

        doc_a, doc_b = _run(main())
        outcomes = {doc_a["outcome"], doc_b["outcome"]}
        assert outcomes == {"miss", "coalesced"}
        follower = doc_a if doc_a["outcome"] == "coalesced" else doc_b
        leader = doc_b if follower is doc_a else doc_a
        # two trace records...
        assert follower["trace_id"] != leader["trace_id"]
        # ...sharing exactly one engine execution
        leader_engines = [s for s in leader["spans"] if s["name"] == "engine"]
        assert len(leader_engines) == 1
        assert not any(s["name"] == "engine" for s in follower["spans"])
        root = next(s for s in follower["spans"] if s["name"] == "job")
        assert root["attrs"]["shared_trace_id"] == leader["trace_id"]
        assert root["attrs"]["engine_span_id"] == leader_engines[0]["span_id"]
        assert any(s["name"] == "coalesce.wait" for s in follower["spans"])

    def test_retried_job_has_one_attempt_span_per_execution(self):
        faults = FaultInjector(seed=1)
        faults.script_kills(1)
        config = BrokerConfig(workers=1, max_attempts=3,
                              retry_backoff_s=0.0, faults=faults)
        result, doc = _submit_one(config, RunSpec(app="bfs", **TINY))
        assert result.attempts == 2
        attempts = [s for s in doc["spans"] if s["name"] == "attempt"]
        assert len(attempts) == 2
        assert attempts[0]["status"] == "error"
        assert "WorkerKilled" in attempts[0]["attrs"]["error"]
        assert attempts[1]["status"] == "ok"
        assert [a["attrs"]["attempt"] for a in attempts] == [1, 2]
        # the killed attempt never reached the engine
        engines = [s for s in doc["spans"] if s["name"] == "engine"]
        assert len(engines) == 1
        assert engines[0]["parent_id"] == attempts[1]["span_id"]

    def test_failed_job_trace_is_retained_with_error_root(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = RunSpec(app="bfs", dataset="roadNet-CA", size="tiny",
                               params=(("source", 10**9),))
                with pytest.raises(JobFailed):
                    await broker.submit(spec, tenant="t")
                rows = broker.traces_doc()["traces"]
                return broker.trace_doc(rows[0]["trace_id"])

        doc = _run(main())
        assert doc["outcome"] == "failed"
        root = next(s for s in doc["spans"] if s["name"] == "job")
        assert root["status"] == "error"
        attempts = [s for s in doc["spans"] if s["name"] == "attempt"]
        assert attempts and all(a["status"] == "error" for a in attempts)

    def test_rejected_job_trace_is_retained(self):
        async def main():
            config = BrokerConfig(workers=1, tenant_queue_limit=1)
            async with Broker(config) as broker:
                specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(6)]
                results = await asyncio.gather(
                    *(broker.submit(s, tenant="t") for s in specs),
                    return_exceptions=True,
                )
                assert any(isinstance(r, QueueFull) for r in results)
                return broker.traces_doc()["traces"]

        rows = _run(main())
        assert any(r["outcome"] == "rejected" for r in rows)

    def test_tracing_off_means_absent(self):
        result, doc = _submit_one(
            BrokerConfig(workers=1, tracing=False), RunSpec(app="bfs", **TINY)
        )
        assert result.trace_id is None
        assert doc is None
        assert "trace_id" in result.to_dict()  # field stays schema-stable

    def test_span_accounting_reconciles_to_wall_time(self):
        _, doc = _submit_one(BrokerConfig(workers=1), RunSpec(app="bfs", **TINY))
        root = next(s for s in doc["spans"] if s["name"] == "job")
        assert doc["wall_ms"] == pytest.approx(root["duration_ns"] / 1e6)
        children = [s for s in doc["spans"] if s["parent_id"] == root["span_id"]]
        assert children, "root must have child spans"
        for span in children:
            assert span["start_ns"] >= root["start_ns"], span["name"]
            assert span["end_ns"] <= root["end_ns"], span["name"]
        # the service phases are sequential, so they cannot account for
        # more than the job's wall time
        assert sum(s["duration_ns"] for s in children) <= root["duration_ns"]
        # the engine nests inside its attempt
        attempt = next(s for s in doc["spans"] if s["name"] == "attempt")
        engine = next(s for s in doc["spans"] if s["name"] == "engine")
        assert engine["parent_id"] == attempt["span_id"]
        assert attempt["start_ns"] <= engine["start_ns"]
        assert engine["end_ns"] <= attempt["end_ns"]


# ---------------------------------------------------------------------------
# Event capture + merged Chrome export
# ---------------------------------------------------------------------------
class TestMergedChrome:
    def test_trace_events_capture_engine_stream(self):
        config = BrokerConfig(workers=1, trace_events=True)
        result, doc = _submit_one(config, RunSpec(app="bfs", **TINY))
        engine_doc = doc.get("engine")
        assert engine_doc is not None
        assert engine_doc["otherData"]["trace_id"] == result.trace_id
        assert engine_doc["otherData"]["events"] > 0
        assert engine_doc["otherData"]["digest"]

    def test_trace_events_capture_bsp_kernels(self):
        config = BrokerConfig(workers=1, trace_events=True)
        result, doc = _submit_one(config, RunSpec(app="bfs", impl="BSP", **TINY))
        merged = trace_to_chrome(doc)
        launches = [e for e in merged["traceEvents"] if e.get("name") == "kernel launch"]
        assert len(launches) == result.kernel_launches > 0
        assert {e["pid"] for e in launches} == {2}

    def test_merged_chrome_doc_spans_both_clocks(self):
        config = BrokerConfig(workers=1, trace_events=True)
        result, doc = _submit_one(config, RunSpec(app="bfs", **TINY))
        merged = trace_to_chrome(doc)
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert pids == {1, 2}
        assert merged["otherData"]["trace_id"] == result.trace_id
        assert merged["otherData"]["outcome"] == "miss"
        assert merged["otherData"]["engine_digest"]
        # broker spans are zeroed at the root and carry status args
        root_ev = next(
            e for e in merged["traceEvents"]
            if e["pid"] == 1 and e.get("name") == "job"
        )
        assert root_ev["ts"] == 0.0
        assert root_ev["args"]["status"] == "ok"
        # the doc is JSON-serializable as-is (the export contract)
        json.dumps(merged)

    def test_merged_chrome_without_capture_has_broker_pid_only(self):
        _, doc = _submit_one(BrokerConfig(workers=1), RunSpec(app="bfs", **TINY))
        merged = trace_to_chrome(doc)
        assert {e["pid"] for e in merged["traceEvents"]} == {1}
        assert "engine_digest" not in merged["otherData"]

    def test_worker_lane_metadata(self):
        _, doc = _submit_one(BrokerConfig(workers=1), RunSpec(app="bfs", **TINY))
        merged = trace_to_chrome(doc)
        lanes = [
            e["args"]["name"] for e in merged["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        ]
        assert "client" in lanes
        assert any(name.startswith("svc worker") for name in lanes)

    def test_dynamic_job_gets_epoch_child_spans(self):
        config = BrokerConfig(workers=1, trace_events=True)
        spec = RunSpec(app="bfs-inc", dataset="roadNet-CA", size="tiny",
                       impl="persist-CTA", edits="2x16@3")
        _, doc = _submit_one(config, spec)
        engine = next(s for s in doc["spans"] if s["name"] == "engine")
        epochs = [s for s in doc["spans"] if s["name"].startswith("epoch ")]
        assert epochs, "dynamic job must produce epoch spans"
        for span in epochs:
            assert span["parent_id"] == engine["span_id"]
        # epoch spans tile the engine interval in order
        starts = [s["start_ns"] for s in epochs]
        assert starts == sorted(starts)

    def test_static_job_has_no_epoch_spans(self):
        config = BrokerConfig(workers=1, trace_events=True)
        _, doc = _submit_one(config, RunSpec(app="bfs", **TINY))
        assert not [s for s in doc["spans"] if s["name"].startswith("epoch ")]


# ---------------------------------------------------------------------------
# Wall-clock service series, read back through Broker.stats()
# ---------------------------------------------------------------------------
def _stats_after(jobs: list[tuple[RunSpec, str]]) -> dict:
    """The stats document of a fresh broker after ``(spec, tenant)`` jobs."""

    async def main():
        async with Broker(BrokerConfig(workers=1)) as broker:
            for spec, tenant in jobs:
                await broker.submit(spec, tenant=tenant)
            return broker.stats()

    return _run(main())


class TestServiceSeries:
    def test_schema_and_names(self):
        doc = Broker().stats()
        assert doc["schema"] == "repro.service/stats-v2"
        assert set(doc["counters"]) == set(COUNTERS)
        assert set(doc["series"]) == {*COUNTERS, "queue_depth", "busy_workers"}
        assert doc["series"]["queue_depth"]["kind"] == "gauge"
        assert doc["tenants"] == {} and doc["wall_s"] >= 0

    def test_marks_accumulate(self):
        spec = RunSpec(app="bfs", **TINY)
        doc = _stats_after([(spec, "a")] * 3)
        for name, expected in (("submitted", 3), ("hits", 2), ("completed", 1)):
            assert sum(doc["series"][name]["values"]) == pytest.approx(expected)
            assert doc["counters"][name] == expected
        assert doc["gauges"]["peak_queue_depth"] == 1

    def test_tenant_overflow_folds_into_other(self):
        spec = RunSpec(app="bfs", **TINY)
        names = [f"t{i:02d}" for i in range(MAX_TENANTS + 2)]
        doc = _stats_after([(spec, name) for name in names])
        assert set(doc["tenants"]) == {*names[:MAX_TENANTS], OVERFLOW_TENANT}
        assert doc["tenants"][OVERFLOW_TENANT]["submitted"] == 2
        for name in COUNTERS:
            assert doc["counters"][name] == sum(t[name] for t in doc["tenants"].values())

    def test_broker_timeseries_document(self):
        spec = RunSpec(app="bfs", **TINY)
        doc = _stats_after([(spec, "a"), (spec, "a")])  # a miss, then a hit
        assert doc["tracing"] is True
        assert sum(doc["series"]["submitted"]["values"]) == pytest.approx(2.0)
        assert sum(doc["series"]["hits"]["values"]) == pytest.approx(1.0)
        # one meaning per counter: the broker and the tenant agree
        assert doc["counters"]["completed"] == doc["tenants"]["a"]["completed"] == 1
        assert doc["counters"]["hits"] == doc["tenants"]["a"]["hits"] == 1
        assert doc["tenants"]["a"]["submitted"] == 2


# ---------------------------------------------------------------------------
# HTTP endpoints
# ---------------------------------------------------------------------------
async def _http(port: int, method: str, path: str, body: dict | None = None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    ctype = ""
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-type":
            ctype = value.strip()
    try:
        return status, json.loads(rest), ctype
    except json.JSONDecodeError:
        return status, rest.decode(), ctype


class TestDashHttp:
    def test_dash_page_is_html(self):
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                return await _http(srv.port, "GET", "/dash")

        status, body, ctype = _run(main())
        assert status == 200
        assert ctype.startswith("text/html")
        assert "repro dash" in body
        assert "window.SNAPSHOT = null" in body  # live mode polls, no embed

    def test_timeseries_and_traces_endpoints(self):
        """The wall-clock series are served inside ``/v1/stats``."""
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                job = {"app": "bfs", "dataset": "roadNet-CA", "size": "tiny"}
                await _http(srv.port, "POST", "/v1/jobs", {"job": job})
                s1, ts, _ = await _http(srv.port, "GET", "/v1/stats")
                s2, traces, _ = await _http(srv.port, "GET", "/v1/traces")
                trace_id = traces["traces"][0]["trace_id"]
                s3, detail, _ = await _http(srv.port, "GET", f"/v1/traces/{trace_id}")
                s4, chrome, _ = await _http(
                    srv.port, "GET", f"/v1/traces/{trace_id}?format=chrome"
                )
                return (s1, ts), (s2, traces), (s3, detail), (s4, chrome), trace_id

        (s1, ts), (s2, traces), (s3, detail), (s4, chrome), trace_id = _run(main())
        assert s1 == 200 and ts["schema"] == "repro.service/stats-v2"
        assert ts["series"]["submitted"]["values"]
        assert s2 == 200 and traces["schema"] == "repro.dash/traces-v1"
        assert traces["tracing"] is True and len(traces["traces"]) == 1
        assert s3 == 200 and detail["trace_id"] == trace_id
        assert s4 == 200 and chrome["otherData"]["trace_id"] == trace_id

    @pytest.mark.parametrize(
        "method, path, status, fragment",
        [
            ("GET", "/nope", 404, "no such endpoint"),
            ("GET", "/v1/timeseries", 404, "no such endpoint"),
            ("GET", "/v1/traces/deadbeef", 404, "no such trace"),
            ("POST", "/dash", 405, "use GET"),
            ("POST", "/v1/traces", 405, "use GET"),
            ("POST", "/v1/traces/abc", 405, "use GET"),
            ("POST", "/healthz", 405, "use GET"),
            ("POST", "/v1/stats", 405, "use GET"),
            ("POST", "/metrics", 405, "use GET"),
            ("GET", "/v1/jobs", 405, "use POST"),
        ],
    )
    def test_status_mapping_every_route(self, method, path, status, fragment):
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                body = {"x": 1} if method == "POST" else None
                return await _http(srv.port, method, path, body)

        got, doc, _ = _run(main())
        assert got == status
        assert fragment in doc["error"]
        assert doc["status"] == status  # uniform error shape
        if status == 405:
            assert method not in doc["allowed"]

    def test_trace_endpoints_with_tracing_disabled(self):
        async def main():
            broker = Broker(BrokerConfig(workers=1, tracing=False))
            async with ServiceServer(broker, port=0) as srv:
                s1, traces, _ = await _http(srv.port, "GET", "/v1/traces")
                s2, detail, _ = await _http(srv.port, "GET", "/v1/traces/abc")
                s3, ts, _ = await _http(srv.port, "GET", "/v1/stats")
                return (s1, traces), (s2, detail), (s3, ts)

        (s1, traces), (s2, detail), (s3, ts) = _run(main())
        assert s1 == 200 and traces["tracing"] is False and traces["traces"] == []
        assert s2 == 404 and "disabled" in detail["error"]
        assert s3 == 200 and ts["tracing"] is False


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
class _LoopbackClient:
    """ServiceClient-shaped adapter over a live broker (no sockets)."""

    def __init__(self, broker: Broker) -> None:
        self.broker = broker

    def stats(self) -> dict:
        return self.broker.stats()

    def traces(self) -> dict:
        return self.broker.traces_doc()

    def trace(self, trace_id: str) -> dict:
        doc = self.broker.trace_doc(trace_id)
        if doc is None:
            raise KeyError(trace_id)
        return doc


class TestSnapshots:
    def test_service_snapshot_embeds_details(self, tmp_path):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = RunSpec(app="bfs", **TINY)
                await broker.submit(spec, tenant="a")
                await broker.submit(spec, tenant="b")
                return service_snapshot(_LoopbackClient(broker))

        snapshot = _run(main())
        assert snapshot["schema"] == "repro.dash/snapshot-v2"
        assert snapshot["stats"]["counters"]["submitted"] == 2
        assert len(snapshot["traces"]["traces"]) == 2
        assert set(snapshot["details"]) == {
            row["trace_id"] for row in snapshot["traces"]["traces"]
        }
        path = write_snapshot(snapshot, tmp_path / "dash.html")
        html = path.read_text(encoding="utf-8")
        assert "window.SNAPSHOT = {" in html
        # the embedded JSON round-trips (and never closes the script tag)
        payload = html.split("window.SNAPSHOT = ", 1)[1].split(";\n", 1)[0]
        assert "</script>" not in payload
        assert json.loads(payload.replace("<\\/", "</")) == snapshot

    def test_collector_snapshot_offline(self, tmp_path):
        from repro.obs import Collector
        from repro.service.jobs import execute_spec

        collector = Collector(trace_id="cafe")
        result = execute_spec(RunSpec("bfs", "roadNet-CA", "persist-CTA", size="tiny"),
                              sink=collector, metrics=True)
        snapshot = collector_snapshot(collector, result, config="persist-CTA")
        engine = snapshot["engine"]
        assert engine["meta"]["app"] == "bfs"
        assert engine["meta"]["trace_id"] == "cafe"
        assert engine["meta"]["tasks"] == len(engine["spans"])
        assert engine["queue"][-1][1] == 0  # drained
        assert engine["occupancy"]
        assert engine["metrics"] is not None
        path = write_snapshot(snapshot, tmp_path / "engine.html")
        assert "window.SNAPSHOT" in path.read_text(encoding="utf-8")

    def test_snapshot_json_escapes_script_close(self):
        html = render_page({"marker": "</script><script>alert(1)</script>"})
        assert "</script><script>alert(1)" not in html
        assert "<\\/script>" in html

    def test_render_page_live_mode(self):
        html = render_page(None)
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "/v1/stats" in html and "/v1/traces" in html
        assert "/v1/timeseries" not in html

    def test_every_key_the_page_reads_exists(self):
        """The page reads the stats document as ``stats.<path>`` and each
        tenant entry as ``tenant.<key>``; every one of those must resolve in
        a live broker's ``/v1/stats``."""

        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                job = {"app": "bfs", "dataset": "roadNet-CA", "size": "tiny"}
                await _http(srv.port, "POST", "/v1/jobs", {"job": job, "tenant": "a"})
                await _http(srv.port, "POST", "/v1/jobs", {"job": job, "tenant": "b"})
                return (await _http(srv.port, "GET", "/v1/stats"))[1]

        doc = _run(main())
        html = render_page(None)
        paths = set(re.findall(r"\bstats((?:\.[a-z_0-9]+)+)", html))
        assert len(paths) > 10, paths
        for path in sorted(paths):
            node = doc
            for key in path[1:].split("."):
                assert isinstance(node, dict) and key in node, f"stats{path} missing"
                node = node[key]
        tenant_keys = set(re.findall(r"\btenant\.([a-z_]+)", html))
        assert tenant_keys and set(doc["tenants"]) == {"a", "b"}
        for entry in doc["tenants"].values():
            assert tenant_keys <= set(entry)
