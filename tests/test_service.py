"""Tests for the scheduler-as-a-service layer (repro.service).

Covers the content-addressing contract (job keys, result digests), the
integrity-checked result cache, the broker's queueing semantics
(fairness, backpressure, single-flight, graceful drain), and the HTTP
boundary.  The headline property throughout: every service response is
digest-identical to a direct serial ``execute_spec`` run.

The >=1000-client load storm lives in the ``slow`` tier
(``--run-slow`` / ``REPRO_SLOW=1``); a scaled-down storm runs in tier 1.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import (
    Broker,
    BrokerClosed,
    BrokerConfig,
    JobSpec,
    JobSpecError,
    QueueFull,
    ResultCache,
    execute_spec,
    job_key,
    result_digest,
    spec_from_dict,
)
from repro.service.http import ServiceServer
from repro.service.jobs import validate_spec

TINY = dict(dataset="roadNet-CA", size="tiny")


def _run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Job specs: parsing and validation
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_round_trip_dict(self):
        spec = JobSpec(app="bfs", **TINY, seed=2, params=(("source", 0),))
        again = spec_from_dict(spec.to_dict())
        assert again == spec

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ([], "JSON object"),
            ({"app": "bfs"}, "at least 'app' and 'dataset'"),
            ({"app": "bfs", "dataset": "roadNet-CA", "bogus": 1}, "unknown job field"),
            ({"app": 7, "dataset": "roadNet-CA"}, "'app' must be a string"),
            ({"app": "bfs", "dataset": "roadNet-CA", "seed": "x"}, "'seed' must be"),
            ({"app": "bfs", "dataset": "roadNet-CA", "params": 3}, "'params' must be"),
        ],
    )
    def test_malformed_docs_rejected(self, doc, fragment):
        with pytest.raises(JobSpecError, match=fragment):
            spec_from_dict(doc)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(app="nope", dataset="roadNet-CA"), "unknown app"),
            (dict(app="bfs", dataset="nope"), "nope"),
            (dict(app="bfs", dataset="roadNet-CA", config="nope"), "unknown config"),
            (dict(app="bfs", dataset="roadNet-CA", size="huge"), "unknown size"),
            (dict(app="bfs", dataset="roadNet-CA", seed=-1), "seed must be >= 0"),
            (dict(app="bfs", dataset="roadNet-CA", backend="gpu"),
             "unknown job field(s): backend"),
            (dict(app="bfs", dataset="roadNet-CA", devices=0), "devices must be >= 1"),
            (dict(app="bfs", dataset="roadNet-CA", edits="2x16@3"), "dynamic app"),
            (dict(app="bfs-inc", dataset="roadNet-CA"), "needs an 'edits' script"),
            (dict(app="bfs-inc", dataset="roadNet-CA", edits="garbage"), "bad edits spec"),
            (dict(app="bfs", dataset="roadNet-CA", config="BSP", seed=1), "no engine"),
        ],
    )
    def test_unsatisfiable_specs_rejected(self, kwargs, fragment):
        # parsed the way the HTTP layer parses a request body: a
        # JobSpecError from either step is a 400
        with pytest.raises(JobSpecError, match=re.escape(fragment)):
            validate_spec(spec_from_dict(kwargs))


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------
class TestJobKey:
    def test_deterministic(self):
        a = JobSpec(app="bfs", **TINY)
        b = JobSpec(app="bfs", **TINY)
        assert job_key(a) == job_key(b)

    def test_dataset_alias_shares_key(self):
        # aliases resolve to the same topology, hence the same address
        a = JobSpec(app="bfs", dataset="roadNet-CA", size="tiny")
        b = JobSpec(app="bfs", dataset="roadnet_ca_sim", size="tiny")
        assert job_key(a) == job_key(b)

    def test_size_changes_key(self):
        a = JobSpec(app="bfs", dataset="roadNet-CA", size="tiny")
        b = JobSpec(app="bfs", dataset="roadNet-CA", size="small")
        assert job_key(a) != job_key(b)

    @pytest.mark.parametrize(
        "variant",
        [
            dict(seed=1),
            dict(edits="2x16@3"),
            dict(permuted=True),
            dict(params=(("source", 5),)),
            dict(config="persist-warp"),
            dict(devices=2),
        ],
    )
    def test_every_identity_knob_changes_key(self, variant):
        base = JobSpec(app="bfs", **TINY)
        assert job_key(JobSpec(app="bfs", **TINY, **variant)) != job_key(base)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed_a=st.integers(min_value=0, max_value=10_000),
        seed_b=st.integers(min_value=0, max_value=10_000),
    )
    def test_seed_only_difference_never_shares_entry(self, seed_a, seed_b):
        """The cache-key safety property: configs differing only in seed
        must never share a cache entry (a seed selects a distinct
        perturbed schedule, so sharing would serve the wrong run)."""
        a = job_key(JobSpec(app="bfs", **TINY, seed=seed_a))
        b = job_key(JobSpec(app="bfs", **TINY, seed=seed_b))
        assert (a == b) == (seed_a == seed_b)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def bfs_tiny_result():
    return execute_spec(JobSpec(app="bfs", **TINY))


class TestResultCache:
    def test_round_trip_preserves_digest(self, bfs_tiny_result):
        cache = ResultCache()
        cache.put("k", bfs_tiny_result)
        back = cache.get("k")
        assert back is not None
        assert result_digest(back) == result_digest(bfs_tiny_result)
        stats = cache.stats()
        assert stats.hits == 1 and stats.entries == 1 and stats.bytes > 0

    def test_miss_counts(self):
        cache = ResultCache()
        assert cache.get("absent") is None
        assert cache.stats().misses == 1

    def test_lru_eviction_respects_byte_budget(self, bfs_tiny_result):
        one = len(__import__("pickle").dumps(bfs_tiny_result, protocol=-1))
        cache = ResultCache(max_bytes=int(one * 2.5))  # room for two entries
        cache.put("a", bfs_tiny_result)
        cache.put("b", bfs_tiny_result)
        cache.get("a")  # touch: 'b' becomes LRU
        cache.put("c", bfs_tiny_result)
        assert cache.get("b") is None, "LRU entry should have been evicted"
        assert cache.get("a") is not None and cache.get("c") is not None
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.bytes <= stats.max_bytes

    def test_oversized_result_not_cached(self, bfs_tiny_result):
        cache = ResultCache(max_bytes=16)
        cache.put("k", bfs_tiny_result)
        assert cache.stats().entries == 0

    def test_poisoned_entry_detected_and_evicted(self, bfs_tiny_result):
        cache = ResultCache()
        cache.put("k", bfs_tiny_result)
        assert cache.corrupt("k")
        assert cache.get("k") is None, "corrupted entry must not be served"
        stats = cache.stats()
        assert stats.poisons_detected == 1
        assert stats.entries == 0, "poisoned entry must be evicted"
        # the slot is reusable after recompute
        cache.put("k", bfs_tiny_result)
        assert cache.get("k") is not None

    @settings(max_examples=20, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=200))
    def test_any_single_byte_flip_detected(self, bfs_tiny_result, offset):
        cache = ResultCache()
        cache.put("k", bfs_tiny_result)
        cache.corrupt("k", offset=offset)
        assert cache.get("k") is None
        assert cache.stats().poisons_detected == 1

    def test_corrupt_missing_key(self):
        assert ResultCache().corrupt("nope") is False


# ---------------------------------------------------------------------------
# Broker semantics
# ---------------------------------------------------------------------------
class TestBroker:
    def test_cold_then_warm_hit_digest_identical(self):
        async def main():
            async with Broker(BrokerConfig(workers=2)) as broker:
                spec = JobSpec(app="bfs", **TINY)
                cold = await broker.submit(spec)
                warm = await broker.submit(spec)
                return cold, warm

        cold, warm = _run(main())
        ref = result_digest(execute_spec(JobSpec(app="bfs", **TINY)))
        assert cold.digest == warm.digest == ref
        assert not cold.cached and warm.cached

    def test_concurrent_clients_match_serial_digests(self):
        """Tier-1 storm: concurrent mixed-tenant clients, 100% digest match."""
        specs = [JobSpec(app="bfs", **TINY, seed=s) for s in range(4)]
        refs = {job_key(s): result_digest(execute_spec(s)) for s in specs}

        async def main():
            async with Broker(BrokerConfig(workers=3)) as broker:
                jobs = [
                    broker.submit(specs[i % len(specs)], tenant=f"t{i % 3}")
                    for i in range(24)
                ]
                return await asyncio.gather(*jobs), broker.stats()

        results, stats = _run(main())
        assert len(results) == 24
        for res in results:
            assert res.digest == refs[job_key(res.spec)]
        assert stats.cache.hits + stats.coalesced > 0

    def test_cold_jobs_count_one_miss_each(self):
        """Regression: the worker's re-check counted every cold job twice."""
        specs = [JobSpec(app="bfs", **TINY, seed=s) for s in range(3)]

        async def main():
            async with Broker(BrokerConfig(workers=2)) as broker:
                for spec in specs:
                    await broker.submit(spec)
                return broker.stats()

        stats = _run(main())
        assert stats.cache.misses == len(specs)
        assert stats.cache.hits == 0

    def test_single_flight_coalesces_identical_jobs(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = JobSpec(app="pagerank", **TINY)
                t1 = asyncio.ensure_future(broker.submit(spec))
                t2 = asyncio.ensure_future(broker.submit(spec))
                r1, r2 = await asyncio.gather(t1, t2)
                return r1, r2, broker.stats()

        r1, r2, stats = _run(main())
        assert r1.digest == r2.digest
        assert stats.coalesced == 1, "second identical job must join the first"
        assert stats.completed == 1, "the simulation must have run exactly once"

    def test_backpressure_full_queue_rejects(self):
        async def main():
            config = BrokerConfig(workers=1, tenant_queue_limit=2)
            async with Broker(config) as broker:
                jobs = [
                    asyncio.ensure_future(
                        broker.submit(JobSpec(app="bfs", **TINY, seed=s), tenant="flood")
                    )
                    for s in range(8)
                ]
                settled = await asyncio.gather(*jobs, return_exceptions=True)
                return settled, broker.stats()

        settled, stats = _run(main())
        rejections = [r for r in settled if isinstance(r, QueueFull)]
        completions = [r for r in settled if not isinstance(r, BaseException)]
        assert rejections, "overflowing the tenant bound must raise QueueFull"
        assert stats.rejected == len(rejections)
        ref = result_digest(execute_spec(JobSpec(app="bfs", **TINY, seed=0)))
        for res in completions:
            if res.spec.seed == 0:
                assert res.digest == ref

    def test_round_robin_fairness_across_tenants(self):
        """A flooding tenant cannot starve a light one: with one worker,
        the light tenant's single job completes within the first two
        dequeues regardless of four queued flood jobs ahead of it."""
        order: list[str] = []

        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                async def one(spec, tenant):
                    await broker.submit(spec, tenant=tenant)
                    order.append(tenant)

                jobs = [
                    one(JobSpec(app="bfs", **TINY, seed=10 + s), "flood")
                    for s in range(4)
                ]
                jobs.append(one(JobSpec(app="bfs", **TINY, seed=99), "light"))
                await asyncio.gather(*jobs)

        _run(main())
        assert order.index("light") <= 2, f"light tenant starved: {order}"

    def test_graceful_drain_finishes_accepted_work(self):
        async def main():
            broker = Broker(BrokerConfig(workers=1))
            await broker.start()
            jobs = [
                asyncio.ensure_future(broker.submit(JobSpec(app="bfs", **TINY, seed=s)))
                for s in range(3)
            ]
            await asyncio.sleep(0)  # let submits enqueue
            await broker.drain()
            results = await asyncio.gather(*jobs)
            with pytest.raises(BrokerClosed):
                await broker.submit(JobSpec(app="bfs", **TINY))
            return results

        results = _run(main())
        assert len(results) == 3
        assert len({r.digest for r in results}) == 3  # three distinct seeds

    def test_dynamic_job_never_served_from_static_entry(self):
        async def main():
            async with Broker(BrokerConfig(workers=2)) as broker:
                static = await broker.submit(JobSpec(app="bfs", **TINY))
                dyn_a = await broker.submit(
                    JobSpec(app="bfs-inc", **TINY, edits="2x16@3")
                )
                dyn_b = await broker.submit(
                    JobSpec(app="bfs-inc", **TINY, edits="3x8@9")
                )
                return static, dyn_a, dyn_b

        static, dyn_a, dyn_b = _run(main())
        assert len({static.digest, dyn_a.digest, dyn_b.digest}) == 3
        assert dyn_a.extra["replay_edits"] == "2x16@3"
        assert dyn_b.extra["replay_edits"] == "3x8@9"

    def test_bad_spec_rejected_before_queueing(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                with pytest.raises(JobSpecError):
                    await broker.submit({"app": "nope", "dataset": "roadNet-CA"})
                return broker.stats()

        stats = _run(main())
        assert stats.completed == 0 and stats.queue_depth == 0

    def test_latency_histograms_populated(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = JobSpec(app="bfs", **TINY)
                await broker.submit(spec)
                await broker.submit(spec)
                return broker.stats()

        stats = _run(main())
        assert stats.miss_latency_ms["count"] == 1
        assert stats.hit_latency_ms["count"] == 1
        assert stats.hit_latency_ms["p50"] <= stats.miss_latency_ms["p50"]


@pytest.mark.slow
def test_load_storm_1000_clients_digest_match():
    """The acceptance load test: >=1000 concurrent clients across tenants,
    every response digest-identical to the serial reference."""
    specs = [JobSpec(app="bfs", **TINY, seed=s) for s in range(5)]
    refs = {job_key(s): result_digest(execute_spec(s)) for s in specs}

    async def main():
        async with Broker(
            BrokerConfig(workers=4, tenant_queue_limit=2000)
        ) as broker:
            jobs = [
                broker.submit(specs[i % len(specs)], tenant=f"t{i % 8}")
                for i in range(1000)
            ]
            return await asyncio.gather(*jobs), broker.stats()

    results, stats = _run(main())
    assert len(results) == 1000
    assert all(r.digest == refs[job_key(r.spec)] for r in results)
    # all 1000 clients submit before any of the 5 distinct jobs completes,
    # so the warm path here is single-flight coalescing, not cache hits
    assert stats.coalesced + stats.cache.hits >= 900
    assert stats.completed <= len(specs)


# ---------------------------------------------------------------------------
# HTTP boundary
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
    try:
        return status, json.loads(rest)
    except json.JSONDecodeError:
        return status, rest.decode()


class TestHttp:
    def test_submit_stats_metrics_health(self):
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=2)), port=0) as srv:
                ok, health = await _http(srv.port, "GET", "/healthz")
                job = {"app": "bfs", "dataset": "roadNet-CA", "size": "tiny"}
                s1, r1 = await _http(srv.port, "POST", "/v1/jobs", {"job": job})
                s2, r2 = await _http(srv.port, "POST", "/v1/jobs", {"job": job, "tenant": "x"})
                s3, stats = await _http(srv.port, "GET", "/v1/stats")
                s4, metrics = await _http(srv.port, "GET", "/metrics")
                return (ok, health), (s1, r1), (s2, r2), (s3, stats), (s4, metrics)

        (hs, health), (s1, r1), (s2, r2), (s3, stats), (s4, metrics) = _run(main())
        assert hs == 200 and health["ok"] is True
        assert s1 == 200 and s2 == 200
        assert r1["digest"] == r2["digest"]
        assert r1["cached"] is False and r2["cached"] is True
        ref = result_digest(execute_spec(JobSpec(app="bfs", **TINY)))
        assert r1["digest"] == ref
        assert s3 == 200 and stats["schema"] == "repro.service/stats-v1"
        assert stats["submitted"] == 2
        assert s4 == 200 and "repro_service_submitted_total 2" in metrics

    @pytest.mark.parametrize(
        "method, path, body, status, fragment",
        [
            ("GET", "/nope", None, 404, "no such endpoint"),
            ("GET", "/v1/jobs", None, 405, "use POST"),
            ("POST", "/v1/jobs", {"tenant": "x"}, 400, "needs a 'job'"),
            ("POST", "/v1/jobs", {"job": {"app": "nope", "dataset": "roadNet-CA"}},
             400, "unknown app"),
            ("POST", "/v1/jobs", {"job": {"app": "bfs"}}, 400, "at least 'app'"),
            ("POST", "/v1/jobs", {"job": 7}, 400, "JSON object"),
            ("POST", "/v1/jobs",
             {"job": {"app": "bfs", "dataset": "roadNet-CA", "backend": "event"}},
             400, "unknown job field(s): backend"),
        ],
    )
    def test_error_statuses(self, method, path, body, status, fragment):
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                return await _http(srv.port, method, path, body)

        got_status, doc = _run(main())
        assert got_status == status
        assert fragment in doc["error"]

    def test_malformed_json_body_is_400(self):
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = _run(main())
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"not valid JSON" in raw

    def test_queue_full_maps_to_429(self):
        async def main():
            config = BrokerConfig(workers=1, tenant_queue_limit=1)
            async with ServiceServer(Broker(config), port=0) as srv:
                jobs = [
                    _http(
                        srv.port, "POST", "/v1/jobs",
                        {"job": {"app": "bfs", "dataset": "roadNet-CA",
                                 "size": "tiny", "seed": s}},
                    )
                    for s in range(6)
                ]
                return await asyncio.gather(*jobs)

        responses = _run(main())
        statuses = sorted(status for status, _ in responses)
        assert statuses[0] == 200, "at least one job must run"
        assert 429 in statuses, "overflow must answer 429"


# ---------------------------------------------------------------------------
# Telemetry exporters: per-tenant labels + exposition-format lint
# ---------------------------------------------------------------------------
def _tenant_stats_doc() -> dict:
    """A stats document with per-tenant traffic, straight off a broker."""

    async def main():
        async with Broker(BrokerConfig(workers=2, tenant_queue_limit=1)) as broker:
            spec = JobSpec(app="bfs", **TINY)
            await broker.submit(spec, tenant="alpha")
            await broker.submit(spec, tenant="alpha")  # warm hit
            await broker.submit(spec, tenant="beta")
            return broker.stats().to_dict()

    return _run(main())


class TestTelemetry:
    def test_per_tenant_labelled_series(self):
        from repro.service.telemetry import stats_to_prometheus

        doc = _tenant_stats_doc()
        text = stats_to_prometheus(doc)
        assert 'repro_service_tenant_submitted_total{tenant="alpha"} 2' in text
        assert 'repro_service_tenant_submitted_total{tenant="beta"} 1' in text
        assert 'repro_service_tenant_completed_total{tenant="alpha"} 2' in text
        assert 'repro_service_tenant_rejected_total{tenant="alpha"} 0' in text
        assert 'repro_service_tenant_queue_depth{tenant="alpha"} 0' in text

    def test_one_type_line_per_labelled_family(self):
        """Exposition lint: a family is declared once, above all its samples."""
        from repro.service.telemetry import stats_to_prometheus

        lines = stats_to_prometheus(_tenant_stats_doc()).splitlines()
        type_decls = [ln for ln in lines if ln.startswith("# TYPE ")]
        families = [ln.split()[2] for ln in type_decls]
        assert len(families) == len(set(families)), "duplicate # TYPE declaration"
        # every labelled tenant sample sits under exactly one declaration
        declared = set(families)
        for ln in lines:
            if ln.startswith("#") or not ln.strip():
                continue
            name = ln.split("{")[0].split()[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
            assert base in declared, f"undeclared sample {name}"

    def test_exposition_lines_are_well_formed(self):
        """Every sample line parses as ``name{labels} value``."""
        import re

        from repro.service.telemetry import stats_to_prometheus

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$"
        )
        for ln in stats_to_prometheus(_tenant_stats_doc()).splitlines():
            if ln.startswith("#") or not ln.strip():
                continue
            assert sample.match(ln), f"malformed exposition line: {ln!r}"

    def test_tenant_label_values_are_escaped(self):
        from repro.service.telemetry import stats_to_prometheus

        doc = _tenant_stats_doc()
        doc["per_tenant"] = {
            'we"ird\\ten\nant': {"submitted": 1, "completed": 1,
                                 "rejected": 0, "queue_depth": 0}
        }
        text = stats_to_prometheus(doc)
        assert '{tenant="we\\"ird\\\\ten\\nant"}' in text

    def test_jsonl_has_tenant_records(self):
        from repro.service.telemetry import stats_to_jsonl

        doc = _tenant_stats_doc()
        records = [json.loads(ln) for ln in stats_to_jsonl(doc).splitlines()]
        tenants = {r["tenant"]: r for r in records if r["kind"] == "tenant"}
        assert tenants["alpha"]["submitted"] == 2
        assert tenants["beta"]["submitted"] == 1

    def test_no_tenants_no_tenant_lines(self):
        from repro.service.telemetry import stats_to_prometheus

        doc = _tenant_stats_doc()
        doc["per_tenant"] = {}
        assert "tenant_" not in stats_to_prometheus(doc)

    def test_stats_doc_carries_per_tenant_block(self):
        doc = _tenant_stats_doc()
        assert doc["per_tenant"]["alpha"]["completed"] == 2
        assert doc["per_tenant"]["beta"]["queue_depth"] == 0
