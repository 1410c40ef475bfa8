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
import functools
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.metrics.export import to_jsonl, to_prometheus
from repro.service import (
    Broker,
    BrokerClosed,
    BrokerConfig,
    FaultInjector,
    JobFailed,
    JobSpecError,
    QueueFull,
    ResultCache,
    RunSpec,
    execute_spec,
    job_key,
    result_digest,
    spec_from_dict,
)
from repro.service.broker import COUNTERS, OUTCOMES
from repro.service import http
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
        spec = RunSpec(app="bfs", **TINY, seed=2, params=(("source", 0),))
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
            ({"app": "bfs", "dataset": "roadNet-CA", "params": {"source": [1]}},
             "'params' values must be JSON scalars"),
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
@functools.lru_cache(maxsize=None)
def _digest(spec: RunSpec) -> str:
    return result_digest(execute_spec(spec))


@st.composite
def _identity_specs(draw) -> RunSpec:
    impl = draw(st.sampled_from(["persist-CTA", "dist-2", "BSP"]))
    return RunSpec(
        app="bfs",
        dataset=draw(st.sampled_from(["roadNet-CA", "roadnet_ca_sim"])),
        impl=impl,
        size="tiny",
        seed=0 if impl == "BSP" else draw(st.sampled_from([0, 1])),
        devices=draw(st.sampled_from([None, 1, 2])),
        partition=draw(st.sampled_from([None, "hash"])),
    )


class TestJobKey:
    def test_deterministic(self):
        a = RunSpec(app="bfs", **TINY)
        b = RunSpec(app="bfs", **TINY)
        assert job_key(a) == job_key(b)

    def test_dataset_alias_shares_key(self):
        # an alias canonicalises to the registry key, hence the same address
        a = RunSpec(app="bfs", dataset="roadNet-CA", size="tiny")
        b = RunSpec(app="bfs", dataset="roadnet_ca_sim", size="tiny")
        assert job_key(a) == job_key(b)

    def test_size_changes_key(self):
        a = RunSpec(app="bfs", dataset="roadNet-CA", size="tiny")
        b = RunSpec(app="bfs", dataset="roadNet-CA", size="small")
        assert job_key(a) != job_key(b)

    @pytest.mark.parametrize(
        "variant",
        [
            dict(seed=1),
            dict(edits="2x16@3"),
            dict(permuted=True),
            dict(params=(("source", 5),)),
            dict(impl="persist-warp"),
            dict(devices=2),
        ],
    )
    def test_every_identity_knob_changes_key(self, variant):
        base = RunSpec(app="bfs", **TINY)
        assert job_key(RunSpec(app="bfs", **TINY, **variant)) != job_key(base)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed_a=st.integers(min_value=0, max_value=10_000),
        seed_b=st.integers(min_value=0, max_value=10_000),
    )
    def test_seed_only_difference_never_shares_entry(self, seed_a, seed_b):
        """The cache-key safety property: configs differing only in seed
        must never share a cache entry (a seed selects a distinct
        perturbed schedule, so sharing would serve the wrong run)."""
        a = job_key(RunSpec(app="bfs", **TINY, seed=seed_a))
        b = job_key(RunSpec(app="bfs", **TINY, seed=seed_b))
        assert (a == b) == (seed_a == seed_b)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=_identity_specs(), b=_identity_specs())
    @example(a=RunSpec(app="bfs", **TINY, impl="dist-2"),
             b=RunSpec(app="bfs", **TINY, devices=2))
    def test_equal_keys_imply_equal_results(self, a, b):
        """The cache's soundness property: a shared entry is never another
        run's answer.  The spec space is small on purpose (aliases,
        ignored device fields, presets with identical knobs) so that
        distinct spellings of one run collide often; the pinned example
        is two presets whose rebased knobs are equal but whose results
        differ by name."""
        if job_key(a) == job_key(b):
            assert _digest(a) == _digest(b)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def bfs_tiny_result():
    return execute_spec(RunSpec(app="bfs", **TINY))


class TestResultCache:
    def test_round_trip_preserves_digest(self, bfs_tiny_result):
        cache = ResultCache()
        cache.put("k", bfs_tiny_result)
        back = cache.get("k")
        assert back is not None
        assert result_digest(back) == result_digest(bfs_tiny_result)
        stats = cache.stats()
        assert stats.hits == 1 and stats.entries == 1 and stats.bytes > 0
        # the digest leaves the trace out: a persist-warp result (one
        # sample per completion) must come back with its columns intact
        warp = execute_spec(RunSpec(app="pagerank", impl="persist-warp", **TINY))
        cache.put("warp", warp)
        back = cache.get("warp")
        assert len(back.trace.times) == warp.extra["total_tasks"]
        for name in ("times", "items", "work"):
            col, ref = getattr(back.trace, name), getattr(warp.trace, name)
            assert col.typecode == ref.typecode
            assert col.tobytes() == ref.tobytes()

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
                spec = RunSpec(app="bfs", **TINY)
                cold = await broker.submit(spec)
                warm = await broker.submit(spec)
                return cold, warm

        cold, warm = _run(main())
        ref = result_digest(execute_spec(RunSpec(app="bfs", **TINY)))
        assert cold.digest == warm.digest == ref
        assert not cold.cached and warm.cached

    def test_concurrent_clients_match_serial_digests(self):
        """Tier-1 storm: concurrent mixed-tenant clients, 100% digest match."""
        specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(4)]
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
        assert stats["cache"]["hits"] + stats["counters"]["coalesced"] > 0

    def test_cold_jobs_count_one_miss_each(self):
        """Regression: the worker's re-check counted every cold job twice."""
        specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(3)]

        async def main():
            async with Broker(BrokerConfig(workers=2)) as broker:
                for spec in specs:
                    await broker.submit(spec)
                return broker.stats()

        stats = _run(main())
        assert stats["cache"]["misses"] == len(specs)
        assert stats["cache"]["hits"] == 0

    def test_single_flight_coalesces_identical_jobs(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = RunSpec(app="pagerank", **TINY)
                t1 = asyncio.ensure_future(broker.submit(spec))
                t2 = asyncio.ensure_future(broker.submit(spec))
                r1, r2 = await asyncio.gather(t1, t2)
                return r1, r2, broker.stats()

        r1, r2, stats = _run(main())
        assert r1.digest == r2.digest
        assert stats["counters"]["coalesced"] == 1, "second identical job must join the first"
        assert stats["counters"]["executed"] == 1, "the simulation must have run exactly once"

    def test_backpressure_full_queue_rejects(self):
        async def main():
            config = BrokerConfig(workers=1, tenant_queue_limit=2)
            async with Broker(config) as broker:
                jobs = [
                    asyncio.ensure_future(
                        broker.submit(RunSpec(app="bfs", **TINY, seed=s), tenant="flood")
                    )
                    for s in range(8)
                ]
                settled = await asyncio.gather(*jobs, return_exceptions=True)
                return settled, broker.stats()

        settled, stats = _run(main())
        rejections = [r for r in settled if isinstance(r, QueueFull)]
        completions = [r for r in settled if not isinstance(r, BaseException)]
        assert rejections, "overflowing the tenant bound must raise QueueFull"
        assert stats["counters"]["rejected"] == len(rejections)
        ref = result_digest(execute_spec(RunSpec(app="bfs", **TINY, seed=0)))
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
                    one(RunSpec(app="bfs", **TINY, seed=10 + s), "flood")
                    for s in range(4)
                ]
                jobs.append(one(RunSpec(app="bfs", **TINY, seed=99), "light"))
                await asyncio.gather(*jobs)

        _run(main())
        assert order.index("light") <= 2, f"light tenant starved: {order}"

    def test_graceful_drain_finishes_accepted_work(self):
        async def main():
            broker = Broker(BrokerConfig(workers=1))
            await broker.start()
            jobs = [
                asyncio.ensure_future(broker.submit(RunSpec(app="bfs", **TINY, seed=s)))
                for s in range(3)
            ]
            await asyncio.sleep(0)  # let submits enqueue
            await broker.drain()
            results = await asyncio.gather(*jobs)
            with pytest.raises(BrokerClosed):
                await broker.submit(RunSpec(app="bfs", **TINY))
            return results

        results = _run(main())
        assert len(results) == 3
        assert len({r.digest for r in results}) == 3  # three distinct seeds

    def test_dynamic_job_never_served_from_static_entry(self):
        async def main():
            async with Broker(BrokerConfig(workers=2)) as broker:
                static = await broker.submit(RunSpec(app="bfs", **TINY))
                dyn_a = await broker.submit(
                    RunSpec(app="bfs-inc", **TINY, edits="2x16@3")
                )
                dyn_b = await broker.submit(
                    RunSpec(app="bfs-inc", **TINY, edits="3x8@9")
                )
                return static, dyn_a, dyn_b

        static, dyn_a, dyn_b = _run(main())
        assert len({static.digest, dyn_a.digest, dyn_b.digest}) == 3
        assert dyn_a.extra["replay_edits"] == "2x16@3"
        assert dyn_b.extra["replay_edits"] == "3x8@9"

    def test_rebased_preset_never_served_another_presets_result(self):
        """Regression: dist-2 and persist-CTA on 2 devices simulate the same
        machine, and the cache once keyed both to one entry, so the second
        job got the first preset's answer (its result names the preset)."""
        dist = RunSpec(app="bfs", **TINY, impl="dist-2")
        rebased = RunSpec(app="bfs", **TINY, devices=2)

        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                return [await broker.submit(dist), await broker.submit(rebased)]

        first, second = _run(main())
        assert first.digest == result_digest(execute_spec(dist))
        assert second.digest == result_digest(execute_spec(rebased))
        assert not second.cached

    def test_bad_spec_rejected_before_queueing(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                with pytest.raises(JobSpecError):
                    await broker.submit({"app": "nope", "dataset": "roadNet-CA"})
                return broker.stats()

        stats = _run(main())
        assert stats["counters"]["submitted"] == stats["counters"]["executed"] == 0
        assert stats["gauges"]["queue_depth"] == 0

    def test_latency_histograms_populated(self):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = RunSpec(app="bfs", **TINY)
                await broker.submit(spec)
                await broker.submit(spec)
                return broker.stats()

        hists = _run(main())["histograms"]
        assert hists["miss_latency_ms"]["count"] == 1
        assert hists["hit_latency_ms"]["count"] == 1
        assert hists["hit_latency_ms"]["p50"] <= hists["miss_latency_ms"]["p50"]

    def test_every_outcome_counted_once(self):
        """One job of each outcome across two tenants: once nothing is in
        flight, ``submitted`` is the sum of the five outcomes, globally and
        per tenant, and the tenants sum to the broker."""
        bfs, pagerank = RunSpec(app="bfs", **TINY), RunSpec(app="pagerank", **TINY)

        async def main():
            faults = FaultInjector(seed=1)
            config = BrokerConfig(
                workers=1, tenant_queue_limit=1, max_attempts=1, faults=faults
            )
            async with Broker(config) as broker:
                await broker.submit(bfs, tenant="a")  # completed
                await broker.submit(bfs, tenant="b")  # hit
                # all four enter before the worker wakes: the second joins the
                # first, the third fills b's one-slot queue, the fourth bounces
                settled = await asyncio.gather(
                    broker.submit(pagerank, tenant="a"),  # completed
                    broker.submit(pagerank, tenant="b"),  # coalesced
                    broker.submit(RunSpec(app="bfs", **TINY, seed=5), tenant="b"),
                    broker.submit(RunSpec(app="bfs", **TINY, seed=6), tenant="b"),
                    return_exceptions=True,
                )
                assert isinstance(settled[3], QueueFull)  # rejected
                faults.script_kills(1)  # the only attempt dies
                with pytest.raises(JobFailed):
                    await broker.submit(RunSpec(app="bfs", **TINY, seed=7), tenant="a")
                return broker.stats()

        stats = _run(main())
        counters, tenants = stats["counters"], stats["tenants"]
        assert {name: counters[name] for name in OUTCOMES} == {
            "hits": 1, "coalesced": 1, "completed": 3, "rejected": 1, "failed": 1,
        }
        assert counters["executed"] == 3
        assert set(tenants) == {"a", "b"}
        for block in (counters, *tenants.values()):
            assert block["submitted"] == sum(block[name] for name in OUTCOMES)
        for name in COUNTERS:
            assert counters[name] == sum(block[name] for block in tenants.values())
            assert counters[name] == sum(stats["series"][name]["values"])

    def test_follower_of_a_failed_leader_counts_failed(self):
        async def main():
            faults = FaultInjector(seed=1)
            faults.script_kills(1)
            config = BrokerConfig(workers=1, max_attempts=1, faults=faults)
            async with Broker(config) as broker:
                spec = RunSpec(app="bfs", **TINY)
                settled = await asyncio.gather(
                    broker.submit(spec, tenant="a"),
                    broker.submit(spec, tenant="b"),
                    return_exceptions=True,
                )
                return settled, broker.stats()

        settled, stats = _run(main())
        assert all(isinstance(r, JobFailed) for r in settled)
        assert stats["counters"]["failed"] == 2
        assert stats["counters"]["coalesced"] == 0
        assert stats["tenants"]["b"]["failed"] == 1


@pytest.mark.slow
def test_load_storm_1000_clients_digest_match():
    """The acceptance load test: >=1000 concurrent clients across tenants,
    every response digest-identical to the serial reference."""
    specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(5)]
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
    assert stats["counters"]["coalesced"] + stats["cache"]["hits"] >= 900
    assert stats["counters"]["executed"] <= len(specs)


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
        ref = result_digest(execute_spec(RunSpec(app="bfs", **TINY)))
        assert r1["digest"] == ref
        assert s3 == 200 and stats["schema"] == "repro.service/stats-v2"
        assert stats["counters"]["submitted"] == 2
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
            # params the run's entry point does not take: refused before
            # queueing, not a TypeError inside the job
            ("POST", "/v1/jobs",
             {"job": {"app": "bfs", "dataset": "roadNet-CA", "size": "tiny",
                      "params": {"bogus": "x"}}},
             400, "unknown param(s) 'bogus'"),
            ("POST", "/v1/jobs",
             {"job": {"app": "bfs", "dataset": "roadNet-CA", "size": "tiny",
                      "params": {"spec": 1}}},
             400, "unknown param(s) 'spec'"),
            ("POST", "/v1/jobs",
             {"job": {"app": "cc", "dataset": "roadNet-CA", "config": "BSP",
                      "size": "tiny", "params": {"source": 0}}},
             400, "unknown param(s) 'source'"),
            # the run path hands every BSP runner its sink itself
            ("POST", "/v1/jobs",
             {"job": {"app": "bfs", "dataset": "roadNet-CA", "config": "BSP",
                      "size": "tiny", "params": {"sink": 1}}},
             400, "unknown param(s) 'sink'"),
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

    @staticmethod
    def _post_with_length(value: str) -> tuple[bytes, dict]:
        """POST the 2-byte body ``{}`` under ``Content-Length: value``."""
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                writer.write(
                    f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}"
                    .encode("latin-1")
                )
                await writer.drain()
                # a server that trusts "+4" waits for two more body bytes
                raw = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return raw

        head, _, body = _run(main()).partition(b"\r\n\r\n")
        return head.split(None, 2)[1], json.loads(body)

    @pytest.mark.parametrize("value", ["abc", "-4", "+4", "1.5", "\u00b2"])
    def test_bad_content_length_is_400(self, value):
        status, doc = self._post_with_length(value)
        assert status == b"400"
        assert doc["error"] == f"bad Content-Length: {value!r}"

    @pytest.mark.parametrize(
        "value, status, fragment",
        [
            # past int()'s 4300-digit limit, still inside one header line
            ("9" * 5000, b"413", "body too large"),
            # the same width of leading zeros still reads the 2-byte body
            ("0" * 5000 + "2", b"400", "needs a 'job'"),
        ],
        ids=["5000-digits", "zero-padded"],
    )
    def test_long_content_length_is_parsed_without_int_overflow(self, value, status, fragment):
        got_status, doc = self._post_with_length(value)
        assert got_status == status
        assert fragment in doc["error"]

    @staticmethod
    def _exchange(data: bytes, *, eof: bool = False) -> tuple[bytes, dict]:
        """Send raw ``data`` (then half-close if ``eof``); the status and JSON body."""
        async def main():
            async with ServiceServer(Broker(BrokerConfig(workers=1)), port=0) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                writer.write(data)
                if eof:
                    writer.write_eof()
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                return raw

        head, _, body = _run(main()).partition(b"\r\n\r\n")
        return head.split(None, 2)[1], json.loads(body)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}",
        ],
        ids=["silent", "unfinished-head", "short-body"],
    )
    def test_stalled_request_is_408(self, monkeypatch, data):
        """A client that stops sending mid-request cannot hold the connection."""
        monkeypatch.setattr(http, "_READ_DEADLINE_S", 0.2)
        status, doc = self._exchange(data)
        assert status == b"408"
        assert doc == {"error": "request not complete within 0.2 s", "status": 408}

    def test_body_ending_early_is_400(self):
        status, doc = self._exchange(
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}", eof=True
        )
        assert status == b"400"
        assert doc["error"] == "body ended after 2 of 4 bytes"

    @pytest.mark.parametrize(
        "data",
        [
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 200_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header-field", "request-line"],
    )
    def test_overlong_line_is_431(self, data):
        status, doc = self._exchange(data)
        assert status == b"431"
        assert "over 65536 bytes" in doc["error"]

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
# Telemetry exporters: per-tenant labels + exposition-format lint, run over
# the three documents of the ``exposition_docs`` fixture (tests/conftest.py)
# ---------------------------------------------------------------------------
_SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$")
#: one label pair; the value may hold only escaped quotes/backslashes/newlines
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"')


def _label_values(line: str) -> list[str]:
    """Unescaped label values of one sample line; asserts the label set parses."""
    if "{" not in line:
        return []
    inner = line[line.index("{") + 1 : line.rindex("}")]
    pairs = list(_LABEL.finditer(inner))
    assert ",".join(m.group(0) for m in pairs) == inner, f"unescaped label: {line!r}"
    unescape = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}
    return [
        re.sub(r'\\[\\"n]', lambda m: unescape[m.group(0)], m.group(2)) for m in pairs
    ]


class TestTelemetry:
    def test_per_tenant_labelled_series(self, exposition_docs):
        text = to_prometheus(exposition_docs["service"])
        assert 'repro_service_tenant_submitted_total{tenant="alpha"} 2' in text
        assert 'repro_service_tenant_submitted_total{tenant="beta"} 1' in text
        assert 'repro_service_tenant_completed_total{tenant="alpha"} 1' in text
        assert 'repro_service_tenant_hits_total{tenant="alpha"} 1' in text
        assert 'repro_service_tenant_rejected_total{tenant="alpha"} 0' in text
        assert 'repro_service_tenant_queue_depth{tenant="alpha"} 0' in text

    def test_one_type_line_per_labelled_family(self, exposition_docs):
        """Exposition lint: a family is declared once, above all its samples."""
        for which, doc in exposition_docs.items():
            lines = to_prometheus(doc).splitlines()
            families = [ln.split()[2] for ln in lines if ln.startswith("# TYPE ")]
            assert len(families) == len(set(families)), f"{which}: duplicate # TYPE"
            declared: set[str] = set()
            for ln in lines:
                if ln.startswith("# TYPE "):
                    declared.add(ln.split()[2])
                    continue
                name = ln.split("{")[0].split()[0]
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert name in declared or base in declared, f"{which}: undeclared {name}"

    def test_exposition_lines_are_well_formed(self, exposition_docs):
        """Every sample line parses as ``name{labels} value``."""
        for which, doc in exposition_docs.items():
            for ln in to_prometheus(doc).splitlines():
                if ln.startswith("#") or not ln.strip():
                    continue
                assert _SAMPLE.match(ln), f"{which}: malformed exposition line: {ln!r}"

    def test_tenant_label_values_are_escaped(self, exposition_docs):
        """Tenant and run-identity label values round-trip through escaping."""
        for which, doc in exposition_docs.items():
            values: set[str] = set()
            for ln in to_prometheus(doc).splitlines():
                if not ln.startswith("#"):
                    values.update(_label_values(ln))
            expected = set(doc["tenants"]) if "tenants" in doc else {doc["dataset"]}
            assert expected <= values, f"{which}: {expected - values} lost"
        text = to_prometheus(exposition_docs["service"])
        assert '{tenant="we\\"ird\\\\ten\\nant"}' in text
        assert 'dataset="my\\"gr\\\\aph"' in to_prometheus(exposition_docs["quoted"])

    def test_jsonl_has_tenant_records(self, exposition_docs):
        text = to_jsonl(exposition_docs["service"])
        records = [json.loads(ln) for ln in text.splitlines()]
        tenants = {r["tenant"]: r for r in records if r["kind"] == "tenant"}
        assert tenants["alpha"]["submitted"] == 2
        assert tenants["beta"]["submitted"] == 1

    def test_no_tenants_no_tenant_lines(self, exposition_docs):
        doc = dict(exposition_docs["service"], tenants={})
        assert "tenant_" not in to_prometheus(doc)

    def test_stats_doc_carries_per_tenant_block(self, exposition_docs):
        tenants = exposition_docs["service"]["tenants"]
        assert tenants["alpha"]["completed"] == 1 and tenants["alpha"]["hits"] == 1
        assert tenants["beta"]["hits"] == 1 and tenants["beta"]["queue_depth"] == 0
