"""The async job broker: queues, fairness, retries, and the warm path.

:class:`Broker` is the scheduler-as-a-service core.  Clients ``await
submit(spec, tenant=...)``; the broker either answers from the
content-addressed :class:`~repro.service.cache.ResultCache` (warm path,
microseconds), coalesces onto an identical in-flight job (single
flight), or queues the job on its tenant's bounded deque.  A fixed pool
of asyncio workers drains the tenant queues **round-robin** — a tenant
submitting 1000 jobs cannot starve one submitting 2 — and executes each
job through :func:`~repro.service.jobs.execute_spec` on a thread pool.
Executions share no mutable state but the locked graph build cache
(:mod:`repro.perf.buildcache`); the fault injector and traces they
report into take their own locks.

Robustness contract (exercised by ``tests/test_service_faults.py``):

* a full tenant queue rejects synchronously with :class:`QueueFull`
  (HTTP 429) instead of buffering unboundedly;
* each execution attempt runs under a per-job timeout; a worker crash
  (:class:`~repro.service.faults.WorkerKilled`) or timeout triggers a
  bounded retry with linear backoff — determinism guarantees the retry
  computes the *same* result, so a retried job is digest-identical to
  an undisturbed one;
* :meth:`drain` stops intake, finishes every accepted job, and only
  then shuts the workers down — accepted work is never dropped.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.dash.timeseries import ServiceSeries
from repro.dash.trace import EpochWallSink, Trace, Tracer
from repro.metrics.hist import LogHistogram
from repro.obs.collector import Collector
from repro.obs.events import MultiSink
from repro.obs.export import to_chrome_trace
from repro.service.cache import DEFAULT_CACHE_BYTES, CacheStats, ResultCache
from repro.service.faults import FaultInjector, WorkerKilled
from repro.service.jobs import (
    JobResult,
    RunSpec,
    execute_spec,
    job_key,
    make_job_result,
    spec_from_dict,
    validate_spec,
)

__all__ = [
    "Broker",
    "BrokerConfig",
    "BrokerClosed",
    "QueueFull",
    "JobFailed",
    "ServiceStats",
]


class BrokerClosed(RuntimeError):
    """Submit after :meth:`Broker.drain` started (HTTP 503)."""


class QueueFull(RuntimeError):
    """The tenant's queue is at its bound (HTTP 429) — back off and retry."""


class JobFailed(RuntimeError):
    """The job kept failing after the retry budget was spent (HTTP 500)."""


@dataclass(frozen=True)
class BrokerConfig:
    """Operating knobs; defaults suit tests and the in-process benchmark."""

    workers: int = 4
    #: per-tenant queue bound; the backpressure knob (QueueFull past it)
    tenant_queue_limit: int = 64
    cache_bytes: int = DEFAULT_CACHE_BYTES
    #: per-attempt execution timeout (queue wait not included)
    job_timeout_s: float = 60.0
    #: total executions per job, first try included
    max_attempts: int = 3
    #: linear backoff: attempt k sleeps k * retry_backoff_s before retrying
    retry_backoff_s: float = 0.02
    faults: FaultInjector = field(default_factory=FaultInjector)
    #: span tracing (queue-wait / cache / attempt / engine spans per job);
    #: on by default — the overhead is a few µs per job, gated <5% by the
    #: committed BENCH_service.json throughput diff
    tracing: bool = True
    #: additionally capture the engine's obs event stream per traced job
    #: (merged Chrome export, per-epoch spans).  Off by default: attaching
    #: a sink makes the engine construct event objects on the hot path.
    trace_events: bool = False
    #: finished traces retained in memory (FIFO eviction past this)
    trace_capacity: int = 256

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.tenant_queue_limit < 1:
            raise ValueError("tenant_queue_limit must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time snapshot of broker + cache health (JSON-ready)."""

    submitted: int
    completed: int
    failed: int
    rejected: int
    coalesced: int
    retries: int
    timeouts: int
    queue_depth: int
    peak_queue_depth: int
    tenants: int
    workers: int
    draining: bool
    cache: CacheStats
    hit_latency_ms: dict
    miss_latency_ms: dict
    kills_injected: int = 0
    delays_injected: int = 0
    poisons_injected: int = 0
    #: {tenant: {submitted, completed, rejected, queue_depth}} — the
    #: per-tenant fairness/backpressure view (additive to stats-v1)
    per_tenant: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.service/stats-v1",
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "queue_depth": self.queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "tenants": self.tenants,
            "workers": self.workers,
            "draining": self.draining,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "poisons_detected": self.cache.poisons_detected,
                "entries": self.cache.entries,
                "bytes": self.cache.bytes,
                "max_bytes": self.cache.max_bytes,
                "hit_ratio": self.cache.hit_ratio,
            },
            "hit_latency_ms": self.hit_latency_ms,
            "miss_latency_ms": self.miss_latency_ms,
            "faults": {
                "kills_injected": self.kills_injected,
                "delays_injected": self.delays_injected,
                "poisons_injected": self.poisons_injected,
            },
            "per_tenant": self.per_tenant,
        }


@dataclass
class _Job:
    """One queued unit: the spec, its key, and the future its waiters share."""

    spec: RunSpec
    key: str
    tenant: str
    future: asyncio.Future  # resolves to (AppResult, attempts)
    enqueued_at: float
    enqueued_ns: int = 0
    trace: Trace | None = None


class Broker:
    """Asyncio job broker over an executor thread pool.  See module docs."""

    def __init__(self, config: BrokerConfig | None = None) -> None:
        self.config = config or BrokerConfig()
        self.cache = ResultCache(self.config.cache_bytes)
        self.faults = self.config.faults
        self._queues: dict[str, deque[_Job]] = {}
        self._rr: list[str] = []  # tenant scan order (insertion-stable)
        self._rr_next = 0
        self._inflight: dict[str, asyncio.Future] = {}
        self._inflight_jobs: dict[str, _Job] = {}
        self._cond: asyncio.Condition | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._workers: list[asyncio.Task] = []
        self._draining = False
        self._started = False
        # counters (single-threaded: only touched on the event loop)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._coalesced = 0
        self._retries = 0
        self._timeouts = 0
        self._peak_depth = 0
        self._busy = 0
        #: per-tenant counters for the {tenant="..."} telemetry labels
        self._tenant_counts: dict[str, dict[str, int]] = {}
        #: service latency in ms; 1 µs resolution floor
        self.hit_latency = LogHistogram(min_value=1e-3)
        self.miss_latency = LogHistogram(min_value=1e-3)
        #: wall-clock dashboard series (always on; a few list ops per job)
        self.series = ServiceSeries()
        #: span tracer, or None when the config disables tracing
        self.tracer: Tracer | None = (
            Tracer(
                capacity=self.config.trace_capacity,
                capture_events=self.config.trace_events,
            )
            if self.config.tracing
            else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker tasks (idempotent)."""
        if self._started:
            return
        self._cond = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-svc"
        )
        self._workers = [
            asyncio.ensure_future(self._worker_loop(i))
            for i in range(self.config.workers)
        ]
        self._started = True

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish accepted work, stop."""
        if not self._started:
            return
        self._draining = True
        assert self._cond is not None
        async with self._cond:
            self._cond.notify_all()
        await asyncio.gather(*self._workers, return_exceptions=True)
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._started = False

    async def __aenter__(self) -> "Broker":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    async def submit(self, spec: RunSpec | dict, *, tenant: str = "default") -> JobResult:
        """Run (or fetch) one job; resolves when its result is ready.

        Raises :class:`~repro.service.jobs.JobSpecError` on a bad spec,
        :class:`QueueFull` when the tenant is over its bound,
        :class:`BrokerClosed` during drain, :class:`JobFailed` after the
        retry budget.  Every path returns a result whose ``digest``
        equals a direct serial :func:`~repro.service.jobs.execute_spec`.
        """
        if not self._started:
            raise BrokerClosed("broker not started; use 'async with Broker()' or start()")
        if self._draining:
            raise BrokerClosed("broker is draining; not accepting new jobs")
        if not isinstance(spec, RunSpec):
            spec = spec_from_dict(spec)
        validate_spec(spec)
        self._submitted += 1
        self._bump(tenant, "submitted")
        t0_ns = time.perf_counter_ns()
        t0 = t0_ns / 1e9  # perf_counter() and perf_counter_ns() share a clock
        trace: Trace | None = None
        if self.tracer is not None:
            trace = self.tracer.start(job=spec.describe(), key="", tenant=tenant)
            trace.root.start_ns = t0_ns  # root covers key derivation too
        key_span = trace.start_span("job.key") if trace is not None else None
        key = job_key(spec)
        if trace is not None:
            trace.end_span(key_span)
            trace.key = key[:16]
        self.series.mark("submitted")
        self.series.mark_tenant(tenant, "submitted")

        lookup = trace.start_span("cache.lookup") if trace is not None else None
        cached = self.cache.get(key)
        if lookup is not None:
            trace.end_span(lookup, hit=cached is not None)
        if cached is not None:
            wall_ms = (time.perf_counter() - t0) * 1e3
            self.hit_latency.record(wall_ms)
            self.series.mark("hits")
            self.series.mark_tenant(tenant, "completed")
            self._bump(tenant, "completed")
            return make_job_result(
                spec, cached, cached=True, attempts=0, wall_ms=wall_ms, tenant=tenant,
                trace_id=self._finish_trace(trace, "hit"),
            )

        inflight = self._inflight.get(key)
        if inflight is not None:
            # single flight: identical concurrent jobs share one execution
            self._coalesced += 1
            self.series.mark("coalesced")
            leader = self._inflight_jobs.get(key)
            wait_span = trace.start_span("coalesce.wait") if trace is not None else None
            result, attempts = await asyncio.shield(inflight)
            if wait_span is not None:
                trace.end_span(wait_span)
            wall_ms = (time.perf_counter() - t0) * 1e3
            self.hit_latency.record(wall_ms)
            self.series.mark_tenant(tenant, "completed")
            self._bump(tenant, "completed")
            if trace is not None and leader is not None and leader.trace is not None:
                # the share: this trace references the leader's engine span
                engine = leader.trace.find_span("engine")
                trace.root.attrs["shared_trace_id"] = leader.trace.trace_id
                if engine is not None:
                    trace.root.attrs["engine_span_id"] = engine.span_id
            return make_job_result(
                spec, result, cached=True, attempts=attempts, wall_ms=wall_ms,
                tenant=tenant, trace_id=self._finish_trace(trace, "coalesced"),
            )

        queue = self._queues.setdefault(tenant, deque())
        if tenant not in self._rr:
            self._rr.append(tenant)
        if len(queue) >= self.config.tenant_queue_limit:
            self._rejected += 1
            self._bump(tenant, "rejected")
            self.series.mark("rejected")
            self._finish_trace(trace, "rejected", error="tenant queue full")
            raise QueueFull(
                f"tenant {tenant!r} queue is full "
                f"({self.config.tenant_queue_limit} jobs); retry later"
            )
        job = _Job(
            spec=spec,
            key=key,
            tenant=tenant,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=t0,
            enqueued_ns=time.perf_counter_ns(),
            trace=trace,
        )
        queue.append(job)
        self._inflight[key] = job.future
        self._inflight_jobs[key] = job
        depth = sum(len(q) for q in self._queues.values())
        if depth > self._peak_depth:
            self._peak_depth = depth
        self.series.gauge("queue_depth", depth)
        assert self._cond is not None
        async with self._cond:
            self._cond.notify()
        try:
            result, attempts = await asyncio.shield(job.future)
        except BaseException:
            self._finish_trace(trace, "failed")
            raise
        finally:
            if self._inflight.get(key) is job.future:
                del self._inflight[key]
            if self._inflight_jobs.get(key) is job:
                del self._inflight_jobs[key]
        wall_ms = (time.perf_counter() - t0) * 1e3
        self.miss_latency.record(wall_ms)
        self.series.mark("completed")
        self.series.mark_tenant(tenant, "completed")
        self._bump(tenant, "completed")
        return make_job_result(
            spec, result, cached=False, attempts=attempts, wall_ms=wall_ms, tenant=tenant,
            trace_id=self._finish_trace(trace, "miss", attempts=attempts),
        )

    # ------------------------------------------------------------------
    # Tracing / accounting helpers
    # ------------------------------------------------------------------
    def _bump(self, tenant: str, name: str) -> None:
        counts = self._tenant_counts.get(tenant)
        if counts is None:
            counts = self._tenant_counts[tenant] = {
                "submitted": 0, "completed": 0, "rejected": 0
            }
        counts[name] += 1

    def _finish_trace(self, trace: Trace | None, outcome: str, **attrs) -> str | None:
        """Close and retain ``trace``; returns its id (None when untraced)."""
        if trace is None:
            return None
        assert self.tracer is not None
        self.tracer.finish(trace, outcome=outcome, **attrs)
        return trace.trace_id

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _next_job(self) -> _Job | None:
        """Round-robin dequeue across tenants; ``None`` means shut down."""
        assert self._cond is not None
        async with self._cond:
            while True:
                if self._rr:
                    n = len(self._rr)
                    for step in range(n):
                        tenant = self._rr[(self._rr_next + step) % n]
                        queue = self._queues[tenant]
                        if queue:
                            self._rr_next = (self._rr_next + step + 1) % n
                            return queue.popleft()
                if self._draining:
                    return None
                await self._cond.wait()

    async def _worker_loop(self, index: int) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                return
            await self._execute(job, index)

    def _attempt(self, spec: RunSpec, trace: Trace | None = None, attempt_span=None):
        """One execution attempt, run on an executor thread.

        When tracing, the engine span is measured *here* — tight around
        :func:`~repro.service.jobs.execute_spec`, on the thread that ran it — and lands
        in the trace through its append lock.  With event capture on,
        the run also gets a per-job :class:`Collector` (tagged with the
        trace id) plus an :class:`EpochWallSink` whose epoch marks become
        child spans of the engine span for dynamic jobs.
        """
        self.faults.maybe_kill()
        sink = collector = epoch_sink = None
        if trace is not None and self.config.trace_events:
            collector = Collector(trace_id=trace.trace_id)
            epoch_sink = EpochWallSink()
            sink = MultiSink(collector, epoch_sink)
        e0 = time.perf_counter_ns()
        result = execute_spec(spec, sink=sink)
        e1 = time.perf_counter_ns()
        if trace is not None:
            parent_id = attempt_span.span_id if attempt_span is not None else "root"
            attrs = dict(attempt_span.attrs) if attempt_span is not None else {}
            engine = trace.add_span(
                "engine", start_ns=e0, end_ns=e1, parent_id=parent_id, attrs=attrs
            )
            if collector is not None:
                trace.engine_doc = to_chrome_trace(
                    collector, process_name=f"engine {spec.app}"
                )
                for name, s0, s1 in epoch_sink.epoch_spans():
                    trace.add_span(name, start_ns=s0, end_ns=s1, parent_id=engine.span_id)
        delay = self.faults.completion_delay()
        if delay:
            time.sleep(delay)
        return result

    async def _execute(self, job: _Job, worker: int = 0) -> None:
        """Drive one job through the attempt/retry loop and settle its future."""
        loop = asyncio.get_running_loop()
        trace = job.trace
        if trace is not None:
            trace.add_span(
                "queue.wait",
                start_ns=job.enqueued_ns,
                end_ns=time.perf_counter_ns(),
                attrs={"worker": worker},
            )
        self._busy += 1
        self.series.gauge("busy_workers", self._busy)
        self.series.gauge("queue_depth", self.queue_depth())
        try:
            await self._run_attempts(job, worker, loop, trace)
        finally:
            self._busy -= 1
            self.series.gauge("busy_workers", self._busy)

    async def _run_attempts(self, job: _Job, worker: int, loop, trace: Trace | None) -> None:
        last_error: BaseException | None = None
        for attempt in range(1, self.config.max_attempts + 1):
            # submit() already counted this job's lookup, so re-check
            # without counting a second miss
            cached = self.cache.peek(job.key)
            if cached is not None:
                # a sibling worker (or earlier drain pass) beat us to it
                if not job.future.done():
                    job.future.set_result((cached, 0))
                return
            attempt_span = None
            if trace is not None:
                attempt_span = trace.start_span("attempt")
                attempt_span.attrs.update(attempt=attempt, worker=worker)
            try:
                result = await asyncio.wait_for(
                    loop.run_in_executor(
                        self._executor, self._attempt, job.spec, trace, attempt_span
                    ),
                    timeout=self.config.job_timeout_s,
                )
            except WorkerKilled as exc:
                last_error = exc
                if trace is not None:
                    trace.end_span(
                        attempt_span, status="error", error=f"WorkerKilled: {exc}"
                    )
                if attempt < self.config.max_attempts:
                    # retries counts re-executions actually scheduled, so a
                    # kill on the final attempt is a failure, not a retry
                    self._retries += 1
                    await asyncio.sleep(self.config.retry_backoff_s * attempt)
                continue
            except asyncio.TimeoutError as exc:
                # NOTE: the executor thread keeps running (Python threads
                # cannot be killed); the broker just stops waiting for it.
                last_error = TimeoutError(
                    f"attempt {attempt} exceeded {self.config.job_timeout_s}s"
                )
                last_error.__cause__ = exc
                self._timeouts += 1
                if trace is not None:
                    trace.end_span(attempt_span, status="error", error=str(last_error))
                if attempt < self.config.max_attempts:
                    self._retries += 1
                    await asyncio.sleep(self.config.retry_backoff_s * attempt)
                continue
            except Exception as exc:
                # deterministic failure: retrying would fail identically
                self._failed += 1
                self.series.mark("failed")
                if trace is not None:
                    trace.end_span(
                        attempt_span, status="error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                if not job.future.done():
                    job.future.set_exception(
                        JobFailed(f"{job.spec.describe()}: {type(exc).__name__}: {exc}")
                    )
                return
            if trace is not None:
                trace.end_span(attempt_span)
            self.cache.put(job.key, result)
            self.faults.maybe_poison(self.cache)
            self._completed += 1
            if not job.future.done():
                job.future.set_result((result, attempt))
            return
        self._failed += 1
        self.series.mark("failed")
        if not job.future.done():
            job.future.set_exception(
                JobFailed(
                    f"{job.spec.describe()}: gave up after "
                    f"{self.config.max_attempts} attempts: {last_error}"
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def timeseries(self) -> dict:
        """The ``/v1/timeseries`` document: dashboard series + stats."""
        doc = self.series.to_dict()
        doc["tracing"] = self.tracer is not None
        doc["stats"] = self.stats().to_dict()
        return doc

    def traces_doc(self, *, limit: int = 100) -> dict:
        """The ``/v1/traces`` document: recent trace summaries."""
        return {
            "schema": "repro.dash/traces-v1",
            "tracing": self.tracer is not None,
            "traces": self.tracer.summaries(limit=limit) if self.tracer else [],
        }

    def trace_doc(self, trace_id: str) -> dict | None:
        """One full trace document, or None (unknown id / tracing off)."""
        if self.tracer is None:
            return None
        trace = self.tracer.get(trace_id)
        return trace.to_dict() if trace is not None else None

    def stats(self) -> ServiceStats:
        return ServiceStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            rejected=self._rejected,
            coalesced=self._coalesced,
            retries=self._retries,
            timeouts=self._timeouts,
            queue_depth=self.queue_depth(),
            peak_queue_depth=self._peak_depth,
            tenants=len(self._queues),
            workers=self.config.workers,
            draining=self._draining,
            cache=self.cache.stats(),
            hit_latency_ms=self.hit_latency.to_dict(),
            miss_latency_ms=self.miss_latency.to_dict(),
            kills_injected=self.faults.kills_injected,
            delays_injected=self.faults.delays_injected,
            poisons_injected=self.faults.poisons_injected,
            per_tenant={
                tenant: {
                    **counts,
                    "queue_depth": len(self._queues.get(tenant, ())),
                }
                for tenant, counts in sorted(self._tenant_counts.items())
            },
        )
