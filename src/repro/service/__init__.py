"""Scheduler-as-a-service: async job broker with content-addressed caching.

The service layer turns the deterministic experiment harness into a
long-running multi-tenant facility:

* :mod:`repro.service.jobs` — the run identity
  (:class:`~repro.service.jobs.RunSpec`), its content address
  (:func:`~repro.service.jobs.job_key`), result digests, and the single
  execution path every entry point shares;
* :mod:`repro.service.cache` — LRU/byte-budgeted, integrity-checked
  :class:`~repro.service.cache.ResultCache`;
* :mod:`repro.service.broker` — the asyncio
  :class:`~repro.service.broker.Broker`: fair round-robin tenant queues
  with backpressure, an executor thread pool, single-flight coalescing,
  timeouts/retries, graceful drain;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the JSON
  HTTP boundary (``repro serve`` / ``repro submit``);
* :mod:`repro.service.faults` — seeded
  :class:`~repro.service.faults.FaultInjector` proving the recovery
  paths;
* :mod:`repro.service.bench` — the committed ``BENCH_service.json``
  load scenario;
* :mod:`repro.service.telemetry` — Prometheus/JSONL exporters for the
  broker's operational stats.

See ``docs/service.md`` for the API schema and cache-key anatomy.
"""

from repro.service.broker import (
    Broker,
    BrokerClosed,
    BrokerConfig,
    JobFailed,
    QueueFull,
    ServiceStats,
)
from repro.service.cache import DEFAULT_CACHE_BYTES, CacheStats, ResultCache
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.faults import FaultInjector, WorkerKilled
from repro.service.http import ServiceServer, serve
from repro.service.jobs import (
    JobResult,
    JobSpecError,
    RunSpec,
    execute_spec,
    job_key,
    result_digest,
    spec_from_dict,
)

__all__ = [
    "Broker",
    "BrokerClosed",
    "BrokerConfig",
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "FaultInjector",
    "JobFailed",
    "JobResult",
    "JobSpecError",
    "QueueFull",
    "ResultCache",
    "RunSpec",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceStats",
    "ServiceUnavailable",
    "WorkerKilled",
    "execute_spec",
    "job_key",
    "result_digest",
    "serve",
    "spec_from_dict",
]
