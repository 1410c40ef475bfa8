"""Fault-injection acceptance tests for the scheduler service.

The service's robustness contract, mechanically exercised through the
seeded :class:`~repro.service.faults.FaultInjector`:

* a killed worker triggers a bounded retry and the retried job is
  **digest-identical** to an undisturbed run (determinism makes retries
  exact, not approximate);
* exhausting the retry budget fails *that job* with
  :class:`~repro.service.broker.JobFailed` — the broker stays healthy;
* a straggling completion trips the per-attempt timeout and is retried;
* a poisoned cache entry is detected on read, evicted, and the job
  recomputed — corruption costs latency, never a wrong answer;
* graceful drain finishes accepted work even while faults are firing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    Broker,
    BrokerConfig,
    FaultInjector,
    JobFailed,
    RunSpec,
    WorkerKilled,
    execute_spec,
    job_key,
    result_digest,
)

TINY = dict(dataset="roadNet-CA", size="tiny")


def _run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def bfs_ref() -> str:
    return result_digest(execute_spec(RunSpec(app="bfs", **TINY)))


# ---------------------------------------------------------------------------
# The injector itself
# ---------------------------------------------------------------------------
class TestFaultInjector:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kill_prob=-0.1),
            dict(kill_prob=1.5),
            dict(delay_prob=2.0),
            dict(poison_prob=-1.0),
            dict(delay_s=-0.5),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultInjector(**kwargs)

    def test_same_seed_same_kill_schedule(self):
        def schedule(injector: FaultInjector, n: int = 200) -> list[bool]:
            out = []
            for _ in range(n):
                try:
                    injector.maybe_kill()
                    out.append(False)
                except WorkerKilled:
                    out.append(True)
            return out

        a = schedule(FaultInjector(seed=7, kill_prob=0.3))
        b = schedule(FaultInjector(seed=7, kill_prob=0.3))
        c = schedule(FaultInjector(seed=8, kill_prob=0.3))
        assert a == b, "a fixed seed must replay a fixed fault schedule"
        assert a != c
        assert 0 < sum(a) < 200

    def test_scripted_kills_consumed_first(self):
        injector = FaultInjector(seed=1, kill_prob=0.0)
        injector.script_kills(2)
        for _ in range(2):
            with pytest.raises(WorkerKilled):
                injector.maybe_kill()
        injector.maybe_kill()  # budget spent: no further kills
        assert injector.kills_injected == 2

    def test_delay_draw(self):
        injector = FaultInjector(seed=3, delay_prob=1.0, delay_s=0.25)
        assert injector.completion_delay() == 0.25
        assert injector.delays_injected == 1
        assert FaultInjector(seed=3).completion_delay() == 0.0


# ---------------------------------------------------------------------------
# Kill / retry
# ---------------------------------------------------------------------------
class TestKillRecovery:
    def test_killed_worker_retries_digest_identical(self, bfs_ref):
        async def main():
            faults = FaultInjector(seed=11)
            faults.script_kills(1)
            config = BrokerConfig(workers=1, faults=faults, retry_backoff_s=0.001)
            async with Broker(config) as broker:
                result = await broker.submit(RunSpec(app="bfs", **TINY))
                return result, broker.stats()

        result, stats = _run(main())
        assert result.attempts == 2, "first attempt died, second succeeded"
        assert result.digest == bfs_ref, "a retried job must be digest-identical"
        assert stats.retries == 1 and stats.kills_injected == 1
        assert stats.failed == 0

    def test_retry_budget_exhausted_fails_job_not_broker(self, bfs_ref):
        async def main():
            faults = FaultInjector(seed=11)
            faults.script_kills(3)  # one per allowed attempt
            config = BrokerConfig(
                workers=1, max_attempts=3, faults=faults, retry_backoff_s=0.001
            )
            async with Broker(config) as broker:
                with pytest.raises(JobFailed, match="gave up after 3 attempts"):
                    await broker.submit(RunSpec(app="bfs", **TINY))
                # the broker survives: the very next submit succeeds
                result = await broker.submit(RunSpec(app="bfs", **TINY))
                return result, broker.stats()

        result, stats = _run(main())
        assert result.digest == bfs_ref
        assert stats.failed == 1 and stats.completed == 1
        assert stats.retries == 2, "the third kill ends the job, not a retry"

    def test_probabilistic_kills_under_load_all_digests_correct(self):
        specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(3)]
        refs = {job_key(s): result_digest(execute_spec(s)) for s in specs}

        async def main():
            faults = FaultInjector(seed=42, kill_prob=0.3)
            config = BrokerConfig(
                workers=2, max_attempts=10, faults=faults, retry_backoff_s=0.001
            )
            async with Broker(config) as broker:
                jobs = [
                    broker.submit(specs[i % len(specs)], tenant=f"t{i % 2}")
                    for i in range(12)
                ]
                return await asyncio.gather(*jobs), broker.stats()

        results, stats = _run(main())
        assert all(r.digest == refs[job_key(r.spec)] for r in results)
        assert stats.kills_injected > 0, "seed 42 at p=0.3 must land some kills"
        assert stats.retries == stats.kills_injected
        assert stats.failed == 0


# ---------------------------------------------------------------------------
# Delays / timeouts
# ---------------------------------------------------------------------------
class TestTimeouts:
    def test_straggler_times_out_and_fails_after_budget(self):
        async def main():
            faults = FaultInjector(seed=5, delay_prob=1.0, delay_s=0.5)
            config = BrokerConfig(
                workers=1,
                job_timeout_s=0.05,
                max_attempts=2,
                faults=faults,
                retry_backoff_s=0.001,
            )
            async with Broker(config) as broker:
                with pytest.raises(JobFailed, match="exceeded 0.05s"):
                    await broker.submit(RunSpec(app="bfs", **TINY))
                return broker.stats()

        stats = _run(main())
        assert stats.timeouts == 2, "every attempt straggled past the timeout"
        # attempt 2 may time out while queued behind attempt 1's still-
        # sleeping executor thread, in which case it never draws a delay
        assert stats.delays_injected >= 1
        assert stats.failed == 1

    def test_straggler_recovers_when_delay_stops(self, bfs_ref):
        """Seeded so only the first attempt straggles: the retry lands."""

        async def main():
            # delay_prob=0.5 with seed 1: first draw delays, second does not.
            # delay_s only just exceeds the timeout so the stuck executor
            # thread frees up in time for the retry to run within its budget.
            faults = FaultInjector(seed=1, delay_prob=0.5, delay_s=0.2)
            config = BrokerConfig(
                workers=1,
                job_timeout_s=0.15,
                max_attempts=3,
                faults=faults,
                retry_backoff_s=0.001,
            )
            async with Broker(config) as broker:
                result = await broker.submit(RunSpec(app="bfs", **TINY))
                return result, broker.stats()

        result, stats = _run(main())
        assert result.digest == bfs_ref
        assert stats.timeouts >= 1
        assert result.attempts == stats.timeouts + 1


# ---------------------------------------------------------------------------
# Cache poisoning
# ---------------------------------------------------------------------------
class TestPoisonRecovery:
    def test_poisoned_entry_recomputed_digest_correct(self, bfs_ref):
        async def main():
            async with Broker(BrokerConfig(workers=1)) as broker:
                spec = RunSpec(app="bfs", **TINY)
                first = await broker.submit(spec)
                assert broker.cache.corrupt(job_key(spec))
                second = await broker.submit(spec)
                return first, second, broker.stats()

        first, second, stats = _run(main())
        assert first.digest == second.digest == bfs_ref
        assert not second.cached, "the poisoned entry must not be served"
        assert stats.cache.poisons_detected == 1
        assert stats.completed == 2, "detection forces a recompute"

    def test_poison_storm_never_serves_corruption(self):
        specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(3)]
        refs = {job_key(s): result_digest(execute_spec(s)) for s in specs}

        async def main():
            faults = FaultInjector(seed=9, poison_prob=1.0)
            async with Broker(BrokerConfig(workers=2, faults=faults)) as broker:
                warm = []
                for _ in range(3):  # every store poisons a random entry
                    for spec in specs:
                        warm.append(await broker.submit(spec))
                return warm, broker.stats()

        warm, stats = _run(main())
        assert all(r.digest == refs[job_key(r.spec)] for r in warm)
        assert stats.poisons_injected > 0
        detected = stats.cache.poisons_detected
        assert detected > 0, "resubmits must trip the integrity check"
        assert stats.failed == 0

    def test_poison_detection_is_not_a_failure_mode(self, bfs_ref):
        """Mixed chaos: kills, delays and poisons together, digests exact."""
        specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(4)]
        refs = {job_key(s): result_digest(execute_spec(s)) for s in specs}

        async def main():
            faults = FaultInjector(
                seed=1234, kill_prob=0.2, delay_prob=0.2, delay_s=0.005,
                poison_prob=0.5,
            )
            config = BrokerConfig(
                workers=3, max_attempts=10, faults=faults, retry_backoff_s=0.001
            )
            async with Broker(config) as broker:
                jobs = [
                    broker.submit(specs[i % len(specs)], tenant=f"t{i % 3}")
                    for i in range(20)
                ]
                return await asyncio.gather(*jobs), broker.stats()

        results, stats = _run(main())
        assert len(results) == 20
        assert all(r.digest == refs[job_key(r.spec)] for r in results)
        assert stats.failed == 0
        assert (
            stats.kills_injected + stats.delays_injected + stats.poisons_injected > 0
        ), "seed 1234 must actually inject chaos"


# ---------------------------------------------------------------------------
# Drain under fire
# ---------------------------------------------------------------------------
def test_graceful_drain_under_faults():
    specs = [RunSpec(app="bfs", **TINY, seed=s) for s in range(4)]
    refs = {job_key(s): result_digest(execute_spec(s)) for s in specs}

    async def main():
        faults = FaultInjector(seed=77, kill_prob=0.3)
        config = BrokerConfig(
            workers=2, max_attempts=10, faults=faults, retry_backoff_s=0.001
        )
        broker = Broker(config)
        await broker.start()
        jobs = [asyncio.ensure_future(broker.submit(spec)) for spec in specs]
        await asyncio.sleep(0)  # let submits enqueue
        await broker.drain()
        results = await asyncio.gather(*jobs)
        return results, broker.stats()

    results, stats = _run(main())
    assert len(results) == 4, "drain must finish every accepted job"
    assert all(r.digest == refs[job_key(r.spec)] for r in results)
    assert stats.queue_depth == 0 and stats.draining
