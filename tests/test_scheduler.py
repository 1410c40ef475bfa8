"""Unit tests for the Atos scheduler (persistent + discrete strategies)."""

import numpy as np
import pytest

from repro.core.config import AtosConfig, KernelStrategy
from repro.core.kernel import CompletionResult
from repro.core.engine import SchedulerError
from repro.core.policy import run_policy
from repro.sim.spec import GpuSpec

EMPTY = np.empty(0, dtype=np.int64)
SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.5)

PERSIST = AtosConfig(strategy=KernelStrategy.PERSISTENT, worker_threads=32, fetch_size=1)
DISCRETE = AtosConfig(strategy=KernelStrategy.DISCRETE, worker_threads=32, fetch_size=1)


class CountdownKernel:
    """Each item v > 0 pushes v - 1; measures chain-following."""

    def __init__(self, start: int, width: int = 1):
        self.start = start
        self.width = width
        self.processed: list[int] = []

    def initial_items(self):
        return np.full(self.width, self.start, dtype=np.int64)

    def work_estimate(self, items):
        return int(items.size) * 2, 2

    def on_read(self, items, t):
        return items.copy()

    def on_complete(self, items, payload, t):
        self.processed.extend(payload.tolist())
        nxt = payload[payload > 0] - 1
        return CompletionResult(new_items=nxt, items_retired=int(items.size), work_units=float(items.size))

    def final_check(self, t):
        return EMPTY


class FanoutKernel:
    """Item v spawns two copies of v - 1 down to zero (binary tree)."""

    def __init__(self, depth: int):
        self.depth = depth
        self.count = 0

    def initial_items(self):
        return np.array([self.depth], dtype=np.int64)

    def work_estimate(self, items):
        return int(items.size), 1

    def on_read(self, items, t):
        return None

    def on_complete(self, items, payload, t):
        self.count += int(items.size)
        kids = []
        for v in items:
            if v > 0:
                kids.extend([v - 1, v - 1])
        return CompletionResult(
            new_items=np.asarray(kids, dtype=np.int64),
            items_retired=int(items.size),
            work_units=float(items.size),
        )

    def final_check(self, t):
        return EMPTY


class TimestampKernel:
    """Records read/complete times to verify ordering semantics."""

    def __init__(self, n: int):
        self.n = n
        self.reads: list[float] = []
        self.completes: list[float] = []

    def initial_items(self):
        return np.arange(self.n, dtype=np.int64)

    def work_estimate(self, items):
        return int(items.size) * 4, 4

    def on_read(self, items, t):
        self.reads.append(t)
        return t

    def on_complete(self, items, payload, t):
        self.completes.append(t)
        assert t >= payload, "complete before read"
        return CompletionResult(items_retired=int(items.size))

    def final_check(self, t):
        return EMPTY


class ResumeKernel:
    """final_check returns one extra batch exactly once."""

    def __init__(self):
        self.resumed = False

    def initial_items(self):
        return np.array([1], dtype=np.int64)

    def work_estimate(self, items):
        return 1, 1

    def on_read(self, items, t):
        return None

    def on_complete(self, items, payload, t):
        return CompletionResult(items_retired=int(items.size))

    def final_check(self, t):
        if self.resumed:
            return EMPTY
        self.resumed = True
        return np.array([2, 3], dtype=np.int64)


class RunawayKernel:
    """Every item pushes two more forever (for the max_tasks guard)."""

    def initial_items(self):
        return np.array([0], dtype=np.int64)

    def work_estimate(self, items):
        return 1, 1

    def on_read(self, items, t):
        return None

    def on_complete(self, items, payload, t):
        return CompletionResult(
            new_items=np.zeros(2, dtype=np.int64), items_retired=int(items.size)
        )

    def final_check(self, t):
        return EMPTY


class TestPersistent:
    def test_chain_runs_to_completion(self):
        k = CountdownKernel(10)
        res = run_policy(k, PERSIST, spec=SPEC)
        assert sorted(k.processed) == list(range(11))
        assert res.items_retired == 11
        assert res.kernel_launches == 1

    def test_elapsed_includes_launch(self):
        k = CountdownKernel(0)
        res = run_policy(k, PERSIST, spec=SPEC)
        assert res.elapsed_ns >= SPEC.kernel_launch_ns

    def test_deterministic(self):
        r1 = run_policy(FanoutKernel(6), PERSIST, spec=SPEC)
        r2 = run_policy(FanoutKernel(6), PERSIST, spec=SPEC)
        assert r1.elapsed_ns == r2.elapsed_ns
        assert r1.total_tasks == r2.total_tasks

    def test_fanout_processes_full_tree(self):
        k = FanoutKernel(8)
        res = run_policy(k, PERSIST, spec=SPEC)
        assert k.count == 2 ** 9 - 1
        assert res.items_retired == 2 ** 9 - 1

    def test_parallelism_beats_chain(self):
        """511 tree items finish faster than a 511-item serial chain."""
        tree = run_policy(FanoutKernel(8), PERSIST, spec=SPEC)
        chain = run_policy(CountdownKernel(510), PERSIST, spec=SPEC)
        assert tree.items_retired == chain.items_retired == 511
        assert tree.elapsed_ns < chain.elapsed_ns

    def test_reads_precede_completions(self):
        k = TimestampKernel(50)
        run_policy(k, PERSIST, spec=SPEC)
        assert len(k.reads) == len(k.completes) == 50

    def test_final_check_resumes(self):
        k = ResumeKernel()
        res = run_policy(k, PERSIST, spec=SPEC)
        assert res.items_retired == 3
        assert k.resumed

    def test_max_tasks_guard(self):
        with pytest.raises(SchedulerError, match="max_tasks"):
            run_policy(RunawayKernel(), PERSIST, spec=SPEC, max_tasks=100)

    def test_fetch_size_batches(self):
        k = TimestampKernel(64)
        cfg = PERSIST.with_overrides(fetch_size=16)
        res = run_policy(k, cfg, spec=SPEC)
        assert res.items_retired == 64
        assert res.total_tasks <= 64 // 16 + 4

    def test_worker_slots_from_occupancy(self):
        res = run_policy(CountdownKernel(1), PERSIST, spec=SPEC)
        assert res.worker_slots > 0
        assert 0 < res.occupancy_fraction <= 1.0

    def test_multi_queue(self):
        cfg = PERSIST.with_overrides(num_queues=4)
        k = FanoutKernel(7)
        res = run_policy(k, cfg, spec=SPEC)
        assert k.count == 2 ** 8 - 1
        assert res.items_retired == 2 ** 8 - 1

    def test_queue_capacity_overflow_propagates(self):
        cfg = PERSIST.with_overrides(queue_capacity=2)
        with pytest.raises(OverflowError):
            run_policy(FanoutKernel(10), cfg, spec=SPEC)

    def test_trace_records_all_items(self):
        k = FanoutKernel(5)
        res = run_policy(k, PERSIST, spec=SPEC)
        assert res.trace.total_items == res.items_retired

    def test_dispatch_via_run(self):
        res = run_policy(CountdownKernel(3), PERSIST, spec=SPEC)
        assert res.generations == 1


class TestDiscrete:
    def test_generation_count_matches_chain_depth(self):
        k = CountdownKernel(7)
        res = run_policy(k, DISCRETE, spec=SPEC)
        assert res.generations == 8
        assert res.kernel_launches == 8

    def test_pushes_invisible_within_generation(self):
        """A countdown chain cannot finish in one generation."""
        res = run_policy(CountdownKernel(5), DISCRETE, spec=SPEC)
        assert res.generations == 6

    def test_barrier_cost_accumulates(self):
        shallow = run_policy(CountdownKernel(1), DISCRETE, spec=SPEC)
        deep = run_policy(CountdownKernel(20), DISCRETE, spec=SPEC)
        assert deep.elapsed_ns > shallow.elapsed_ns + 15 * (
            SPEC.kernel_launch_ns + SPEC.barrier_ns
        )

    def test_deterministic(self):
        r1 = run_policy(FanoutKernel(6), DISCRETE, spec=SPEC)
        r2 = run_policy(FanoutKernel(6), DISCRETE, spec=SPEC)
        assert r1.elapsed_ns == r2.elapsed_ns

    def test_full_tree_processed(self):
        k = FanoutKernel(7)
        run_policy(k, DISCRETE, spec=SPEC)
        assert k.count == 2 ** 8 - 1

    def test_final_check_resumes(self):
        k = ResumeKernel()
        res = run_policy(k, DISCRETE, spec=SPEC)
        assert res.items_retired == 3

    def test_max_tasks_guard(self):
        with pytest.raises(SchedulerError):
            run_policy(RunawayKernel(), DISCRETE, spec=SPEC, max_tasks=100)

    def test_persistent_cheaper_on_deep_chains(self):
        """The Section 6.5 effect: many tiny generations pay launch costs."""
        chain = 200
        p = run_policy(CountdownKernel(chain), PERSIST, spec=SPEC)
        d = run_policy(CountdownKernel(chain), DISCRETE, spec=SPEC)
        assert p.elapsed_ns < d.elapsed_ns

    def test_dispatch_via_run(self):
        res = run_policy(CountdownKernel(3), DISCRETE, spec=SPEC)
        assert res.generations == 4

    def test_empty_initial_items_ends_immediately(self):
        class EmptyKernel(CountdownKernel):
            def initial_items(self):
                return EMPTY

        res = run_policy(EmptyKernel(0), DISCRETE, spec=SPEC)
        assert res.total_tasks == 0

    def test_queue_stats_survive_generation_rollover(self):
        """Regression: discrete runs retire one queue per generation; their
        stats must accumulate instead of reporting the hard-coded zeros."""
        res = run_policy(CountdownKernel(10, width=3), DISCRETE, spec=SPEC)
        # every generation's workers run the queue dry before the barrier
        assert res.queue.empty_pops > 0
        assert res.queue.pops > 0
        assert res.queue.pushes > 0
        # every task the run counted came through some generation's queue
        assert res.queue.pops == res.total_tasks

    def test_persistent_queue_counters_populated(self):
        res = run_policy(CountdownKernel(10, width=3), PERSIST, spec=SPEC)
        assert res.queue.pops == res.total_tasks
        assert res.queue.pushes > 0
        assert res.queue.empty_pops > 0
