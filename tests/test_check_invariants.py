"""InvariantMonitor: clean on real runs, and each violation class detectable.

Positive half: a live monitor attached to every engine policy (shared and
stealing worklists, single- and multi-generation) sees zero violations and
reconciles exactly against the run's counter block.  Negative half:
fabricated event streams trigger each rule — ``queue-conservation``,
``queue-clock``, ``worker-clock``, ``slot-occupancy``, ``task-lifecycle``,
``policy-switch``, ``generation-bracket``, ``counter-reconcile``,
``device-conservation`` — proving the monitor can actually catch the bug
class it claims to guard.

Also here: the RunResult counter-consistency suite (guards the PR 1
queue-stats fixes) and the MpmcQueue conservation equation
(``items_pushed == items_popped + items_drained + size``).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.common import run_app
from repro.check.invariants import (
    InvariantMonitor,
    InvariantViolation,
    verify_queue_conservation,
)
from repro.core.config import CONFIGS
from repro.obs import Collector, MultiSink
from repro.obs.events import (
    EmptyPop,
    GenerationEnd,
    GenerationStart,
    PolicySwitch,
    QueuePop,
    QueuePush,
    TaskComplete,
    TaskPop,
    TaskRead,
)
from repro.queueing.broker import QueueBroker
from repro.queueing.mpmc import MpmcQueue
from repro.queueing.priority import BucketedWorklist
from repro.queueing.stealing import StealingWorklist
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


def _rules(monitor):
    return {v.rule for v in monitor.violations}


# ---------------------------------------------------------------------------
# Positive: live runs are invariant-clean and reconcile
# ---------------------------------------------------------------------------

class TestLiveRuns:
    @pytest.mark.parametrize(
        "config",
        ["persist-warp", "persist-CTA", "discrete-CTA", "discrete-warp",
         "hybrid-CTA", "hybrid-warp"],
    )
    @pytest.mark.parametrize("app", ["bfs", "pagerank", "coloring"])
    def test_clean_and_reconciled(self, app, config, small_rmat):
        monitor = InvariantMonitor()
        res = run_app(app, small_rmat, CONFIGS[config], spec=SPEC, sink=monitor)
        monitor.reconcile(res)
        assert monitor.ok, [str(v) for v in monitor.violations]
        monitor.assert_clean()  # must not raise

    def test_stealing_worklist_clean(self, small_rmat):
        cfg = CONFIGS["persist-warp"].with_overrides(
            worklist="stealing", num_queues=4, name="steal-test"
        )
        monitor = InvariantMonitor()
        res = run_app("bfs", small_rmat, cfg, spec=SPEC, sink=monitor)
        monitor.reconcile(res)
        assert monitor.ok, [str(v) for v in monitor.violations]
        assert monitor.counts["steals"] == res.extra["steals"]

    def test_worker_slots_enforced_from_result(self, small_rmat):
        monitor = InvariantMonitor()
        res = run_app("bfs", small_rmat, CONFIGS["persist-warp"], spec=SPEC, sink=monitor)
        monitor.reconcile(res)
        assert monitor.max_in_flight <= res.extra["worker_slots"]

    def test_forwarding_preserves_stream(self, small_rmat):
        # monitoring must not change what a downstream collector sees
        direct = Collector()
        run_app("bfs", small_rmat, CONFIGS["discrete-CTA"], spec=SPEC, sink=direct)
        chained = Collector()
        monitor = InvariantMonitor()
        run_app(
            "bfs", small_rmat, CONFIGS["discrete-CTA"], spec=SPEC,
            sink=MultiSink(monitor, chained),
        )
        assert direct.digest() == chained.digest()

    def test_reconcile_accepts_run_result(self):
        # engine-level: run_policy returns a RunResult (no extra block)
        from repro.core.policy import run_policy
        from repro.apps.bfs import SpeculativeBfsKernel
        from repro.graph.generators import grid_mesh

        g = grid_mesh(5, 4)
        monitor = InvariantMonitor()
        res = run_policy(
            SpeculativeBfsKernel(g, 0), CONFIGS["discrete-CTA"], spec=SPEC, sink=monitor
        )
        monitor.reconcile(res)
        assert monitor.ok, [str(v) for v in monitor.violations]


# ---------------------------------------------------------------------------
# Negative: every violation class is detectable
# ---------------------------------------------------------------------------

class TestQueueConservationRule:
    def test_push_depth_mismatch(self):
        m = InvariantMonitor()
        m.emit(QueuePush(t=1.0, queue="q", items=4, depth=5, wait_ns=0.0))
        assert _rules(m) == {"queue-conservation"}

    def test_pop_depth_mismatch(self):
        m = InvariantMonitor()
        m.emit(QueuePush(t=1.0, queue="q", items=4, depth=4, wait_ns=0.0))
        m.emit(QueuePop(t=2.0, queue="q", items=2, depth=3, wait_ns=0.0))
        assert _rules(m) == {"queue-conservation"}

    def test_pop_below_zero(self):
        m = InvariantMonitor()
        m.emit(QueuePop(t=1.0, queue="q", items=3, depth=-3, wait_ns=0.0))
        assert "queue-conservation" in _rules(m)

    def test_empty_pop_on_nonempty_queue(self):
        m = InvariantMonitor()
        m.emit(QueuePush(t=1.0, queue="q", items=2, depth=2, wait_ns=0.0))
        m.emit(EmptyPop(t=2.0, queue="q", wait_ns=0.0))
        assert "queue-conservation" in _rules(m)

    def test_queues_tracked_independently(self):
        m = InvariantMonitor()
        m.emit(QueuePush(t=1.0, queue="a", items=2, depth=2, wait_ns=0.0))
        m.emit(QueuePush(t=1.0, queue="b", items=3, depth=3, wait_ns=0.0))
        m.emit(QueuePop(t=2.0, queue="a", items=2, depth=0, wait_ns=0.0))
        assert m.ok


class TestClockRules:
    def test_push_clock_regression(self):
        m = InvariantMonitor()
        m.emit(QueuePush(t=5.0, queue="q", items=1, depth=1, wait_ns=0.0))
        m.emit(QueuePush(t=4.0, queue="q", items=1, depth=2, wait_ns=0.0))
        assert "queue-clock" in _rules(m)

    def test_pop_clock_regression(self):
        m = InvariantMonitor()
        m.emit(QueuePush(t=1.0, queue="q", items=5, depth=5, wait_ns=0.0))
        m.emit(QueuePop(t=9.0, queue="q", items=1, depth=4, wait_ns=0.0))
        m.emit(QueuePop(t=8.0, queue="q", items=1, depth=3, wait_ns=0.0))
        assert "queue-clock" in _rules(m)

    def test_push_and_pop_atomics_independent(self):
        # push and pop serialize on separate atomics: a pop completing
        # before an earlier-emitted push's time is legal
        m = InvariantMonitor()
        m.emit(QueuePush(t=1.0, queue="q", items=5, depth=5, wait_ns=0.0))
        m.emit(QueuePush(t=9.0, queue="q", items=1, depth=6, wait_ns=0.0))
        m.emit(QueuePop(t=3.0, queue="q", items=1, depth=5, wait_ns=0.0))
        assert m.ok

    def test_worker_clock_regression(self):
        m = InvariantMonitor()
        m.emit(TaskPop(t=10.0, worker=0, items=1))
        m.emit(TaskRead(t=9.0, worker=0, items=1))
        assert "worker-clock" in _rules(m)


class TestSlotOccupancyRule:
    def test_double_pop_same_worker(self):
        m = InvariantMonitor()
        m.emit(TaskPop(t=1.0, worker=3, items=1))
        m.emit(TaskPop(t=2.0, worker=3, items=1))
        assert "slot-occupancy" in _rules(m)

    def test_in_flight_exceeds_slots(self):
        m = InvariantMonitor(worker_slots=2)
        m.emit(TaskPop(t=1.0, worker=0, items=1))
        m.emit(TaskPop(t=2.0, worker=1, items=1))
        m.emit(TaskPop(t=3.0, worker=2, items=1))
        assert "slot-occupancy" in _rules(m)

    def test_worker_outside_slot_range(self):
        m = InvariantMonitor(worker_slots=4)
        m.emit(TaskPop(t=1.0, worker=7, items=1))
        assert "slot-occupancy" in _rules(m)

    def test_full_occupancy_is_legal(self):
        m = InvariantMonitor(worker_slots=2)
        m.emit(TaskPop(t=1.0, worker=0, items=1))
        m.emit(TaskPop(t=1.5, worker=1, items=1))
        m.emit(TaskRead(t=2.0, worker=0, items=1))
        m.emit(TaskComplete(t=3.0, worker=0, items=1, retired=1, pushed=0, work=1.0))
        m.emit(TaskPop(t=4.0, worker=0, items=1))
        assert m.ok
        assert m.max_in_flight == 2


class TestTaskLifecycleRule:
    def test_read_without_pop(self):
        m = InvariantMonitor()
        m.emit(TaskRead(t=1.0, worker=0, items=1))
        assert "task-lifecycle" in _rules(m)

    def test_complete_on_idle_worker(self):
        m = InvariantMonitor()
        m.emit(TaskComplete(t=1.0, worker=0, items=1, retired=1, pushed=0, work=1.0))
        assert "task-lifecycle" in _rules(m)

    def test_double_read(self):
        m = InvariantMonitor()
        m.emit(TaskPop(t=1.0, worker=0, items=1))
        m.emit(TaskRead(t=2.0, worker=0, items=1))
        m.emit(TaskRead(t=3.0, worker=0, items=1))
        assert "task-lifecycle" in _rules(m)


class TestPolicySwitchRule:
    def test_first_switch_must_be_persistent(self):
        m = InvariantMonitor()
        m.emit(PolicySwitch(t=1.0, generation=1, items=5, policy="discrete"))
        assert "policy-switch" in _rules(m)

    def test_switches_must_alternate(self):
        m = InvariantMonitor()
        m.emit(PolicySwitch(t=1.0, generation=1, items=5, policy="persistent"))
        m.emit(PolicySwitch(t=2.0, generation=2, items=50, policy="persistent"))
        assert "policy-switch" in _rules(m)

    def test_switch_clock_regression(self):
        m = InvariantMonitor()
        m.emit(PolicySwitch(t=5.0, generation=1, items=5, policy="persistent"))
        m.emit(PolicySwitch(t=4.0, generation=2, items=50, policy="discrete"))
        assert "policy-switch" in _rules(m)

    def test_switch_mid_flight_rejected(self):
        m = InvariantMonitor()
        m.emit(TaskPop(t=1.0, worker=0, items=1))
        m.emit(PolicySwitch(t=2.0, generation=1, items=5, policy="persistent"))
        assert "policy-switch" in _rules(m)

    def test_alternating_switches_clean(self):
        m = InvariantMonitor()
        m.emit(PolicySwitch(t=1.0, generation=1, items=5, policy="persistent"))
        m.emit(PolicySwitch(t=2.0, generation=2, items=50, policy="discrete"))
        m.emit(PolicySwitch(t=3.0, generation=4, items=3, policy="persistent"))
        assert m.ok


class TestGenerationBracketRule:
    def test_nested_generation(self):
        m = InvariantMonitor()
        m.emit(GenerationStart(t=1.0, generation=1, items=4))
        m.emit(GenerationStart(t=2.0, generation=2, items=4))
        assert "generation-bracket" in _rules(m)

    def test_end_without_start(self):
        m = InvariantMonitor()
        m.emit(GenerationEnd(t=1.0, generation=1))
        assert "generation-bracket" in _rules(m)

    def test_ordinal_regression(self):
        m = InvariantMonitor()
        m.emit(GenerationStart(t=1.0, generation=2, items=4))
        m.emit(GenerationEnd(t=2.0, generation=2))
        m.emit(GenerationStart(t=3.0, generation=1, items=4))
        assert "generation-bracket" in _rules(m)

    def test_generation_end_with_tasks_in_flight(self):
        m = InvariantMonitor()
        m.emit(GenerationStart(t=1.0, generation=1, items=4))
        m.emit(TaskPop(t=2.0, worker=0, items=1))
        m.emit(GenerationEnd(t=3.0, generation=1))
        assert "generation-bracket" in _rules(m)


class TestStrictModeAndReconcile:
    def test_strict_raises_immediately(self):
        m = InvariantMonitor(strict=True)
        with pytest.raises(InvariantViolation, match="queue-conservation"):
            m.emit(QueuePush(t=1.0, queue="q", items=4, depth=5, wait_ns=0.0))

    def test_assert_clean_raises_with_rules(self):
        m = InvariantMonitor()
        m.emit(QueuePush(t=1.0, queue="q", items=4, depth=5, wait_ns=0.0))
        with pytest.raises(InvariantViolation, match="queue-conservation"):
            m.assert_clean()

    def test_reconcile_flags_lying_counters(self, small_rmat):
        monitor = InvariantMonitor()
        res = run_app("bfs", small_rmat, CONFIGS["persist-warp"], spec=SPEC, sink=monitor)
        res.extra["total_tasks"] += 1  # simulate a counter bug
        monitor.reconcile(res)
        assert "counter-reconcile" in _rules(monitor)
        # a bare RunResult lies through its queue record just as visibly
        from repro.apps.bfs import SpeculativeBfsKernel
        from repro.core.policy import run_policy

        monitor = InvariantMonitor()
        run = run_policy(
            SpeculativeBfsKernel(small_rmat, 0), CONFIGS["persist-warp"], spec=SPEC, sink=monitor
        )
        run.queue.empty_pops += 1
        monitor.reconcile(run)
        assert "counter-reconcile" in _rules(monitor)

    def test_reconcile_flags_unbalanced_pops(self):
        m = InvariantMonitor()
        m.emit(TaskPop(t=1.0, worker=0, items=1))
        m.reconcile(object())  # no counters to compare; imbalance still seen
        assert "counter-reconcile" in _rules(m)


# ---------------------------------------------------------------------------
# Epoch boundaries (dynamic replays): quiescent marks, clock restarts
# ---------------------------------------------------------------------------

class TestEpochBoundaryRule:
    """EpochMark handling: the cross-epoch laws of a dynamic replay.

    Positive half: a real multi-epoch replay with the monitor riding the
    whole stream is clean and counts one mark per edit epoch.  Negative
    half: fabricated streams leak items, slots and generations across the
    boundary — each must trip ``epoch-boundary``.
    """

    def test_live_replay_clean_across_epochs(self, small_rmat):
        from repro.apps.common import replay_app, replay_totals

        g = small_rmat if small_rmat.is_symmetric() else small_rmat.symmetrize()
        monitor = InvariantMonitor()
        dres = replay_app(
            "bfs-inc", g, CONFIGS["discrete-CTA"], "3x16@4", sink=monitor, source=0
        )
        monitor.reconcile(SimpleNamespace(extra=replay_totals(dres.epochs)))
        assert monitor.ok, [str(v) for v in monitor.violations]
        assert monitor.counts["epoch_marks"] == 3  # one per edit epoch

    def test_item_leaked_across_boundary(self):
        from repro.obs.events import EpochMark

        m = InvariantMonitor()
        m.emit(TaskPop(t=1.0, worker=0, items=1))  # popped, never completed
        m.emit(EpochMark(t=2.0, epoch=1, inserts=4, deletes=2))
        assert "epoch-boundary" in _rules(m)

    def test_busy_slot_at_boundary(self):
        from repro.obs.events import EpochMark

        m = InvariantMonitor()
        m.emit(TaskPop(t=1.0, worker=3, items=2))
        m.emit(TaskRead(t=2.0, worker=3, items=2))
        m.emit(EpochMark(t=3.0, epoch=1, inserts=0, deletes=1))
        rules = _rules(m)
        assert "epoch-boundary" in rules

    def test_open_generation_at_boundary(self):
        from repro.obs.events import EpochMark

        m = InvariantMonitor()
        m.emit(GenerationStart(t=1.0, generation=1, items=4))
        m.emit(EpochMark(t=2.0, epoch=1, inserts=1, deletes=0))
        assert "epoch-boundary" in _rules(m)

    def test_quiescent_boundary_is_clean_and_resets_clocks(self):
        """Epoch clocks restart at zero: pre-mark times must not leak."""
        from repro.obs.events import EpochMark, QueuePop as QP, QueuePush as QPu

        m = InvariantMonitor()
        # epoch 0: a full task lifecycle ending quiescent, late timestamps
        m.emit(QPu(t=1.0, queue="q-gen1", items=1, depth=1, wait_ns=0.0))
        m.emit(QP(t=2.0, queue="q-gen1", items=1, depth=0, wait_ns=0.0))
        m.emit(TaskPop(t=9.0, worker=0, items=1))
        m.emit(TaskRead(t=9.5, worker=0, items=1))
        m.emit(TaskComplete(t=10.0, worker=0, items=1, retired=1, pushed=0, work=1.0))
        m.emit(EpochMark(t=10.0, epoch=1, inserts=2, deletes=2))
        # epoch 1 restarts at t=0 and reuses queue names: all legal
        m.emit(QPu(t=0.5, queue="q-gen1", items=2, depth=2, wait_ns=0.0))
        m.emit(QP(t=1.0, queue="q-gen1", items=2, depth=0, wait_ns=0.0))
        m.emit(TaskPop(t=1.5, worker=0, items=2))
        assert m.ok, [str(v) for v in m.violations]

    def test_epoch_totals_not_reset(self):
        """Item counters span the replay; reconcile checks whole-run sums."""
        from repro.obs.events import EpochMark, QueuePush as QPu

        m = InvariantMonitor()
        m.emit(QPu(t=1.0, queue="q", items=3, depth=3, wait_ns=0.0))
        m.emit(EpochMark(t=1.0, epoch=1, inserts=0, deletes=0))
        m.emit(QPu(t=0.5, queue="q", items=2, depth=2, wait_ns=0.0))
        assert m.queue_items_pushed == 5
        assert m.counts["queue_pushes"] == 2

    def test_static_streams_never_see_marks(self, small_rmat):
        monitor = InvariantMonitor()
        run_app("bfs", small_rmat, CONFIGS["discrete-CTA"], spec=SPEC, sink=monitor)
        assert "epoch_marks" not in monitor.counts


# ---------------------------------------------------------------------------
# Per-device conservation (multi-device runs tag their deques "@dev{i}")
# ---------------------------------------------------------------------------

def _balanced_device_traffic(monitor, devices):
    for dev in range(devices):
        queue = f"q@dev{dev}"
        monitor.emit(QueuePush(t=1.0, queue=queue, items=2, depth=2, wait_ns=0.0))
        monitor.emit(QueuePop(t=2.0, queue=queue, items=2, depth=0, wait_ns=0.0))


class TestDeviceConservationRule:
    """reconcile() balances every device's deques and counts the devices."""

    def test_balanced_devices_are_clean(self):
        m = InvariantMonitor()
        _balanced_device_traffic(m, 3)
        m.reconcile(SimpleNamespace(extra={"devices": 3}))
        assert m.ok, [str(v) for v in m.violations]

    def test_item_pushed_to_a_device_and_never_popped(self):
        """Within one epoch the per-queue rule implies the device equation;
        across an epoch boundary the next epoch's deques start empty, so an
        item left on ``q@dev1`` is visible only to the device totals."""
        from repro.obs.events import EpochMark

        m = InvariantMonitor()
        _balanced_device_traffic(m, 2)
        m.emit(QueuePush(t=3.0, queue="q@dev1", items=1, depth=1, wait_ns=0.0))
        m.emit(EpochMark(t=4.0, epoch=1, inserts=1, deletes=0))
        m.reconcile(SimpleNamespace(extra={"devices": 2}))
        assert _rules(m) == {"device-conservation"}
        assert "device 1 leaks items" in str(m.violations[0])

    def test_events_name_more_devices_than_the_run_reports(self):
        m = InvariantMonitor()
        _balanced_device_traffic(m, 3)
        m.reconcile(SimpleNamespace(extra={"devices": 2}))
        assert _rules(m) == {"device-conservation"}
        assert "events name 3 devices" in str(m.violations[0])


# ---------------------------------------------------------------------------
# MpmcQueue conservation equation (satellite: drain bypasses items_popped)
# ---------------------------------------------------------------------------

class TestQueueConservationEquation:
    def test_push_pop_drain_balance(self):
        q = MpmcQueue(name="cons")
        q.push(np.arange(10, dtype=np.int64), 0.0)
        q.pop(4, 1.0)
        drained = q.drain()
        assert drained.size == 6
        # drain must NOT count as a pop (the broker's order-preserving
        # drain depends on the split) but MUST appear in items_drained
        assert q.stats.items_popped == 4
        assert q.stats.items_drained == 6
        assert q.stats.items_pushed == q.stats.items_popped + q.stats.items_drained + q.size
        verify_queue_conservation(q)  # must not raise

    def test_live_items_balance(self):
        q = MpmcQueue(name="cons")
        q.push(np.arange(7, dtype=np.int64), 0.0)
        q.pop(3, 1.0)
        verify_queue_conservation(q)  # 7 == 3 + 0 + 4

    def test_corrupted_stats_detected(self):
        q = MpmcQueue(name="leaky")
        q.push(np.arange(5, dtype=np.int64), 0.0)
        q.stats.items_popped += 2  # fake a pop that never happened
        with pytest.raises(InvariantViolation, match="leaky"):
            verify_queue_conservation(q)

    def test_broker_and_stealing_covered(self):
        broker = QueueBroker(3, name="wl")
        broker.push(np.arange(9, dtype=np.int64), 0.0)
        broker.pop(4, 1.0, home=1)
        broker.drain()
        verify_queue_conservation(broker)
        steal = StealingWorklist(4, name="sw")
        steal.push(np.arange(8, dtype=np.int64), 0.0, home=2)
        steal.pop(2, 1.0, home=0)  # forces a steal + banking push
        verify_queue_conservation(steal)
        buckets = BucketedWorklist(1.0, num_buckets=4, name="bk")
        buckets.push(np.arange(6, dtype=np.int64), np.arange(6.0))
        buckets.pop(2)
        verify_queue_conservation(buckets)
        buckets.queues[1].stats.items_popped += 1  # fake a pop that never happened
        with pytest.raises(InvariantViolation, match=r"bk\[1\]"):
            verify_queue_conservation(buckets)


# ---------------------------------------------------------------------------
# RunResult counter consistency (satellite: guards the PR 1 stats fixes)
# ---------------------------------------------------------------------------

class TestRunResultCounterConsistency:
    @pytest.mark.parametrize(
        "config", ["persist-warp", "discrete-CTA", "discrete-warp", "hybrid-CTA"]
    )
    def test_items_pushed_covers_retired(self, config, small_rmat):
        # every retired item entered a queue exactly once, while queued
        # items can additionally be drained at switches or left behind
        res = run_app("bfs", small_rmat, CONFIGS[config], spec=SPEC)
        assert res.extra["queue_items_pushed"] >= res.items_retired
        assert res.extra["queue_items_popped"] <= res.extra["queue_items_pushed"]
        assert res.extra["queue_pushes"] >= res.iterations

    def test_discrete_multi_generation_accumulates_empty_pops(self, small_rmat):
        # PR 1 regression guard: run_discrete used to hard-code
        # empty_pops=0 and drop every non-final generation's queue stats
        res = run_app("bfs", small_rmat, CONFIGS["discrete-CTA"], spec=SPEC)
        assert res.iterations > 1, "graph too small to exercise multi-generation"
        assert res.extra["empty_pops"] > 0
        # each generation ends with every fed worker failing one pop
        assert res.extra["empty_pops"] >= res.iterations

    def test_counters_match_event_stream_exactly(self, small_rmat):
        sink = Collector()
        res = run_app("bfs", small_rmat, CONFIGS["discrete-warp"], spec=SPEC, sink=sink)
        from repro.obs.events import QueuePop as QP, QueuePush as QPu

        pushed = sum(e.items for e in sink.events_of(QPu))
        popped = sum(e.items for e in sink.events_of(QP))
        assert res.extra["queue_items_pushed"] == pushed
        assert res.extra["queue_items_popped"] == popped
