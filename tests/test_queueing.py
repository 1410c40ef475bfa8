"""Unit tests for the simulated MPMC queue and the multi-queue broker."""

import numpy as np
import pytest

from repro.queueing.broker import QueueBroker
from repro.queueing.mpmc import MpmcQueue


class TestMpmcQueue:
    def test_fifo_order(self):
        q = MpmcQueue()
        q.push(np.array([1, 2, 3]))
        q.push(np.array([4]))
        items, _ = q.pop(10)
        assert list(items) == [1, 2, 3, 4]

    def test_partial_pop(self):
        q = MpmcQueue()
        q.push(np.arange(5))
        items, _ = q.pop(2)
        assert list(items) == [0, 1]
        assert q.size == 3

    def test_empty_pop(self):
        q = MpmcQueue()
        items, t = q.pop(4, now=7.0)
        assert items.size == 0
        assert t >= 7.0
        assert q.stats.empty_pops == 1

    def test_pop_zero_rejected(self):
        with pytest.raises(ValueError):
            MpmcQueue().pop(0)

    def test_push_empty_is_noop(self):
        q = MpmcQueue()
        t = q.push(np.array([], dtype=np.int64), now=3.0)
        assert t == 3.0
        assert q.stats.pushes == 0

    def test_capacity_enforced(self):
        q = MpmcQueue(capacity=3)
        q.push(np.array([1, 2]))
        with pytest.raises(OverflowError, match="capacity"):
            q.push(np.array([3, 4]))

    def test_buffer_growth(self):
        q = MpmcQueue(initial_buffer=16)
        q.push(np.arange(1000))
        items, _ = q.pop(1000)
        assert np.array_equal(items, np.arange(1000))

    def test_buffer_compaction_after_drain(self):
        q = MpmcQueue(initial_buffer=16)
        for _ in range(100):  # would overflow without head reset
            q.push(np.arange(10))
            q.pop(10)
        assert q.size == 0

    def test_pop_atomics_serialize(self):
        q = MpmcQueue(atomic_ns=5.0)
        q.push(np.arange(10), now=0.0)
        _, t1 = q.pop(1, now=100.0)
        _, t2 = q.pop(1, now=100.0)
        assert t2 == t1 + 5.0

    def test_push_and_pop_atomics_independent(self):
        q = MpmcQueue(atomic_ns=5.0)
        t_push = q.push(np.array([1]), now=100.0)
        q.push(np.array([2]), now=100.0)
        _, t_pop = q.pop(1, now=100.0)
        # pop did not wait behind the two pushes (separate counters)
        assert t_pop == pytest.approx(105.0)
        assert t_push == pytest.approx(105.0)

    def test_contention_wait_tracked(self):
        q = MpmcQueue(atomic_ns=10.0)
        q.push(np.arange(5))
        q.pop(1, now=0.0)
        q.pop(1, now=0.0)  # waits 10ns behind the first
        assert q.stats.contention_wait_ns >= 10.0

    def test_stats_counters(self):
        q = MpmcQueue()
        q.push(np.arange(4))
        q.pop(3)
        assert q.stats.items_pushed == 4
        assert q.stats.items_popped == 3

    def test_drain_and_peek(self):
        q = MpmcQueue()
        q.push(np.array([7, 8]))
        assert list(q.peek_all()) == [7, 8]
        assert q.size == 2
        assert list(q.drain()) == [7, 8]
        assert q.size == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MpmcQueue(capacity=0)


class TestQueueBroker:
    def test_single_queue_passthrough(self):
        b = QueueBroker(1)
        b.push(np.arange(5))
        items, _ = b.pop(5)
        assert list(items) == [0, 1, 2, 3, 4]

    def test_round_robin_scatter(self):
        b = QueueBroker(2)
        b.push(np.arange(6))
        assert b.queues[0].size + b.queues[1].size == 6
        assert abs(b.queues[0].size - b.queues[1].size) <= 1

    def test_pop_steals_from_siblings(self):
        b = QueueBroker(4)
        b.push(np.arange(8))
        items, _ = b.pop(8, home=1)
        assert sorted(items) == list(range(8))
        assert b.size == 0

    def test_pop_prefers_home_queue(self):
        b = QueueBroker(2)
        b.push(np.arange(4))
        home_items = set(b.queues[1].peek_all().tolist())
        items, _ = b.pop(1, home=1)
        assert int(items[0]) in home_items

    def test_conservation(self):
        b = QueueBroker(3)
        b.push(np.arange(100))
        got = []
        while b.size:
            items, _ = b.pop(7)
            got.extend(items.tolist())
        assert sorted(got) == list(range(100))

    def test_drain_preserves_push_order_single(self):
        b = QueueBroker(1)
        b.push(np.array([5, 3, 9]))
        assert list(b.drain()) == [5, 3, 9]

    def test_drain_multi_queue_returns_everything(self):
        b = QueueBroker(3)
        b.push(np.arange(10))
        assert sorted(b.drain()) == list(range(10))
        assert b.size == 0

    def test_empty_pop_multi(self):
        b = QueueBroker(3)
        items, _ = b.pop(5)
        assert items.size == 0

    def test_contention_aggregation(self):
        b = QueueBroker(2, atomic_ns=10.0)
        b.push(np.arange(10))
        b.pop(1, now=0.0)
        b.pop(1, now=0.0)
        assert b.stats().contention_wait_ns >= 0.0

    def test_invalid_queue_count(self):
        with pytest.raises(ValueError):
            QueueBroker(0)

    def test_drain_respects_cursor_rotation(self):
        """Regression: drain must honour the round-robin push cursor.

        After pops empty the queues the cursor keeps rotating, so the next
        push scatters starting from a non-zero queue.  A naive
        queue-0-first concatenation would return [20, 10] here, violating
        the global-order guarantee the Section 6.3 study relies on.
        """
        b = QueueBroker(2)
        b.push(np.array([1, 2, 3]))  # cursor now at queue 1
        while b.size:
            b.pop(10)
        b.push(np.array([10, 20]))  # 10 -> queue 1, 20 -> queue 0
        assert list(b.drain()) == [10, 20]

    def test_drain_interleaved_with_partial_pops(self):
        """Drain restores global push order even after partial pops."""
        b = QueueBroker(3)
        b.push(np.arange(10))
        popped, _ = b.pop(4)
        expected = [x for x in range(10) if x not in set(popped.tolist())]
        assert list(b.drain()) == expected

    @pytest.mark.parametrize("num_queues", [1, 2, 3, 4])
    def test_drain_fifo_roundtrip_property(self, num_queues):
        """Property: under any push/pop interleaving, drain returns exactly
        the not-yet-popped items in their original global push order."""
        rng = np.random.default_rng(num_queues * 17 + 1)
        b = QueueBroker(num_queues)
        pushed: list[int] = []
        popped: set[int] = set()
        next_id = 0
        for _ in range(40):
            if b.size == 0 or rng.random() < 0.55:
                n = int(rng.integers(1, 6))
                items = np.arange(next_id, next_id + n, dtype=np.int64)
                next_id += n
                b.push(items)
                pushed.extend(items.tolist())
            else:
                items, _ = b.pop(int(rng.integers(1, 5)), home=int(rng.integers(0, num_queues)))
                popped.update(items.tolist())
        expected = [x for x in pushed if x not in popped]
        assert list(b.drain()) == expected
        assert b.size == 0

