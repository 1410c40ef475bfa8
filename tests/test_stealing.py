"""Tests for the work-stealing worklist and its scheduler integration."""

import numpy as np
import pytest

from repro.apps import run_app
from repro.check import validate
from repro.core.config import PERSIST_WARP, AtosConfig
from repro.graph.generators import grid_mesh, rmat
from repro.queueing.stealing import StealingWorklist
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)

STEAL_CFG = PERSIST_WARP.with_overrides(
    worklist="stealing", num_queues=8, name="persist-warp-steal"
)


class TestStealingWorklist:
    def test_push_goes_to_home(self):
        wl = StealingWorklist(4)
        wl.push(np.arange(5), home=2)
        assert wl.deques[2].size == 5
        assert wl.deques[0].size == 0

    def test_pop_from_home_first(self):
        wl = StealingWorklist(4)
        wl.push(np.array([7]), home=1)
        items, _ = wl.pop(4, home=1)
        assert list(items) == [7]
        assert wl.own_stats.steals == 0

    def test_steal_on_empty(self):
        wl = StealingWorklist(4)
        wl.push(np.arange(10), home=0)
        items, _ = wl.pop(2, home=3)
        assert items.size > 0
        assert wl.own_stats.steals == 1

    def test_steal_takes_half_and_banks_surplus(self):
        wl = StealingWorklist(2)
        wl.push(np.arange(10), home=0)
        items, _ = wl.pop(1, home=1)
        assert items.size == 1
        # half (5) were stolen; 4 banked into the thief's own deque
        assert wl.deques[1].size == 4
        assert wl.deques[0].size == 5

    def test_steal_probe_costs_time(self):
        wl = StealingWorklist(4, steal_probe_ns=100.0)
        wl.push(np.array([1]), home=0)
        _, t = wl.pop(1, now=0.0, home=2)
        assert t >= 100.0  # at least one probe paid

    def test_empty_everywhere(self):
        wl = StealingWorklist(3)
        items, _ = wl.pop(2, home=0)
        assert items.size == 0
        assert wl.own_stats.failed_steals >= 1

    def test_conservation(self):
        wl = StealingWorklist(4, seed=7)
        for h in range(4):
            wl.push(np.arange(h * 100, h * 100 + 25), home=h)
        got = []
        worker = 0
        while wl.size:
            items, _ = wl.pop(7, home=worker)
            got.extend(items.tolist())
            worker = (worker + 1) % 4
        assert sorted(got) == sorted(
            list(range(0, 25)) + list(range(100, 125))
            + list(range(200, 225)) + list(range(300, 325))
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            StealingWorklist(0)
        with pytest.raises(ValueError):
            StealingWorklist(2, steal_probe_ns=-1)
        with pytest.raises(ValueError):
            StealingWorklist(2).pop(0)

    def test_banking_push_charges_simulated_time(self):
        """Regression: the push that banks stolen surplus into the thief's
        own deque must advance the returned clock.

        With atomic_ns=5 and no probe cost: own empty pop (100->105),
        victim pop of half (105->110), banking push of the surplus
        (110->115).  Before the fix the banking push's completion time was
        discarded and pop returned 110 — a free queue operation.
        """
        wl = StealingWorklist(2, atomic_ns=5.0, steal_probe_ns=0.0)
        wl.push(np.arange(10), now=0.0, home=0)
        items, t = wl.pop(1, now=100.0, home=1)
        assert list(items) == [0]
        assert t == pytest.approx(115.0)

    def test_no_banking_no_extra_charge(self):
        """When the steal yields exactly the requested items there is no
        banking push, so only the empty own-pop and the victim pop bill."""
        wl = StealingWorklist(2, atomic_ns=5.0, steal_probe_ns=0.0)
        wl.push(np.arange(2), now=0.0, home=0)  # half = 1 item, no surplus
        items, t = wl.pop(1, now=100.0, home=1)
        assert items.size == 1
        assert t == pytest.approx(110.0)
        assert wl.own_stats.banked_items == 0

    def test_banked_surplus_not_double_counted(self):
        """Regression: the banking push re-counts stolen surplus in the raw
        item totals (once at the victim's pop, once at the thief's push), so
        ``stats()`` must report how many items were banked and the distinct
        totals must subtract them."""
        wl = StealingWorklist(2)
        wl.push(np.arange(10), home=0)  # 10 distinct items enter the worklist
        items, _ = wl.pop(1, home=1)    # steal 5: keep 1, bank 4
        assert items.size == 1
        st = wl.stats()
        assert st.banked_items == 4
        # raw totals double-count the banked 4
        assert st.items_pushed == 14
        assert st.items_popped == 5
        # distinct totals: 10 items ever pushed, 1 consumed so far
        assert st.items_pushed - st.banked_items == 10
        assert st.items_popped - st.banked_items == 1

    def test_steal_heavy_conservation_equation(self):
        """Drain a worklist through repeated small pops (every pop after the
        first banks surplus) and pin the corrected distinct-item equation."""
        from repro.check.invariants import verify_queue_conservation

        wl = StealingWorklist(4, seed=3)
        for h in range(4):
            wl.push(np.arange(h * 50, h * 50 + 40), home=h)
        consumed = 0
        worker = 0
        while wl.size:
            items, _ = wl.pop(3, home=worker)
            consumed += items.size
            worker = (worker + 2) % 4
        verify_queue_conservation(wl)  # raw + distinct equations both hold
        st = wl.stats()
        assert st.banked_items > 0
        assert consumed == 160
        assert st.items_pushed - st.banked_items == 160
        assert st.items_popped - st.banked_items == 160


class TestSchedulerIntegration:
    def test_bfs_correct_under_stealing(self):
        g = grid_mesh(8, 8)
        res = run_app("bfs", g, STEAL_CFG, spec=SPEC)
        assert validate("bfs", g, res.output).ok

    def test_coloring_correct_under_stealing(self):
        g = rmat(7, edge_factor=4, seed=2)
        res = run_app("coloring", g, STEAL_CFG, spec=SPEC)
        assert validate("coloring", g, res.output).ok

    def test_invalid_worklist_name_rejected(self):
        with pytest.raises(ValueError, match="worklist"):
            AtosConfig(worklist="magic")

    def test_steal_counters_surface_in_result(self):
        """Steal/failed-steal counters flow from the worklist into the
        run's extra stats instead of dying with the retired queue."""
        g = rmat(7, edge_factor=4, seed=3)
        res = run_app("bfs", g, STEAL_CFG, spec=SPEC)
        assert "steals" in res.extra and "failed_steals" in res.extra
        # startup pushes everything to one home deque, so the other seven
        # workers must steal to get going
        assert res.extra["steals"] > 0

    def test_banked_items_adjust_run_item_counters(self):
        """Regression: a steal-heavy run used to double-count banked
        surplus in ``queue_items_pushed``, breaking the 'every retired item
        was pushed exactly once' claim (this persistent BFS run retires
        every item it pushes, so the distinct push total must equal the
        retired total exactly — the double count inflated it by the banked
        amount).  The event stream cross-checks the same equation."""
        from repro.check.invariants import InvariantMonitor

        g = rmat(7, edge_factor=4, seed=3)
        mon = InvariantMonitor()
        res = run_app("bfs", g, STEAL_CFG, spec=SPEC, sink=mon)
        mon.reconcile(res)
        mon.assert_clean()
        assert res.extra["queue_items_banked"] > 0
        assert res.extra["queue_items_pushed"] == res.items_retired
        # raw event-stream totals minus the QueueSteal-derived banked
        # count reproduce the run's distinct-item counters
        assert (
            mon.queue_items_pushed - mon.queue_items_banked
            == res.extra["queue_items_pushed"]
        )
        assert (
            mon.queue_items_popped - mon.queue_items_banked
            == res.extra["queue_items_popped"]
        )

    def test_shared_vs_stealing_both_finish(self):
        """The paper's claim direction at small scale: shared is at least
        competitive (stealing pays probe costs on imbalanced startup)."""
        g = rmat(8, edge_factor=6, seed=4)
        shared = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        steal = run_app("bfs", g, STEAL_CFG, spec=SPEC)
        assert validate("bfs", g, steal.output).ok
        assert shared.elapsed_ns <= steal.elapsed_ns * 1.5


class TestVictimProbeOrderRegression:
    """Pin the deterministic probe order across victim counts and seeds.

    The seeded Fisher-Yates shuffle behind ``_victim_order`` is part of
    the reproducibility contract: steal targets (and so the golden digests
    and every fuzz replay) depend on this exact sequence.  These literals
    were recorded from the shipped implementation — a change here means
    every recorded trace and fuzz seed silently re-shuffles, so it must be
    deliberate.  (The previous implementation only rotated the fixed ring
    ``start+1, start+2, ...`` from a random start, so victim ``start+1``
    was always probed before ``start+2`` — a selection bias the Cederman &
    Tsigas model doesn't have; a true permutation reaches all orderings.)
    """

    def _orders(self, n, seed, home, draws):
        wl = StealingWorklist(n, seed=seed)
        return [wl._victim_order(home) for _ in range(draws)]

    def test_two_deques(self):
        # one victim means one possible ordering: nothing to draw, so the
        # LCG does not advance
        wl = StealingWorklist(2, seed=0)
        assert [wl._victim_order(0) for _ in range(4)] == [[1]] * 4
        assert wl._probe_seq == 0

    def test_four_deques_seed0(self):
        assert self._orders(4, 0, 0, 4) == [
            [2, 3, 1], [1, 3, 2], [3, 2, 1], [1, 3, 2],
        ]

    def test_eight_deques_seed0(self):
        assert self._orders(8, 0, 0, 4) == [
            [3, 5, 6, 2, 4, 7, 1],
            [6, 4, 1, 5, 3, 7, 2],
            [1, 5, 2, 7, 6, 3, 4],
            [1, 3, 5, 6, 7, 4, 2],
        ]

    def test_seed_changes_the_sequence(self):
        assert self._orders(4, 1, 0, 4) == [
            [2, 1, 3], [3, 2, 1], [1, 3, 2], [3, 2, 1],
        ]

    def test_home_is_excluded_everywhere(self):
        assert self._orders(4, 0, 2, 3) == [
            [1, 3, 0], [0, 3, 1], [3, 1, 0],
        ]
        for order in self._orders(8, 5, 3, 10):
            assert 3 not in order
            assert sorted(order) == [0, 1, 2, 4, 5, 6, 7]

    def test_probe_state_shared_across_homes(self):
        # one global LCG, not per-home: interleaved draws consume it
        wl = StealingWorklist(4, seed=0)
        assert wl._victim_order(0) == [2, 3, 1]
        assert wl._victim_order(2) == [0, 3, 1]  # second draw, home 2
        assert wl._victim_order(0) == [3, 2, 1]  # third draw, home 0

    def test_all_victim_orderings_reachable(self):
        # the bias the ring had: some of the 3! = 6 orderings were
        # unreachable from any start.  The shuffle must visit all of them.
        seen = {tuple(o) for o in self._orders(4, 0, 0, 200)}
        assert len(seen) == 6
