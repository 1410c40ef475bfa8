"""ExecutionPolicy registry, the Worklist protocol, and hybrid switching.

Unit-level companions to the golden-equivalence guard in
``test_equivalence.py``: the registry resolves every strategy, every queue
organisation satisfies the formal :class:`repro.queueing.Worklist`
contract the engine drives, and the hybrid policy's watermark machinery
switches discrete → persistent → discrete on a synthetic workload built
to force both crossovers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CONFIGS, AtosConfig, KernelStrategy
from repro.core.engine import SchedulerError
from repro.core.kernel import CompletionResult
from repro.core.policy import (
    POLICIES,
    BspPolicy,
    DiscretePolicy,
    HybridPolicy,
    PersistentPolicy,
    policy_for,
    run_policy,
)
from repro.obs import Collector, MultiSink, PolicySwitch
from repro.queueing import (
    BucketedWorklist,
    QueueBroker,
    StealingWorklist,
    Worklist,
    WorklistStats,
)

EMPTY = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Worklist protocol
# ---------------------------------------------------------------------------

class TestWorklistProtocol:
    def test_broker_conforms(self):
        assert isinstance(QueueBroker(2), Worklist)

    def test_stealing_conforms(self):
        assert isinstance(StealingWorklist(4), Worklist)

    def test_bucketed_has_stats_and_size(self):
        # BucketedWorklist's push takes priorities, so it satisfies only the
        # stats/size half of the contract (driven by the BSP timeline)
        wl = BucketedWorklist(1.0)
        assert isinstance(wl.stats(), WorklistStats)
        assert wl.size == 0

    @pytest.mark.parametrize("make", [lambda: QueueBroker(2), lambda: StealingWorklist(4)])
    def test_roundtrip_and_stats(self, make):
        wl = make()
        items = np.arange(10, dtype=np.int64)
        t = wl.push(items, 0.0, home=0)
        assert t >= 0.0
        assert wl.size == 10
        got, t2 = wl.pop(4, t, home=0)
        assert t2 >= t
        assert got.size == 4
        stats = wl.stats()
        assert isinstance(stats, WorklistStats)
        assert stats.items_pushed == 10
        assert stats.items_popped == 4
        rest = wl.drain()
        assert rest.size == 6
        assert wl.size == 0

    def test_stats_aggregates_steals(self):
        wl = StealingWorklist(2, seed=1)
        wl.push(np.arange(6, dtype=np.int64), 0.0, home=0)
        # pop from the empty home deque: must steal from deque 0
        got, _ = wl.pop(3, 1.0, home=1)
        assert got.size > 0
        stats = wl.stats()
        assert stats.steals == wl.own_stats.steals
        assert stats.steals >= 1


# ---------------------------------------------------------------------------
# Policy registry
# ---------------------------------------------------------------------------

class TestPolicyRegistry:
    def test_every_strategy_registered(self):
        assert set(POLICIES) == set(KernelStrategy)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("persist-CTA", PersistentPolicy),
            ("discrete-CTA", DiscretePolicy),
            ("hybrid-CTA", HybridPolicy),
            ("BSP", BspPolicy),
        ],
    )
    def test_policy_for_resolves(self, name, cls):
        assert isinstance(policy_for(CONFIGS[name]), cls)

    def test_policy_names_match_strategy_values(self):
        for strategy, cls in POLICIES.items():
            assert cls.name == strategy.value

    def test_bsp_is_app_level(self):
        assert BspPolicy.app_level
        assert not PersistentPolicy.app_level

    def test_run_policy_rejects_app_level(self):
        kernel = ChainBurstKernel()
        with pytest.raises(SchedulerError, match="app"):
            run_policy(kernel, CONFIGS["BSP"])


# ---------------------------------------------------------------------------
# Hybrid switching
# ---------------------------------------------------------------------------

class ChainBurstKernel:
    """Synthetic workload engineered to cross both hybrid watermarks.

    Generation 0 is wide (``wide`` independent leaves plus one chain head),
    so the hybrid policy starts discrete.  The chain then narrows to one
    item per generation (→ below the low watermark → persistent phase), and
    after ``chain`` links the head fans out into ``burst`` leaves (→ above
    the high watermark → interrupted back to discrete).

    Item encoding: ids ≥ LEAF_BASE are leaves (no children); ids
    ``0..chain-1`` are chain links; id ``chain`` releases the burst.
    """

    LEAF_BASE = 1_000_000

    def __init__(self, *, wide: int = 50, chain: int = 3, burst: int = 120) -> None:
        self.wide = wide
        self.chain = chain
        self.burst = burst

    def initial_items(self) -> np.ndarray:
        leaves = self.LEAF_BASE + np.arange(self.wide - 1, dtype=np.int64)
        return np.concatenate([np.asarray([0], dtype=np.int64), leaves])

    def work_estimate(self, items: np.ndarray) -> tuple[int, int]:
        return int(items.size), 1

    def on_read(self, items: np.ndarray, t: float):
        return None

    def on_complete(self, items: np.ndarray, payload, t: float) -> CompletionResult:
        children = []
        for v in items:
            v = int(v)
            if v >= self.LEAF_BASE:
                continue
            if v < self.chain:
                children.append([v + 1])
            else:  # chain head: fan out
                children.append(
                    (2 * self.LEAF_BASE + np.arange(self.burst, dtype=np.int64)).tolist()
                )
        new = (
            np.asarray([c for sub in children for c in sub], dtype=np.int64)
            if children
            else EMPTY
        )
        return CompletionResult(
            new_items=new, items_retired=int(items.size), work_units=float(items.size)
        )

    def final_check(self, t: float) -> np.ndarray:
        return EMPTY


def _hybrid_config(**overrides) -> AtosConfig:
    return AtosConfig(
        strategy=KernelStrategy.HYBRID,
        worker_threads=32,
        fetch_size=1,
        internal_lb=False,
        hybrid_low_watermark=10,
        hybrid_high_watermark=20,
        name="hybrid-test",
        **overrides,
    )


class TestHybridSwitching:
    def test_switches_both_ways(self):
        sink = Collector()
        res = run_policy(ChainBurstKernel(), _hybrid_config(), sink=sink)
        switches = sink.events_of(PolicySwitch)
        directions = [s.policy for s in switches]
        assert "persistent" in directions, "never entered a persistent phase"
        assert "discrete" in directions, "high watermark never interrupted"
        # first crossing is downward (narrow chain), then back up (burst)
        first_p = directions.index("persistent")
        assert "discrete" in directions[first_p:]
        assert res.policy_switches == len(switches)
        assert res.policy_switches >= 2

    def test_all_items_retired(self):
        k = ChainBurstKernel()
        res = run_policy(k, _hybrid_config())
        expected = k.wide + k.chain + k.burst  # leaves + chain links + burst
        assert res.items_retired == expected

    def test_switch_events_in_causal_order(self):
        # PolicySwitch timestamps themselves must advance monotonically
        sink = Collector()
        run_policy(ChainBurstKernel(), _hybrid_config(), sink=sink)
        times = [s.t for s in sink.events_of(PolicySwitch)]
        assert times == sorted(times)

    def test_pure_persistent_when_low_watermark_huge(self):
        # low watermark above every frontier: one persistent phase, no
        # interruption, exactly one launch
        cfg = _hybrid_config().with_overrides(
            hybrid_low_watermark=1 << 30, hybrid_high_watermark=1 << 31
        )
        sink = Collector()
        res = run_policy(ChainBurstKernel(), cfg, sink=sink)
        assert res.kernel_launches == 1
        assert res.policy_switches == 1
        assert [s.policy for s in sink.events_of(PolicySwitch)] == ["persistent"]

    def test_pure_discrete_when_low_watermark_one(self):
        # low watermark of 1: no frontier is ever "narrow", so the hybrid
        # run degenerates to the discrete policy
        cfg = _hybrid_config().with_overrides(
            hybrid_low_watermark=1, hybrid_high_watermark=1
        )
        res = run_policy(ChainBurstKernel(), cfg)
        assert res.policy_switches == 0
        assert res.kernel_launches == res.generations

    def test_matches_discrete_digest_when_never_narrow(self):
        # with the watermarks pinned so no switch happens, the hybrid
        # policy must reproduce the discrete policy's event stream exactly
        cfg = _hybrid_config().with_overrides(
            hybrid_low_watermark=1, hybrid_high_watermark=1
        )
        a = Collector()
        run_policy(ChainBurstKernel(), cfg, sink=a)
        b = Collector()
        run_policy(
            ChainBurstKernel(),
            cfg.with_overrides(strategy=KernelStrategy.DISCRETE),
            sink=b,
        )
        assert a.digest() == b.digest()


class TestConfigValidation:
    def test_negative_watermark_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AtosConfig(hybrid_low_watermark=-1)

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError, match="hybrid_high_watermark"):
            AtosConfig(hybrid_low_watermark=100, hybrid_high_watermark=50)

    def test_auto_watermarks_allowed(self):
        cfg = AtosConfig(strategy=KernelStrategy.HYBRID)
        assert cfg.hybrid_low_watermark == 0
        assert cfg.is_hybrid


# ---------------------------------------------------------------------------
# Hybrid property test: any watermark pair preserves answers and alternation
# ---------------------------------------------------------------------------

class TestHybridWatermarkProperty:
    """Random watermark draws: switching is an optimization, not a semantics.

    For any (low, high) watermark pair the hybrid policy must (a) emit
    switches that strictly alternate persistent/discrete starting with
    "persistent", (b) satisfy every engine invariant, and (c) retire
    exactly the work a pure-discrete run retires — switching changes the
    schedule, never the computation.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_random_watermarks(self, seed):
        rng = np.random.default_rng(seed)
        low = int(rng.integers(1, 80))
        high = low + int(rng.integers(1, 200))
        cfg = _hybrid_config().with_overrides(
            hybrid_low_watermark=low, hybrid_high_watermark=high
        )
        from repro.check.invariants import InvariantMonitor

        sink = Collector()
        monitor = InvariantMonitor()
        kernel = ChainBurstKernel()
        res = run_policy(kernel, cfg, sink=MultiSink(monitor, sink))
        monitor.reconcile(res)
        assert monitor.ok, [str(v) for v in monitor.violations]

        directions = [s.policy for s in sink.events_of(PolicySwitch)]
        expected = ["persistent", "discrete"] * len(directions)
        assert directions == expected[: len(directions)], (
            f"watermarks ({low}, {high}): switches {directions} do not "
            "alternate persistent/discrete"
        )

        baseline = run_policy(
            ChainBurstKernel(), cfg.with_overrides(strategy=KernelStrategy.DISCRETE)
        )
        assert res.items_retired == baseline.items_retired
        assert res.work_units == baseline.work_units

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_watermarks_bfs_answers(self, seed, small_rmat):
        # same property on a real app: the hybrid answer equals discrete's
        from repro.apps.common import run_app

        rng = np.random.default_rng(seed)
        low = int(rng.integers(1, 40))
        high = low + int(rng.integers(1, 120))
        hybrid_cfg = CONFIGS["hybrid-CTA"].with_overrides(
            hybrid_low_watermark=low, hybrid_high_watermark=high
        )
        hybrid = run_app("bfs", small_rmat, hybrid_cfg, validate=True)
        discrete = run_app("bfs", small_rmat, CONFIGS["discrete-CTA"], validate=True)
        np.testing.assert_array_equal(hybrid.output, discrete.output)
