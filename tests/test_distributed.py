"""Tests for the multi-device simulation (repro.core.distributed).

Covers the distributed strategy end to end: oracle-validated runs on
every dist preset, the devices=1 passthrough identity, per-device queue
conservation under schedule perturbation, the steal/remote-push surface
in ``AppResult.extra``, the device dimension in metrics summaries and
``repro diff``, and a golden table that pins each distributed run's event
stream, result and per-device accounting byte-for-byte.
"""

import numpy as np
import pytest

from repro.apps.common import run_app
from repro.check.fuzz import fuzz_app, perturbation
from repro.core.config import CONFIGS, KernelStrategy
from repro.graph.generators import rmat
from repro.harness.runner import Lab
from repro.metrics.diff import diff_summaries
from repro.metrics.sink import DEVICE_COUNTER_NAMES
from repro.metrics.summary import validate_summary
from repro.obs import Collector
from repro.service.jobs import result_digest

DIST_PRESETS = ("dist-2", "dist-4", "dist-4-pcie")


@pytest.fixture(scope="module")
def graph():
    return rmat(10, edge_factor=8, seed=3, name="rmat10").symmetrize()


class TestDistributedRuns:
    @pytest.mark.parametrize("preset", DIST_PRESETS)
    @pytest.mark.parametrize("app", ("bfs", "cc", "coloring"))
    def test_validated_run(self, graph, app, preset):
        """Every dist preset computes correct answers under full checking.

        ``validate=True`` attaches the answer oracle plus a live
        InvariantMonitor, which reconciles per-device AND global queue
        conservation — a silently-dropped in-flight batch fails here.
        """
        res = run_app(app, graph, CONFIGS[preset], validate=True)
        cfg = CONFIGS[preset]
        assert res.extra["devices"] == cfg.devices
        stats = res.extra["device_stats"]
        assert len(stats) == cfg.devices
        # partition-routed seeding: no device sits completely idle
        assert all(s["tasks"] > 0 for s in stats)
        assert sum(s["items_retired"] for s in stats) > 0

    def test_deterministic(self, graph):
        a = run_app("bfs", graph, CONFIGS["dist-2"])
        b = run_app("bfs", graph, CONFIGS["dist-2"])
        assert a.elapsed_ns == b.elapsed_ns
        assert np.array_equal(a.output, b.output)
        assert a.extra["remote_pushes"] == b.extra["remote_pushes"]

    def test_remote_pushes_cross_the_hash_cut(self, graph):
        """A hash edge-cut forwards work: remote pushes must appear and
        pay interconnect time."""
        res = run_app("bfs", graph, CONFIGS["dist-2"])
        assert res.extra["remote_pushes"] > 0
        assert res.extra["remote_items"] > 0
        assert res.extra["comm_ns"] > 0

    def test_steals_fire_with_backlog(self):
        """Contiguous partitioning keeps hub neighborhoods device-local,
        so imbalance builds stealable backlog (the bench_multigpu story);
        rmat13 is the smallest scale where the steal gate opens."""
        g = rmat(13, edge_factor=16, seed=1, name="rmat13").symmetrize()
        cfg = CONFIGS["dist-4"].with_overrides(partition="contiguous")
        res = run_app("bfs", g, cfg, validate=True)
        assert res.extra["remote_steals"] > 0

    def test_single_device_extra_has_no_device_block(self, graph):
        res = run_app("bfs", graph, CONFIGS["persist-CTA"])
        assert "devices" not in res.extra
        assert "remote_pushes" not in res.extra

    def test_fuzz_clean_under_perturbation(self, graph):
        """Schedule perturbation preserves answers and conservation on a
        multi-device run (also pins the cluster-wide worker-slot space)."""
        fuzz_app("bfs", graph, CONFIGS["dist-2"], seeds=2).assert_clean()


def _devices(*rows):
    """``extra["device_stats"]`` from ``(tasks, items_retired, work_units,
    mem_busy_ns)`` rows, one per device (every dist preset has 32 slots)."""
    return [
        {
            "device": i,
            "worker_slots": 32,
            "tasks": tasks,
            "items_retired": retired,
            "work_units": work,
            "mem_busy_ns": busy,
        }
        for i, (tasks, retired, work, busy) in enumerate(rows)
    ]


# (preset, app, perturbation seed or None) -> (Collector digest,
# result_digest, device_stats) on the rmat10 fixture.  Captured before the
# distributed policy's private drain loop was folded into the engine's;
# the fold must reproduce every field exactly.
GOLDEN_DIST = {
    ("dist-2", "bfs", None): (
        "943f928b9f0b02afc7698fa4bc78cb6d34a10326cd8e92ee723a9aa3f0effc7c",
        "b63256c1222c37f3",
        _devices(
            (15, 397, 5991.0, 19963.142857142862),
            (14, 407, 6030.0, 20114.285714285717),
        ),
    ),
    ("dist-2", "cc", None): (
        "2988a3a2bd6db5b29271e5b37c98fd1ce3f5b29a6a11a6b11fe434079987ec26",
        "85803d0d6f0ec41e",
        _devices(
            (29, 1011, 12482.0, 42117.71428571428),
            (30, 1032, 12706.0, 42881.71428571428),
        ),
    ),
    ("dist-4", "bfs", None): (
        "456ef0771a4c40ebf693deae9f67d7bbef3dffd7afe9bf6e01c23c52908a6e42",
        "830a590e0b5590e3",
        _devices(
            (14, 203, 3048.0, 10159.428571428574),
            (11, 202, 2885.0, 9644.285714285716),
            (12, 199, 3006.0, 10016.000000000002),
            (13, 210, 3162.0, 10537.714285714286),
        ),
    ),
    ("dist-4", "cc", None): (
        "551a214c6002cbf7e46db86ff9c625deb92be1a74d326aac31368cc0c9672272",
        "832067130004f8aa",
        _devices(
            (24, 634, 8658.0, 29022.285714285725),
            (25, 661, 9212.0, 30840.571428571442),
            (26, 643, 9030.0, 30217.142857142862),
            (26, 666, 9779.0, 32636.85714285715),
        ),
    ),
    ("dist-4-pcie", "bfs", None): (
        "c58d5a8900435b57d06d687816838d2172f5a668902172d69fdbf131e71115b3",
        "721589b355e31145",
        _devices(
            (14, 203, 3048.0, 10159.428571428574),
            (12, 203, 2887.0, 9653.428571428572),
            (13, 200, 3016.0, 10050.285714285716),
            (13, 210, 3162.0, 10537.714285714286),
        ),
    ),
    ("dist-4-pcie", "cc", None): (
        "ac2a8e4d017eef45ad2aef72d7d6a5c0ae725335288bad90fd22dff7d7fa9d86",
        "26798808414e5542",
        _devices(
            (24, 634, 8658.0, 29022.28571428572),
            (25, 661, 9212.0, 30840.571428571435),
            (26, 643, 9030.0, 30217.142857142862),
            (26, 666, 9779.0, 32636.85714285714),
        ),
    ),
    ("dist-2", "bfs", 3): (
        "f1ba484b913c0ae15ba66bb9d910bbdbc6ba928d22e24e1b1c94d010ad5eb866",
        "0bdb429b4e646345",
        _devices(
            (15, 397, 5991.0, 19963.142857142862),
            (14, 407, 6030.0, 20114.285714285717),
        ),
    ),
}


@pytest.mark.parametrize("preset,app,seed", sorted(GOLDEN_DIST, key=str))
def test_distributed_run_matches_golden(graph, preset, app, seed):
    sink = Collector()
    perturb = None if seed is None else perturbation(seed=seed)
    res = run_app(app, graph, CONFIGS[preset], sink=sink, perturb=perturb)
    digest, rdigest, devices = GOLDEN_DIST[(preset, app, seed)]
    assert sink.digest() == digest, f"{preset}/{app}: event stream diverged"
    assert result_digest(res) == rdigest, f"{preset}/{app}: result diverged"
    assert res.extra["device_stats"] == devices


class TestLabDeviceOverride:
    def test_devices_one_is_passthrough(self):
        lab = Lab(devices=1)
        cfg = CONFIGS["persist-CTA"]
        assert lab._effective_config(cfg) is cfg

    def test_rebase_keeps_name_and_sets_strategy(self):
        lab = Lab(devices=4, partition="contiguous")
        cfg = lab._effective_config(CONFIGS["persist-CTA"])
        assert cfg.name == "persist-CTA"  # cells stay comparable across ladders
        assert cfg.strategy is KernelStrategy.DISTRIBUTED
        assert cfg.devices == 4
        assert cfg.partition == "contiguous"

    def test_bsp_passes_through(self):
        lab = Lab(devices=4)
        cfg = CONFIGS["BSP"]
        assert lab._effective_config(cfg) is cfg


class TestDeviceMetricsSurface:
    @pytest.fixture(scope="class")
    def summaries(self):
        single = Lab(size="tiny", metrics=True)
        multi = Lab(size="tiny", metrics=True, devices=2)
        return (
            single.run("bfs", "roadNet-CA", "persist-CTA").extra["metrics"],
            multi.run("bfs", "roadNet-CA", "persist-CTA").extra["metrics"],
        )

    def test_summaries_validate(self, summaries):
        for doc in summaries:
            assert not validate_summary(doc), validate_summary(doc)

    def test_device_dimension(self, summaries):
        single, multi = summaries
        assert single["devices"] == {}
        assert sorted(multi["devices"]) == ["0", "1"]
        for block in multi["devices"].values():
            assert set(DEVICE_COUNTER_NAMES) <= set(block)
        # the device blocks tile the global queue traffic
        assert sum(b["items_pushed"] for b in multi["devices"].values()) == (
            multi["counters"]["queue_items_pushed"]
        )
        assert single["counters"]["remote_pushes"] == 0

    def test_diff_tags_device_count_mismatch(self, summaries):
        single, multi = summaries
        report = diff_summaries(single, multi, base_label="a", new_label="b")
        assert report.base_label == "a [1dev]"
        assert report.new_label == "b [2dev]"
        assert not report.problems, report.problems

    def test_diff_same_device_count_is_clean(self, summaries):
        _, multi = summaries
        report = diff_summaries(multi, multi)
        assert report.base_label == "base"  # no tag when counts match
        assert not report.problems
        assert not report.regressions
