"""Tests for the bucketed priority work list and delta-stepping SSSP."""

import numpy as np
import pytest

from repro.apps import delta_sssp, sssp
from repro.check import validate
from repro.graph.generators import grid_mesh, path_graph, rmat, road_network
from repro.queueing.priority import BucketedWorklist
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


class TestBucketedWorklist:
    def test_lowest_bucket_first(self):
        wl = BucketedWorklist(1.0, num_buckets=8)
        wl.push(np.array([10, 20]), np.array([3.0, 0.5]))
        items, _ = wl.pop(10)
        assert list(items) == [20]  # priority 0.5 -> bucket 0
        items, _ = wl.pop(10)
        assert list(items) == [10]

    def test_cursor_advances_past_empty(self):
        wl = BucketedWorklist(1.0, num_buckets=8)
        wl.push(np.array([1]), np.array([5.0]))
        items, _ = wl.pop(10)
        assert list(items) == [1]
        assert wl.cursor == 5

    def test_wraparound(self):
        wl = BucketedWorklist(1.0, num_buckets=4)
        wl.push(np.array([1]), np.array([9.0]))  # bucket 9 % 4 = 1
        assert wl.bucket_of(9.0) == 1
        items, _ = wl.pop(10)
        assert list(items) == [1]

    def test_fifo_within_bucket(self):
        wl = BucketedWorklist(10.0, num_buckets=4)
        wl.push(np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        items, _ = wl.pop(10)
        assert list(items) == [1, 2, 3]

    def test_size_tracking(self):
        wl = BucketedWorklist(1.0)
        assert not wl
        wl.push(np.array([1, 2]), np.array([0.0, 5.0]))
        assert len(wl) == 2

    def test_empty_pop(self):
        wl = BucketedWorklist(1.0, num_buckets=4)
        items, _ = wl.pop(3)
        assert items.size == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BucketedWorklist(0.0)
        with pytest.raises(ValueError):
            BucketedWorklist(1.0, num_buckets=0)
        wl = BucketedWorklist(1.0)
        with pytest.raises(ValueError):
            wl.push(np.array([1]), np.array([-1.0]))
        with pytest.raises(ValueError):
            wl.push(np.array([1, 2]), np.array([1.0]))
        with pytest.raises(ValueError):
            wl.pop(0)


class TestDeltaStepping:
    def test_exact_on_grid(self):
        g = grid_mesh(7, 7)
        w = sssp.random_weights(g, seed=5)
        res = delta_sssp.run_delta_stepping(g, weights=w, spec=SPEC)
        assert validate("sssp", g, res.output, weights=w).ok

    def test_exact_on_rmat(self):
        g = rmat(7, edge_factor=4, seed=6)
        w = sssp.random_weights(g, seed=2)
        res = delta_sssp.run_delta_stepping(g, weights=w, spec=SPEC)
        assert validate("sssp", g, res.output, weights=w).ok

    def test_exact_on_road(self):
        g = road_network(15, 15, seed=2)
        w = sssp.random_weights(g, low=1, high=30, seed=9)
        res = delta_sssp.run_delta_stepping(g, weights=w, spec=SPEC)
        assert validate("sssp", g, res.output, weights=w).ok

    def test_unit_weights(self):
        g = path_graph(12)
        res = delta_sssp.run_delta_stepping(g, spec=SPEC)
        assert np.allclose(res.output, np.arange(12))

    @pytest.mark.parametrize("delta", [0.5, 2.0, 50.0])
    def test_any_delta_is_correct(self, delta):
        """Delta trades work for rounds but never correctness."""
        g = grid_mesh(6, 6)
        w = sssp.random_weights(g, seed=1)
        res = delta_sssp.run_delta_stepping(g, weights=w, delta=delta, spec=SPEC)
        assert validate("sssp", g, res.output, weights=w).ok

    def test_large_delta_behaves_like_bellman_ford(self):
        """delta -> inf: one bucket = unordered frontier relaxation."""
        g = grid_mesh(8, 8)
        w = sssp.random_weights(g, low=1, high=10, seed=3)
        huge = delta_sssp.run_delta_stepping(g, weights=w, delta=1e9, spec=SPEC)
        bf = sssp.run_bellman_ford(g, weights=w, spec=SPEC)
        assert validate("sssp", g, huge.output, weights=w).ok
        # same ballpark of relaxations as Bellman-Ford
        assert huge.work_units <= bf.work_units * 1.5

    def test_small_delta_reduces_overwork(self):
        """More ordering -> fewer wasted relaxations than huge delta."""
        g = road_network(12, 12, seed=4)
        w = sssp.random_weights(g, low=1, high=50, seed=4)
        fine = delta_sssp.run_delta_stepping(g, weights=w, delta=5.0, spec=SPEC)
        coarse = delta_sssp.run_delta_stepping(g, weights=w, delta=1e9, spec=SPEC)
        assert fine.work_units <= coarse.work_units

    def test_suggest_delta(self):
        g = grid_mesh(4, 4)
        w = sssp.uniform_weights(g, 3.0)
        assert delta_sssp.suggest_delta(w) == pytest.approx(3.0)

    def test_invalid_inputs(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            delta_sssp.run_delta_stepping(g, weights=np.ones(2), spec=SPEC)
        with pytest.raises(ValueError):
            delta_sssp.run_delta_stepping(g, source=10, spec=SPEC)
