"""Tests for BSP and speculative BFS (paper Section 5.1)."""

import pytest

from repro.apps import bfs, run_app
from repro.core.config import (
    DISCRETE_CTA,
    PERSIST_CTA,
    PERSIST_WARP,
    AtosConfig,
    KernelStrategy,
)
from repro.graph.csr import from_edges
from repro.graph.generators import grid_mesh, path_graph, rmat, star_graph
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)
ALL_VARIANTS = (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA)


class TestBspBfs:
    def test_path(self):
        g = path_graph(8)
        res = bfs.run_bsp(g, spec=SPEC)
        assert list(res.output) == list(range(8))
        # 7 advancing levels plus the final frontier that finds nothing new
        assert res.iterations == 8

    def test_star_two_levels(self):
        res = bfs.run_bsp(star_graph(20), spec=SPEC)
        assert res.output[0] == 0
        assert (res.output[1:] == 1).all()
        assert res.iterations == 2  # spokes then their (visited) hub echo

    def test_unreachable_vertices(self):
        g = from_edges(4, [(0, 1), (1, 0)])
        res = bfs.run_bsp(g, spec=SPEC)
        assert res.output[2] == bfs.UNREACHED
        assert res.output[3] == bfs.UNREACHED

    def test_matches_reference_on_rmat(self):
        g = rmat(8, edge_factor=6, seed=4)
        res = bfs.run_bsp(g, spec=SPEC)
        assert bfs.validate_depths(g, res.output)

    def test_work_counts_edges(self):
        g = star_graph(10)
        res = bfs.run_bsp(g, spec=SPEC)
        # hub relaxes 9 edges, then 9 spokes relax their 1 edge each
        assert res.work_units == 18

    def test_custom_source(self):
        g = path_graph(5)
        res = bfs.run_bsp(g, source=4, spec=SPEC)
        assert list(res.output) == [4, 3, 2, 1, 0]

    def test_bad_source(self):
        with pytest.raises(ValueError):
            bfs.run_bsp(path_graph(3), source=9, spec=SPEC)

    def test_iterations_tracked(self):
        g = grid_mesh(6, 6)
        res = bfs.run_bsp(g, spec=SPEC)
        assert res.iterations == 10 + 1  # diameter levels + empty-check echo


class TestSpeculativeBfs:
    @pytest.mark.parametrize("cfg", ALL_VARIANTS, ids=lambda c: c.name)
    def test_exact_depths_grid(self, cfg):
        g = grid_mesh(8, 8)
        res = run_app("bfs", g, cfg, spec=SPEC)
        assert bfs.validate_depths(g, res.output)

    @pytest.mark.parametrize("cfg", ALL_VARIANTS, ids=lambda c: c.name)
    def test_exact_depths_rmat(self, cfg):
        g = rmat(8, edge_factor=6, seed=4)
        res = run_app("bfs", g, cfg, spec=SPEC)
        assert bfs.validate_depths(g, res.output)

    def test_overwork_at_least_bsp_work(self):
        """Speculation can only add edge traversals, never remove them."""
        g = grid_mesh(10, 10)
        base = bfs.run_bsp(g, spec=SPEC)
        res = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        assert res.work_units >= base.work_units

    def test_deterministic(self):
        g = rmat(7, edge_factor=4, seed=1)
        r1 = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        r2 = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        assert r1.elapsed_ns == r2.elapsed_ns
        assert r1.work_units == r2.work_units

    def test_custom_source(self):
        g = path_graph(6)
        res = run_app("bfs", g, PERSIST_WARP, source=5, spec=SPEC)
        assert list(res.output) == [5, 4, 3, 2, 1, 0]

    def test_bad_source(self):
        with pytest.raises(ValueError):
            run_app("bfs", path_graph(3), PERSIST_WARP, source=-1, spec=SPEC)

    def test_unreachable_left_unvisited(self):
        g = from_edges(4, [(0, 1), (1, 0)])
        res = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        assert res.output[2] == bfs.UNREACHED

    def test_discrete_generations_track_levels(self):
        g = path_graph(10)
        res = run_app("bfs", g, DISCRETE_CTA, spec=SPEC)
        # one generation per BFS level (chain graph), incl. the last vertex's
        assert res.iterations == 10

    def test_persistent_single_launch(self):
        g = grid_mesh(5, 5)
        res = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        assert res.kernel_launches == 1

    def test_thread_worker_variant(self):
        cfg = AtosConfig(
            strategy=KernelStrategy.PERSISTENT, worker_threads=1, fetch_size=1,
            name="persist-thread",
        )
        g = grid_mesh(5, 5)
        res = run_app("bfs", g, cfg, spec=SPEC)
        assert bfs.validate_depths(g, res.output)

    def test_result_metadata(self):
        g = grid_mesh(4, 4)
        res = run_app("bfs", g, PERSIST_CTA, spec=SPEC)
        assert res.app == "bfs"
        assert res.impl == "persist-CTA"
        assert res.extra["worker_slots"] > 0
        assert res.elapsed_ms == res.elapsed_ns / 1e6


class TestMeshVsScaleFreeShape:
    """Coarse shape assertions backing the paper's headline claims."""

    def test_small_frontier_advantage_on_mesh(self):
        """Persistent Atos beats BSP on a high-diameter mesh (Table 1)."""
        g = grid_mesh(40, 5)  # diameter 43
        base = bfs.run_bsp(g, spec=SPEC)
        res = run_app("bfs", g, PERSIST_CTA, spec=SPEC)
        assert res.elapsed_ns < base.elapsed_ns

    def test_bsp_competitive_on_scale_free(self):
        """On low-diameter scale-free graphs the gap shrinks or reverses."""
        g = rmat(9, edge_factor=8, seed=3)
        base = bfs.run_bsp(g, spec=SPEC)
        res = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        mesh = grid_mesh(40, 5)
        mesh_gain = bfs.run_bsp(mesh, spec=SPEC).elapsed_ns / run_app("bfs", 
            mesh, PERSIST_WARP, spec=SPEC
        ).elapsed_ns
        sf_gain = base.elapsed_ns / res.elapsed_ns
        assert mesh_gain > sf_gain


class TestDirectionOptimizedBfs:
    """Beamer push/pull switching in the BSP baseline."""

    def test_exact_depths(self):
        g = rmat(8, edge_factor=8, seed=4)
        res = bfs.run_bsp(g, spec=SPEC, direction_optimized=True)
        assert bfs.validate_depths(g, res.output)

    def test_exact_on_mesh(self):
        g = grid_mesh(9, 9)
        res = bfs.run_bsp(g, spec=SPEC, direction_optimized=True)
        assert bfs.validate_depths(g, res.output)

    def test_pull_engages_on_scale_free(self):
        g = rmat(9, edge_factor=8, seed=3)
        res = bfs.run_bsp(g, spec=SPEC, direction_optimized=True)
        assert res.extra["pull_iterations"] >= 1

    def test_pull_never_engages_on_thin_mesh(self):
        g = grid_mesh(40, 5)  # frontiers never exceed alpha * |E|
        res = bfs.run_bsp(g, spec=SPEC, direction_optimized=True)
        assert res.extra["pull_iterations"] == 0

    def test_pull_reduces_edge_work_on_scale_free(self):
        g = rmat(9, edge_factor=8, seed=3)
        plain = bfs.run_bsp(g, spec=SPEC)
        do = bfs.run_bsp(g, spec=SPEC, direction_optimized=True)
        assert do.work_units < plain.work_units

    def test_invalid_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            bfs.run_bsp(grid_mesh(3, 3), spec=SPEC, direction_optimized=True, do_alpha=0.0)
