"""Tests for BSP and asynchronous speculative coloring (paper Section 5.3)."""

import numpy as np
import pytest

from repro.apps import coloring, run_app
from repro.apps.coloring import _min_available_color
from repro.core.config import DISCRETE_WARP, PERSIST_CTA, PERSIST_WARP
from repro.graph.csr import from_edges
from repro.graph.generators import (
    bipartite_graph,
    complete_graph,
    grid_mesh,
    path_graph,
    rmat,
    star_graph,
)
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)
ALL_VARIANTS = (PERSIST_WARP, PERSIST_CTA, DISCRETE_WARP)


class TestMinAvailableColor:
    def test_empty_neighborhood(self):
        assert _min_available_color(np.array([], dtype=np.int64), 0) == 0

    def test_uncolored_ignored(self):
        assert _min_available_color(np.array([-1, -1]), 2) == 0

    def test_gap_found(self):
        assert _min_available_color(np.array([0, 2, 3]), 3) == 1

    def test_dense_prefix(self):
        assert _min_available_color(np.array([0, 1, 2]), 3) == 3

    def test_colors_above_degree_ignored(self):
        # a neighbor holding color 100 cannot push the choice above deg+1
        assert _min_available_color(np.array([100]), 2) == 0


class TestValidation:
    def test_proper_coloring_detected(self):
        g = path_graph(4)
        assert coloring.validate_coloring(g, np.array([0, 1, 0, 1]))

    def test_conflict_detected(self):
        g = path_graph(3)
        assert not coloring.validate_coloring(g, np.array([0, 0, 1]))
        assert coloring.count_conflicts(g, np.array([0, 0, 1])) == 2  # both directions

    def test_uncolored_rejected(self):
        g = path_graph(2)
        assert not coloring.validate_coloring(g, np.array([-1, 0]))


class TestBspColoring:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(20),
            lambda: grid_mesh(8, 8),
            lambda: star_graph(30),
            lambda: complete_graph(10),
            lambda: bipartite_graph(5, 7),
            lambda: rmat(7, edge_factor=6, seed=3),
        ],
        ids=["path", "grid", "star", "complete", "bipartite", "rmat"],
    )
    def test_produces_proper_coloring(self, graph_factory):
        g = graph_factory()
        res = coloring.run_bsp(g, spec=SPEC)
        assert coloring.validate_coloring(g, res.output)

    def test_complete_graph_needs_n_colors(self):
        g = complete_graph(7)
        res = coloring.run_bsp(g, spec=SPEC)
        assert res.extra["num_colors"] == 7

    def test_star_needs_two_colors(self):
        res = coloring.run_bsp(star_graph(20), spec=SPEC)
        assert res.extra["num_colors"] == 2

    def test_work_at_least_one_assignment_per_vertex(self):
        g = grid_mesh(6, 6)
        res = coloring.run_bsp(g, spec=SPEC)
        assert res.work_units >= g.num_vertices

    def test_isolated_vertices_colored(self):
        g = from_edges(4, [(0, 1), (1, 0)])
        res = coloring.run_bsp(g, spec=SPEC)
        assert (res.output >= 0).all()


class TestAsyncColoring:
    @pytest.mark.parametrize("cfg", ALL_VARIANTS, ids=lambda c: c.name)
    def test_produces_proper_coloring_grid(self, cfg):
        g = grid_mesh(8, 8)
        res = run_app("coloring", g, cfg, spec=SPEC)
        assert coloring.validate_coloring(g, res.output)

    @pytest.mark.parametrize("cfg", ALL_VARIANTS, ids=lambda c: c.name)
    def test_produces_proper_coloring_rmat(self, cfg):
        g = rmat(7, edge_factor=6, seed=3)
        res = run_app("coloring", g, cfg, spec=SPEC)
        assert coloring.validate_coloring(g, res.output)

    def test_complete_graph(self):
        g = complete_graph(8)
        res = run_app("coloring", g, PERSIST_WARP, spec=SPEC)
        assert coloring.validate_coloring(g, res.output)
        assert res.extra["num_colors"] == 8

    def test_greedy_bound(self):
        """Greedy never uses more than max_degree + 1 colors."""
        g = rmat(7, edge_factor=4, seed=9)
        res = run_app("coloring", g, PERSIST_WARP, spec=SPEC)
        assert res.extra["num_colors"] <= int(g.out_degrees().max()) + 1

    def test_deterministic(self):
        g = grid_mesh(6, 6)
        r1 = run_app("coloring", g, PERSIST_CTA, spec=SPEC)
        r2 = run_app("coloring", g, PERSIST_CTA, spec=SPEC)
        assert np.array_equal(r1.output, r2.output)
        assert r1.elapsed_ns == r2.elapsed_ns

    def test_work_counts_assignments(self):
        g = grid_mesh(5, 5)
        res = run_app("coloring", g, PERSIST_WARP, spec=SPEC)
        assert res.work_units >= g.num_vertices
        assert res.extra["conflict_checks"] >= g.num_vertices

    def test_register_budgets_applied(self):
        """Section 6.3: persistent 72 regs, discrete 42 -> occupancy gap."""
        g = grid_mesh(5, 5)
        p = run_app("coloring", g, PERSIST_WARP, spec=SPEC)
        d = run_app("coloring", g, DISCRETE_WARP, spec=SPEC)
        assert d.extra["occupancy"] > p.extra["occupancy"]

    def test_tag_encoding_roundtrip(self):
        k = coloring.AsyncColoringKernel(grid_mesh(3, 3))
        vs = np.array([0, 5, 8], dtype=np.int64)
        a, c = k.decode(np.concatenate([k.assign_tag(vs), k.check_tag(vs)]))
        assert np.array_equal(a, vs)
        assert np.array_equal(c, vs)

    def test_vertex_zero_taggable(self):
        k = coloring.AsyncColoringKernel(path_graph(2))
        tags = k.check_tag(np.array([0]))
        assert tags[0] < 0
        _, c = k.decode(tags)
        assert c[0] == 0

    def test_isolated_vertices_colored(self):
        g = from_edges(4, [(0, 1), (1, 0)])
        res = run_app("coloring", g, PERSIST_WARP, spec=SPEC)
        assert (res.output >= 0).all()


class TestOverworkShape:
    def test_discrete_no_less_overwork_than_persistent(self):
        """Section 6.3 signature: launch-wave staleness makes the discrete
        strategy recolor at least as much as the persistent one."""
        g = grid_mesh(12, 12)  # strong id locality -> conflicts under waves
        p = run_app("coloring", g, PERSIST_WARP, spec=SPEC)
        d = run_app("coloring", g, DISCRETE_WARP, spec=SPEC)
        assert d.work_units >= p.work_units
