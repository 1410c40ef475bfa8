"""Tests for connected components (the fourth Listing-1 application)."""

import numpy as np
import pytest

import networkx as nx

from repro.apps import cc, run_app
from repro.core.config import DISCRETE_CTA, PERSIST_CTA, PERSIST_WARP
from repro.graph.csr import from_edges
from repro.graph.generators import grid_mesh, path_graph, rmat
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


def disconnected_graph():
    """Three components: a path, a triangle, an isolated vertex."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 1)]  # component {0,1,2}
    edges += [(3, 4), (4, 3), (4, 5), (5, 4), (3, 5), (5, 3)]  # {3,4,5}
    return from_edges(7, edges)  # vertex 6 isolated


class TestReference:
    def test_components_found(self):
        labels = cc.reference_components(disconnected_graph())
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[3] == labels[4] == labels[5] == 3
        assert labels[6] == 6

    def test_matches_networkx(self):
        g = rmat(7, edge_factor=3, seed=12)
        labels = cc.reference_components(g)
        nxg = nx.from_edgelist(g.edge_array().tolist())
        nxg.add_nodes_from(range(g.num_vertices))
        for comp in nx.connected_components(nxg):
            ids = {int(labels[v]) for v in comp}
            assert len(ids) == 1
            assert min(comp) in ids


class TestBspCc:
    def test_connected_graph_single_component(self):
        res = cc.run_bsp(grid_mesh(6, 6), spec=SPEC)
        assert res.extra["num_components"] == 1
        assert (res.output == 0).all()

    def test_disconnected(self):
        g = disconnected_graph()
        res = cc.run_bsp(g, spec=SPEC)
        assert cc.validate_components(g, res.output)
        assert res.extra["num_components"] == 3

    def test_divergence_guard(self):
        with pytest.raises(RuntimeError):
            cc.run_bsp(path_graph(30), spec=SPEC, max_iterations=2)


class TestAsyncCc:
    @pytest.mark.parametrize(
        "cfg", (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA), ids=lambda c: c.name
    )
    def test_correct_on_rmat(self, cfg):
        g = rmat(7, edge_factor=4, seed=3)
        res = run_app("cc", g, cfg, spec=SPEC)
        assert cc.validate_components(g, res.output)

    def test_correct_on_disconnected(self):
        g = disconnected_graph()
        res = run_app("cc", g, PERSIST_WARP, spec=SPEC)
        assert cc.validate_components(g, res.output)
        assert res.extra["num_components"] == 3

    def test_deterministic(self):
        g = grid_mesh(6, 6)
        a = run_app("cc", g, PERSIST_CTA, spec=SPEC)
        b = run_app("cc", g, PERSIST_CTA, spec=SPEC)
        assert a.elapsed_ns == b.elapsed_ns
        assert np.array_equal(a.output, b.output)

    def test_labels_are_component_minima(self):
        g = grid_mesh(4, 4)
        res = run_app("cc", g, PERSIST_WARP, spec=SPEC)
        assert (res.output == 0).all()

    def test_work_at_least_edge_count(self):
        """Every edge must be traversed at least once overall."""
        g = grid_mesh(5, 5)
        res = run_app("cc", g, PERSIST_WARP, spec=SPEC)
        assert res.work_units >= g.num_edges
