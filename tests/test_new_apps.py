"""Tests for the k-core and MIS extension applications."""

import numpy as np
import pytest

import networkx as nx

from repro.apps import kcore, mis, run_app
from repro.check import validate
from repro.core.config import DISCRETE_CTA, PERSIST_CTA, PERSIST_WARP
from repro.graph.csr import from_edges
from repro.graph.generators import (
    complete_graph,
    grid_mesh,
    path_graph,
    rmat,
    star_graph,
)
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


class TestKcoreReference:
    def test_path_is_1_core(self):
        core = kcore.reference_core_numbers(path_graph(6))
        assert (core == 1).all()

    def test_complete_graph(self):
        core = kcore.reference_core_numbers(complete_graph(6))
        assert (core == 5).all()

    def test_star(self):
        core = kcore.reference_core_numbers(star_graph(10))
        assert (core == 1).all()

    def test_matches_networkx(self):
        g = rmat(7, edge_factor=4, seed=9)
        core = kcore.reference_core_numbers(g)
        nxg = nx.from_edgelist(g.edge_array().tolist())
        nxg.add_nodes_from(range(g.num_vertices))
        ref = nx.core_number(nxg)
        for v in range(g.num_vertices):
            assert core[v] == ref[v], v

    def test_asymmetric_rejected(self):
        g = from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="symmetric"):
            kcore.reference_core_numbers(g)


class TestKcore:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(12),
            lambda: grid_mesh(6, 6),
            lambda: star_graph(15),
            lambda: complete_graph(7),
            lambda: rmat(7, edge_factor=4, seed=9),
        ],
        ids=["path", "grid", "star", "complete", "rmat"],
    )
    def test_bsp_exact(self, graph_factory):
        g = graph_factory()
        res = kcore.run_bsp(g, spec=SPEC)
        assert validate("kcore", g, res.output).ok

    @pytest.mark.parametrize(
        "cfg", (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA), ids=lambda c: c.name
    )
    def test_atos_exact(self, cfg):
        g = rmat(7, edge_factor=4, seed=9)
        res = run_app("kcore", g, cfg, spec=SPEC)
        assert validate("kcore", g, res.output).ok

    def test_atos_exact_on_grid(self):
        g = grid_mesh(7, 7)
        res = run_app("kcore", g, PERSIST_WARP, spec=SPEC)
        assert validate("kcore", g, res.output).ok

    def test_deterministic(self):
        g = grid_mesh(5, 5)
        a = run_app("kcore", g, PERSIST_CTA, spec=SPEC)
        b = run_app("kcore", g, PERSIST_CTA, spec=SPEC)
        assert a.elapsed_ns == b.elapsed_ns

    def test_max_core_reported(self):
        res = kcore.run_bsp(complete_graph(5), spec=SPEC)
        assert res.extra["max_core"] == 4

    def test_isolated_vertices(self):
        g = from_edges(4, [(0, 1), (1, 0)])
        res = run_app("kcore", g, PERSIST_WARP, spec=SPEC)
        assert res.output[2] == 0 and res.output[3] == 0
        assert validate("kcore", g, res.output).ok


class TestMisReference:
    def test_path_alternates(self):
        status = mis.reference_mis(path_graph(6))
        assert list(status) == [1, 0, 1, 0, 1, 0]

    def test_star_hub_in(self):
        status = mis.reference_mis(star_graph(8))
        assert status[0] == 1
        assert (status[1:] == 0).all()

    def test_complete_graph_single(self):
        status = mis.reference_mis(complete_graph(6))
        assert status.sum() == 1 and status[0] == 1


class TestMis:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(12),
            lambda: grid_mesh(6, 6),
            lambda: complete_graph(7),
            lambda: rmat(7, edge_factor=4, seed=5),
        ],
        ids=["path", "grid", "complete", "rmat"],
    )
    def test_bsp_matches_lexicographic(self, graph_factory):
        g = graph_factory()
        res = mis.run_bsp(g, spec=SPEC)
        assert validate("mis", g, res.output).ok

    @pytest.mark.parametrize(
        "cfg", (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA), ids=lambda c: c.name
    )
    def test_atos_matches_lexicographic(self, cfg):
        g = rmat(7, edge_factor=4, seed=5)
        res = run_app("mis", g, cfg, spec=SPEC)
        assert validate("mis", g, res.output).ok

    def test_atos_on_grid(self):
        g = grid_mesh(8, 8)
        res = run_app("mis", g, PERSIST_WARP, spec=SPEC)
        assert validate("mis", g, res.output).ok

    def test_speculation_overwork_measured(self):
        """Chaotic evaluation re-evaluates at least |V| times."""
        g = rmat(7, edge_factor=4, seed=5)
        res = run_app("mis", g, PERSIST_WARP, spec=SPEC)
        assert res.work_units >= g.num_vertices

    def test_deterministic(self):
        g = grid_mesh(6, 6)
        a = run_app("mis", g, PERSIST_WARP, spec=SPEC)
        b = run_app("mis", g, PERSIST_WARP, spec=SPEC)
        assert np.array_equal(a.output, b.output)
        assert a.elapsed_ns == b.elapsed_ns
