"""Tests for weighted SSSP (the paper's Section 3.1 related-work contrast)."""

import numpy as np
import pytest

from repro.apps import run_app, sssp
from repro.core.config import DISCRETE_CTA, PERSIST_CTA, PERSIST_WARP
from repro.graph.csr import from_edges
from repro.graph.generators import grid_mesh, path_graph, rmat
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


class TestWeights:
    def test_uniform(self):
        g = path_graph(4)
        w = sssp.uniform_weights(g, 2.0)
        assert w.shape == (g.num_edges,)
        assert (w == 2.0).all()

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            sssp.uniform_weights(path_graph(3), 0.0)

    def test_random_in_range(self):
        g = grid_mesh(5, 5)
        w = sssp.random_weights(g, low=1.0, high=3.0, seed=1)
        assert w.min() >= 1.0 and w.max() <= 3.0

    def test_random_deterministic(self):
        g = grid_mesh(4, 4)
        assert np.array_equal(
            sssp.random_weights(g, seed=5), sssp.random_weights(g, seed=5)
        )

    def test_random_invalid(self):
        with pytest.raises(ValueError):
            sssp.random_weights(path_graph(3), low=0.0)


class TestReference:
    def test_path_distances(self):
        g = path_graph(5)
        w = sssp.uniform_weights(g, 1.5)
        ref = sssp.reference_distances(g, w, 0)
        assert ref[4] == pytest.approx(6.0)

    def test_matches_scipy(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        g = rmat(7, edge_factor=4, seed=8)
        w = sssp.random_weights(g, seed=2)
        mat = csr_matrix((w, g.indices, g.indptr), shape=(g.num_vertices,) * 2)
        ref_scipy = scipy_dijkstra(mat, indices=0)
        ref = sssp.reference_distances(g, w, 0)
        finite = np.isfinite(ref_scipy)
        assert np.allclose(ref[finite], ref_scipy[finite])
        assert np.array_equal(np.isinf(ref), np.isinf(ref_scipy))


class TestBellmanFord:
    def test_exact_on_grid(self):
        g = grid_mesh(6, 6)
        w = sssp.random_weights(g, seed=3)
        res = sssp.run_bellman_ford(g, weights=w, spec=SPEC)
        assert sssp.validate_distances(g, w, res.output)

    def test_unit_weights_match_bfs_depths(self):
        g = grid_mesh(5, 5)
        res = sssp.run_bellman_ford(g, spec=SPEC)
        from repro.graph.metrics import bfs_levels

        depth = bfs_levels(g, 0)
        assert np.allclose(res.output, depth)

    def test_workload_grows_with_depth(self):
        """The diameter x |E| inefficiency: a long path re-relaxes a lot
        under adverse weights."""
        # adverse case: decreasing weights along a path cause re-relaxation
        g = from_edges(6, [(0, i) for i in range(1, 6)] + [(i, i + 1) for i in range(1, 5)])
        # direct edges from 0 are expensive; chain edges cheap
        w = []
        for u, v in g.edges():
            w.append(10.0 * v if u == 0 else 0.1)
        res = sssp.run_bellman_ford(g, weights=np.array(w), spec=SPEC)
        assert sssp.validate_distances(g, np.array(w), res.output)
        assert res.iterations > 2  # re-relaxation happened

    def test_iteration_guard(self):
        g = path_graph(10)
        with pytest.raises(RuntimeError):
            sssp.run_bellman_ford(g, spec=SPEC, max_iterations=2)

    def test_misaligned_weights_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            sssp.run_bellman_ford(g, weights=np.ones(3), spec=SPEC)


class TestSpeculativeSssp:
    @pytest.mark.parametrize(
        "cfg", (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA), ids=lambda c: c.name
    )
    def test_exact_distances(self, cfg):
        g = rmat(7, edge_factor=5, seed=6)
        w = sssp.random_weights(g, seed=7)
        res = run_app("sssp", g, cfg, weights=w, spec=SPEC)
        assert sssp.validate_distances(g, w, res.output)

    def test_exact_on_mesh(self):
        g = grid_mesh(8, 8)
        w = sssp.random_weights(g, seed=1)
        res = run_app("sssp", g, PERSIST_WARP, weights=w, spec=SPEC)
        assert sssp.validate_distances(g, w, res.output)

    def test_default_unit_weights(self):
        g = grid_mesh(5, 5)
        res = run_app("sssp", g, PERSIST_WARP, spec=SPEC)
        from repro.graph.metrics import bfs_levels

        assert np.allclose(res.output, bfs_levels(g, 0))

    def test_invalid_weights(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="positive"):
            run_app("sssp", g, PERSIST_WARP, weights=np.zeros(g.num_edges), spec=SPEC)
        with pytest.raises(ValueError, match="align"):
            run_app("sssp", g, PERSIST_WARP, weights=np.ones(2), spec=SPEC)

    def test_deterministic(self):
        g = grid_mesh(5, 5)
        w = sssp.random_weights(g, seed=2)
        a = run_app("sssp", g, PERSIST_CTA, weights=w, spec=SPEC)
        b = run_app("sssp", g, PERSIST_CTA, weights=w, spec=SPEC)
        assert a.elapsed_ns == b.elapsed_ns

    def test_speculation_more_efficient_than_bellman_ford(self):
        """The paper's claim: speculative Dijkstra's workload stays within
        a small factor of |E|, below Bellman-Ford on deep graphs."""
        g = grid_mesh(20, 4)
        w = sssp.random_weights(g, low=1.0, high=20.0, seed=4)
        bf = sssp.run_bellman_ford(g, weights=w, spec=SPEC)
        spec_run = run_app("sssp", g, PERSIST_CTA, weights=w, spec=SPEC)
        assert spec_run.work_units <= bf.work_units * 1.2
