"""Answer-oracle layer: every app x preset validates; corrupted outputs don't.

The positive half is the acceptance matrix — all eight applications pass
oracle validation under the four paper presets plus both hybrid presets.
The negative half corrupts each app's output in a characteristic way and
asserts the oracle names the broken predicate: an oracle that cannot fail
verifies nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.common import app_names, run_app
from repro.check.oracles import OracleError, oracle_names, validate
from repro.core.config import CONFIGS
from repro.graph.generators import grid_mesh, rmat
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)

#: the four paper presets plus the two hybrid extensions
ENGINE_CONFIGS = [
    "persist-warp",
    "persist-CTA",
    "discrete-CTA",
    "discrete-warp",
    "hybrid-CTA",
    "hybrid-warp",
]
#: every app with a task-kernel implementation (delta-sssp is BSP-only)
ENGINE_APPS = ["bfs", "cc", "coloring", "kcore", "mis", "pagerank", "sssp"]


@pytest.fixture(scope="module")
def rmat8():
    g = rmat(8, edge_factor=6, seed=7, name="rmat8")
    # k-core needs an undirected graph; symmetrizing changes no other
    # app's validity
    return g if g.is_symmetric() else g.symmetrize()


@pytest.fixture(scope="module")
def grid():
    return grid_mesh(6, 5)


class TestOracleRegistry:
    def test_every_app_has_an_oracle(self):
        assert set(oracle_names()) == set(app_names())

    def test_unknown_app_rejected(self, grid):
        with pytest.raises(KeyError, match="no oracle"):
            validate("nonesuch", grid, np.zeros(1))

    def test_accepts_raw_array(self, grid):
        from repro.apps.bfs import reference_depths

        rep = validate("bfs", grid, reference_depths(grid, 0), source=0)
        assert rep.ok
        rep.assert_valid()  # must not raise

    def test_report_renders(self, grid):
        rep = validate("bfs", grid, np.zeros(grid.num_vertices, dtype=np.int64))
        assert not rep.ok
        assert "FAIL" in str(rep)
        with pytest.raises(OracleError, match="bfs"):
            rep.assert_valid()


#: the checks, in order, each registered name reports on a correct answer
REPORTED_CHECKS = {
    "bfs": ["matches-reference", "source-depth-zero", "edges-relaxed", "unique-root"],
    "bfs-inc": ["matches-reference", "source-depth-zero", "edges-relaxed", "unique-root"],
    "cc": ["matches-reference", "edge-agreement", "labels-are-min-ids"],
    "cc-inc": ["matches-reference", "edge-agreement", "labels-are-min-ids"],
    "coloring": ["all-colored", "conflict-free", "palette-bounded"],
    "delta-sssp": ["matches-dijkstra", "source-zero", "edges-relaxed"],
    "kcore": ["matches-reference", "bounded-by-degree", "core-witnesses"],
    "mis": ["independent", "maximal", "lexicographically-first"],
    "pagerank": ["residual-nonnegative", "residual-converged", "close-to-fixpoint"],
    "pagerank-inc": ["residual-converged", "close-to-fixpoint"],
    "sssp": ["matches-dijkstra", "source-zero", "edges-relaxed"],
}


class TestReportedChecks:
    """Each registered name's check list, pinned on a tiny graph.

    An incremental name is validated on its static app's output: a
    converged incremental state answers the static question.
    """

    def test_table_covers_every_oracle(self):
        assert sorted(REPORTED_CHECKS) == oracle_names()

    @pytest.mark.parametrize("app", sorted(REPORTED_CHECKS))
    def test_check_names(self, app, grid):
        static = app.removesuffix("-inc")
        config = "BSP" if static == "delta-sssp" else "persist-CTA"
        res = run_app(static, grid, CONFIGS[config], spec=SPEC)
        rep = validate(app, grid, res)
        assert rep.ok, str(rep)
        assert rep.app == app
        assert [c.name for c in rep.checks] == REPORTED_CHECKS[app]

    def test_pagerank_inc_residual_is_two_sided(self, grid):
        from repro.apps.pagerank import reference_ranks

        rank = reference_ranks(grid) * 1.5  # too much mass: residual negative
        inc = validate("pagerank-inc", grid, rank)
        assert "residual-converged" in {c.name for c in inc.failures}
        assert "residual-nonnegative" not in {c.name for c in inc.checks}
        assert "residual-nonnegative" in _failing_checks("pagerank", grid, rank)

    def test_bfs_inc_corruption_detected(self, grid):
        from repro.apps.bfs import reference_depths

        depth = reference_depths(grid, 0)
        depth[grid.num_vertices - 1] += 1
        assert "matches-reference" in _failing_checks("bfs-inc", grid, depth)

    def test_cc_inc_corruption_detected(self, grid):
        from repro.apps.cc import reference_components

        labels = reference_components(grid)
        labels[grid.num_vertices - 1] = grid.num_vertices - 1
        failures = _failing_checks("cc-inc", grid, labels)
        assert {"matches-reference", "edge-agreement"} <= failures


class TestAcceptanceMatrix:
    """All 8 apps x all 6 engine presets (+ BSP) produce oracle-valid answers."""

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    @pytest.mark.parametrize("app", ENGINE_APPS)
    def test_engine_presets_rmat(self, app, config, rmat8):
        # validate=True raises OracleError on a wrong answer
        res = run_app(app, rmat8, CONFIGS[config], spec=SPEC, validate=True)
        assert validate(app, rmat8, res).ok

    @pytest.mark.parametrize("config", ["persist-warp", "discrete-CTA", "hybrid-CTA"])
    @pytest.mark.parametrize("app", ENGINE_APPS)
    def test_engine_presets_grid(self, app, config, grid):
        run_app(app, grid, CONFIGS[config], spec=SPEC, validate=True)

    @pytest.mark.parametrize("app", [*ENGINE_APPS, "delta-sssp"])
    def test_bsp_baseline(self, app, rmat8):
        run_app(app, rmat8, CONFIGS["BSP"], spec=SPEC, validate=True)


def _failing_checks(app, graph, output, **params):
    rep = validate(app, graph, output, **params)
    assert not rep.ok, f"corrupted {app} output passed validation"
    return {c.name for c in rep.failures}


class TestNegativeBfs:
    def test_wrong_depth_detected(self, grid):
        from repro.apps.bfs import reference_depths

        depth = reference_depths(grid, 0)
        depth[grid.num_vertices - 1] += 1
        assert "matches-reference" in _failing_checks("bfs", grid, depth)

    def test_unrelaxed_edge_detected(self, grid):
        from repro.apps.bfs import reference_depths

        depth = reference_depths(grid, 0)
        v = int(np.argmax(depth))  # farthest vertex: inflating it breaks an edge
        depth[v] += 5
        assert "edges-relaxed" in _failing_checks("bfs", grid, depth)

    def test_second_root_detected(self, grid):
        from repro.apps.bfs import reference_depths

        depth = reference_depths(grid, 0)
        depth[grid.num_vertices - 1] = 0
        assert "unique-root" in _failing_checks("bfs", grid, depth)


class TestNegativeSssp:
    def test_suboptimal_distance_detected(self, grid):
        from repro.apps.sssp import reference_distances, uniform_weights

        w = uniform_weights(grid)
        dist = reference_distances(grid, w, 0)
        dist[grid.num_vertices - 1] += 0.5
        failures = _failing_checks("sssp", grid, dist)
        assert "matches-dijkstra" in failures
        assert "edges-relaxed" in failures

    def test_delta_sssp_shares_oracle(self, grid):
        from repro.apps.sssp import reference_distances, uniform_weights

        dist = reference_distances(grid, uniform_weights(grid), 0)
        assert validate("delta-sssp", grid, dist, delta=1.0).ok
        dist[1] = 0.0
        assert not validate("delta-sssp", grid, dist, delta=1.0).ok


class TestNegativeCc:
    def test_split_component_detected(self, grid):
        from repro.apps.cc import reference_components

        labels = reference_components(grid)
        labels[grid.num_vertices - 1] = grid.num_vertices - 1
        failures = _failing_checks("cc", grid, labels)
        assert "edge-agreement" in failures

    def test_non_min_label_detected(self, grid):
        n = grid.num_vertices
        # a label above every member, one past the last vertex, one negative
        for label in (1, n, -1):
            labels = np.full(n, label, dtype=np.int64)
            assert "labels-are-min-ids" in _failing_checks("cc", grid, labels), label


class TestNegativeColoring:
    def test_conflict_detected(self, grid):
        res = run_app("coloring", grid, CONFIGS["persist-CTA"], spec=SPEC)
        colors = res.output.copy()
        assert validate("coloring", grid, colors).ok
        v = 0
        colors[grid.neighbors(v)[0]] = colors[v]  # monochromatic edge
        assert "conflict-free" in _failing_checks("coloring", grid, colors)

    def test_uncolored_detected(self, grid):
        res = run_app("coloring", grid, CONFIGS["persist-CTA"], spec=SPEC)
        colors = res.output.copy()
        colors[3] = -1
        assert "all-colored" in _failing_checks("coloring", grid, colors)

    def test_palette_overshoot_detected(self, grid):
        res = run_app("coloring", grid, CONFIGS["persist-CTA"], spec=SPEC)
        colors = res.output.copy()
        colors[0] = 10_000
        assert "palette-bounded" in _failing_checks("coloring", grid, colors)


class TestNegativeMis:
    def test_dependent_set_detected(self, grid):
        from repro.apps.mis import IN, reference_mis

        status = reference_mis(grid)
        out_vertices = np.flatnonzero(status == 0)
        status[out_vertices[0]] = IN  # adjacent to an IN vertex by maximality
        assert "independent" in _failing_checks("mis", grid, status)

    def test_non_maximal_detected(self, grid):
        status = np.zeros(grid.num_vertices, dtype=np.int64)  # empty set
        assert "maximal" in _failing_checks("mis", grid, status)


class TestNegativeKcore:
    def test_inflated_core_detected(self, grid):
        from repro.apps.kcore import reference_core_numbers

        core = reference_core_numbers(grid)
        core[0] = core.max() + 3
        failures = _failing_checks("kcore", grid, core)
        assert "matches-reference" in failures
        assert "core-witnesses" in failures


class TestNegativePagerank:
    def test_unconverged_detected(self, grid):
        rank = np.zeros(grid.num_vertices)  # nothing pushed: residual = 1-lam
        assert "residual-converged" in _failing_checks("pagerank", grid, rank)

    def test_overshoot_detected(self, grid):
        from repro.apps.pagerank import reference_ranks

        rank = reference_ranks(grid) * 1.5  # too much mass: residual negative
        assert "residual-nonnegative" in _failing_checks("pagerank", grid, rank)

    def test_converged_rank_passes_custom_epsilon(self, grid):
        from repro.apps.pagerank import reference_ranks

        rank = reference_ranks(grid)
        assert validate("pagerank", grid, rank, epsilon=1e-6).ok
