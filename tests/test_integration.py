"""Cross-module integration tests: the full pipeline on the stand-ins."""

import numpy as np
import pytest

from repro import (
    DISCRETE_CTA,
    DISCRETE_WARP,
    PERSIST_CTA,
    PERSIST_WARP,
    Lab,
    load_dataset,
)
from repro.apps import pagerank, run_app
from repro.check import validate
from repro.graph.permute import permute_vertices
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


class TestAllAppsAllDatasets:
    """Every app x dataset x variant on tiny stand-ins produces a valid
    output — the correctness backbone of the whole evaluation."""

    @pytest.mark.parametrize(
        "key",
        ["soc-LiveJournal1", "hollywood-2009", "indochina-2004", "road_usa", "roadNet-CA"],
    )
    def test_bfs_all_variants(self, key):
        g = load_dataset(key, "tiny")
        for cfg in (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA):
            res = run_app("bfs", g, cfg, spec=SPEC)
            assert validate("bfs", g, res.output).ok, (key, cfg.name)

    @pytest.mark.parametrize("key", ["soc-LiveJournal1", "roadNet-CA"])
    def test_pagerank_all_variants(self, key):
        g = load_dataset(key, "tiny")
        bound = 1e-5 * g.num_vertices / (1 - pagerank.DEFAULT_LAMBDA)
        for cfg in (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA):
            res = run_app("pagerank", g, cfg, epsilon=1e-5, spec=SPEC)
            assert pagerank.max_rank_error(g, res.output) < bound, (key, cfg.name)

    @pytest.mark.parametrize("key", ["soc-LiveJournal1", "roadNet-CA"])
    def test_coloring_all_variants(self, key):
        g = load_dataset(key, "tiny")
        for cfg in (PERSIST_WARP, PERSIST_CTA, DISCRETE_WARP):
            res = run_app("coloring", g, cfg, spec=SPEC)
            assert validate("coloring", g, res.output).ok, (key, cfg.name)


class TestInvarianceUnderPermutation:
    """Algorithm outputs are label-equivariant; runtimes may differ (that is
    the whole Section 6.3 point) but correctness may not."""

    def test_bfs_depths_equivariant(self):
        g = load_dataset("roadNet-CA", "tiny")
        p = np.random.default_rng(3).permutation(g.num_vertices).astype(np.int64)
        pg = permute_vertices(g, p)
        d = run_app("bfs", g, PERSIST_WARP, source=0, spec=SPEC).output
        dp = run_app("bfs", pg, PERSIST_WARP, source=int(p[0]), spec=SPEC).output
        assert np.array_equal(dp[p], d)

    def test_coloring_stays_proper_after_permutation(self):
        g = load_dataset("soc-LiveJournal1", "tiny")
        pg = permute_vertices(g, seed=11)
        res = run_app("coloring", pg, DISCRETE_WARP, spec=SPEC)
        assert validate("coloring", pg, res.output).ok


class TestHeadlineShapes:
    """End-to-end shape checks on the small stand-ins (the qualitative
    claims of the paper's abstract)."""

    @pytest.fixture(scope="class")
    def lab(self):
        return Lab(size="small")  # default (scaled V100) spec

    def test_bfs_atos_wins_on_meshes(self, lab):
        rows = lab.table1("bfs", ("road_usa", "roadNet-CA"))
        for row in rows:
            assert max(row.speedups.values()) > 1.0, row.dataset

    def test_bfs_best_mesh_variant_is_cta(self, lab):
        rows = lab.table1("bfs", ("road_usa",))
        best = max(rows[0].speedups, key=rows[0].speedups.get)
        assert best == "persist-CTA"

    def test_coloring_persist_warp_wins_on_scale_free(self, lab):
        rows = lab.table1("coloring", ("soc-LiveJournal1",))
        assert rows[0].speedups["persist-warp"] > 1.0
        assert (
            rows[0].speedups["persist-warp"] > rows[0].speedups["discrete-warp"]
        )

    def test_coloring_overwork_ordering(self, lab):
        """Table 4: persist-warp <= persist-CTA <= discrete-warp."""
        row = lab.table4("coloring", ("soc-LiveJournal1",))[0]
        assert row["persist-warp"] <= row["persist-CTA"] + 0.05
        assert row["persist-CTA"] <= row["discrete-warp"] + 0.05

    def test_pagerank_atos_wins(self, lab):
        rows = lab.table1("pagerank", ("soc-LiveJournal1", "roadNet-CA"))
        for row in rows:
            assert row.speedups["persist-CTA"] > 1.0

    def test_pagerank_does_not_overwork(self, lab):
        """Naturally unordered: async PageRank work <= ~BSP work."""
        row = lab.table4("pagerank", ("soc-LiveJournal1",))[0]
        assert row["persist-warp"] <= 1.1
        assert row["persist-CTA"] <= 1.1

    def test_permutation_speeds_up_discrete_coloring(self, lab):
        rows = lab.permutation_study(("soc-LiveJournal1",))
        before, after = rows[0]["discrete-warp"]
        assert after < before
