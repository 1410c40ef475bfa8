"""Tests for the analysis layer (Tables 3-4, figure rendering)."""

import numpy as np
import pytest

from repro.analysis.challenges import classify_challenges, low_throughput_fraction
from repro.analysis.overwork import coloring_workload_ratio, workload_ratio
from repro.analysis.tables import format_table
from repro.analysis.throughput import normalized_series, render_figure, series_csv
from repro.apps import bfs, coloring, run_app
from repro.apps.common import AppResult
from repro.graph.generators import grid_mesh, rmat
from repro.sim.spec import GpuSpec
from repro.sim.trace import ThroughputTrace

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


def _result(app="bfs", dataset="g", work=100.0, elapsed=1000.0, trace=None):
    return AppResult(
        app=app,
        impl="test",
        dataset=dataset,
        elapsed_ns=elapsed,
        work_units=work,
        items_retired=10,
        iterations=1,
        kernel_launches=1,
        output=np.zeros(1),
        trace=trace or ThroughputTrace(),
    )


class TestOverwork:
    def test_ratio(self):
        r = workload_ratio(_result(work=150.0), _result(work=100.0))
        assert r == pytest.approx(1.5)

    def test_app_mismatch_rejected(self):
        with pytest.raises(ValueError, match="apps"):
            workload_ratio(_result(app="bfs"), _result(app="pagerank"))

    def test_dataset_mismatch_rejected(self):
        with pytest.raises(ValueError, match="datasets"):
            workload_ratio(_result(dataset="a"), _result(dataset="b"))

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            workload_ratio(_result(), _result(work=0.0))

    def test_coloring_ratio(self):
        r = coloring_workload_ratio(_result(app="coloring", work=250.0), 100)
        assert r == pytest.approx(2.5)

    def test_coloring_wrong_app(self):
        with pytest.raises(ValueError):
            coloring_workload_ratio(_result(app="bfs"), 10)

    def test_measured_bfs_ratio_at_least_one(self):
        g = grid_mesh(10, 10)
        base = bfs.run_bsp(g, spec=SPEC)
        from repro.core.config import PERSIST_WARP

        res = run_app("bfs", g, PERSIST_WARP, spec=SPEC)
        assert workload_ratio(res, base) >= 1.0


class TestChallenges:
    def test_mesh_bfs_is_small_frontier(self):
        """High-diameter mesh: most BSP time at low throughput."""
        g = grid_mesh(60, 4, name="longmesh")
        base = bfs.run_bsp(g, spec=SPEC)
        report = classify_challenges(g, base, spec=SPEC)
        assert report.graph_type == "mesh-like"
        assert not report.load_imbalance
        assert report.small_frontier

    def test_scale_free_bfs_is_imbalanced(self):
        g = rmat(9, edge_factor=8, seed=1, name="sf")
        base = bfs.run_bsp(g, spec=SPEC)
        report = classify_challenges(g, base, spec=SPEC)
        assert report.load_imbalance
        assert report.graph_type == "scale-free"

    def test_label_rendering(self):
        g = grid_mesh(60, 4)
        report = classify_challenges(g, bfs.run_bsp(g, spec=SPEC), spec=SPEC)
        assert "Small Frontier" in report.label()

    def test_low_throughput_fraction_empty_trace(self):
        assert low_throughput_fraction(_result()) == 0.0


class TestTables:
    def test_basic_rendering(self):
        out = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_column_alignment(self):
        out = format_table(["col"], [["a"], ["longer"]])
        rows = out.splitlines()
        assert len(rows[-1]) == len(rows[-2])


class TestThroughputFigures:
    def _traced_result(self):
        tr = ThroughputTrace()
        for i in range(20):
            tr.record(float(i + 1) * 50, i, float(i))
        return _result(trace=tr, elapsed=1000.0)

    def test_normalized_series(self):
        res = self._traced_result()
        s1 = normalized_series(res, 1.0, bins=10)
        s2 = normalized_series(res, 2.0, bins=10)
        assert np.allclose(s1.rates, 2 * s2.rates)

    def test_common_end_time_aligns_bins(self):
        res = self._traced_result()
        a = normalized_series(res, 1.0, bins=10, end_time=2000.0)
        assert a.times.size == 10
        assert a.times[-1] == pytest.approx(1800.0)

    def test_render_figure(self):
        res = self._traced_result()
        curves = [
            ("BSP", normalized_series(res, 1.0, bins=10)),
            ("atos", normalized_series(res, 2.0, bins=10)),
        ]
        fig = render_figure("t", curves)
        lines = fig.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 3
        assert "BSP" in lines[1]

    def test_render_empty(self):
        fig = render_figure("t", [("x", normalized_series(_result(), 1.0))])
        assert "(no data)" in fig

    def test_series_csv(self):
        res = self._traced_result()
        curves = [
            ("a", normalized_series(res, 1.0, bins=5)),
            ("b", normalized_series(res, 1.0, bins=5)),
        ]
        csv = series_csv(curves)
        lines = csv.splitlines()
        assert lines[0] == "time_ns,a,b"
        assert len(lines) == 6

    def test_series_csv_mismatched_bins_rejected(self):
        res = self._traced_result()
        with pytest.raises(ValueError):
            series_csv(
                [
                    ("a", normalized_series(res, 1.0, bins=5)),
                    ("b", normalized_series(res, 1.0, bins=6)),
                ]
            )

    def test_series_csv_empty(self):
        assert series_csv([]) == ""
