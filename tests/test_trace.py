"""Unit tests for throughput tracing (Figures 1-3 machinery)."""

import numpy as np
import pytest

from repro.sim.trace import ThroughputSeries, ThroughputTrace


class TestTrace:
    def test_totals(self):
        tr = ThroughputTrace()
        tr.record(10.0, 3, 30.0)
        tr.record(20.0, 2, 15.0)
        assert tr.total_items == 5
        assert tr.total_work == 45.0
        assert tr.end_time() == 20.0

    def test_empty_trace(self):
        tr = ThroughputTrace()
        assert tr.total_items == 0
        assert tr.end_time() == 0.0
        s = tr.series(bins=10)
        assert s.rates.size == 0

    def test_series_binning(self):
        tr = ThroughputTrace()
        tr.record(5.0, 10, 0)   # first bin of [0, 100) with 10 bins
        tr.record(95.0, 20, 0)  # last bin
        s = tr.series(bins=10, end_time=100.0)
        assert s.rates.size == 10
        assert s.rates[0] == pytest.approx(10 / 10.0)
        assert s.rates[9] == pytest.approx(20 / 10.0)
        assert s.rates[1:9].sum() == 0

    def test_series_clamps_samples_at_end(self):
        tr = ThroughputTrace()
        tr.record(150.0, 7, 0)  # past end_time -> last bin
        s = tr.series(bins=10, end_time=100.0)
        assert s.rates[9] > 0

    def test_series_work_mode(self):
        tr = ThroughputTrace()
        tr.record(5.0, 1, 42.0)
        s = tr.series(bins=1, end_time=10.0, use_work=True)
        assert s.rates[0] == pytest.approx(4.2)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            ThroughputTrace().series(bins=0)


class TestSeries:
    def test_normalized_divides(self):
        s = ThroughputSeries(np.array([0.0]), np.array([10.0]), 1.0)
        n = s.normalized(2.0)
        assert n.rates[0] == 5.0

    def test_normalized_invalid(self):
        s = ThroughputSeries(np.array([0.0]), np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            s.normalized(0.0)

    def test_peak_and_mean(self):
        s = ThroughputSeries(np.array([0.0, 1.0]), np.array([2.0, 4.0]), 1.0)
        assert s.peak() == 4.0
        assert s.mean() == 3.0

    def test_peak_empty(self):
        s = ThroughputSeries(np.zeros(0), np.zeros(0), 0.0)
        assert s.peak() == 0.0
        assert s.mean() == 0.0
