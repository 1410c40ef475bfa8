"""Unit tests for throughput tracing (Figures 1-3 machinery)."""

import dataclasses
import pickle
import sys

import numpy as np
import pytest

from repro.perf.bench import bench_cells
from repro.service.jobs import RunSpec, execute_spec
from repro.sim.trace import ThroughputSeries, ThroughputTrace
from tests.test_equivalence import GOLDEN_BSP, GOLDEN_BSP_DO, bsp_do_spec

#: samples in the large-trace tests: the order of a cached persist-warp
#: PageRank result at ``small``
N_SAMPLES = 100_000


def _samples(n: int = N_SAMPLES) -> tuple[list, list, list]:
    """Completion-like samples as Python lists: rising fractional times,
    small item counts, edge-count work."""
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.exponential(37.5, n)).tolist()
    items = rng.integers(1, 65, n).tolist()
    work = rng.integers(0, 4000, n).astype(np.float64).tolist()
    return times, items, work


def _typed_trace(times, items, work) -> ThroughputTrace:
    tr = ThroughputTrace()
    for sample in zip(times, items, work):
        tr.record(*sample)
    return tr


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

    def test_item_count_past_c_int_raises(self):
        tr = ThroughputTrace()
        tr.record(1.0, 2**31 - 1, 0.0)
        with pytest.raises(OverflowError):
            tr.record(2.0, 2**31, 0.0)


class TestTypedColumns:
    """The columns are typed buffers: a pickled trace is three buffers."""

    @pytest.fixture(scope="class")
    def samples(self):
        return _samples()

    def test_pickle_keeps_typecodes_and_values(self, samples):
        tr = _typed_trace(*samples)
        payload = pickle.dumps(tr, protocol=pickle.HIGHEST_PROTOCOL)
        before = sys.getallocatedblocks()
        back = pickle.loads(payload)
        added = sys.getallocatedblocks() - before
        # a column of boxed floats adds one block per sample (200,006
        # for this trace); typed buffers add a handful of objects
        assert added < 1_000, added
        for name, typecode in (("times", "d"), ("items", "i"), ("work", "d")):
            col = getattr(back, name)
            assert col.typecode == typecode
            assert col.tobytes() == getattr(tr, name).tobytes()
        assert back.items.tolist() == samples[1]
        assert back.times.tolist() == samples[0]
        assert back.work.tolist() == samples[2]

    @pytest.mark.parametrize("use_work", [False, True])
    @pytest.mark.parametrize("end_time", [None, 3.3e6])
    def test_series_equals_list_built_reference(self, samples, use_work, end_time):
        """Typed columns bin exactly as the same samples held in lists."""
        typed = _typed_trace(*samples)
        reference = ThroughputTrace(*(list(col) for col in samples))
        assert typed.end_time() == reference.end_time()
        assert typed.total_items == reference.total_items
        assert typed.total_work == reference.total_work
        got = typed.series(bins=60, end_time=end_time, use_work=use_work)
        want = reference.series(bins=60, end_time=end_time, use_work=use_work)
        assert got.bin_ns == want.bin_ns
        assert got.times.tobytes() == want.times.tobytes()
        assert got.rates.tobytes() == want.rates.tobytes()


def _accounting_cells() -> list[RunSpec]:
    """Every bench cell, then every BSP runner and direction-optimized BFS."""
    cells = bench_cells()
    bsp = [RunSpec(app, dataset, "BSP") for app, dataset in sorted(GOLDEN_BSP)]
    cells += [c for c in bsp if c not in cells]
    return cells + [bsp_do_spec(dataset) for dataset in sorted(GOLDEN_BSP_DO)]


@pytest.mark.parametrize(
    "spec",
    _accounting_cells(),
    ids=lambda c: "-".join([c.app, c.dataset, c.impl, *(f"{k}={v}" for k, v in c.params)]),
)
def test_trace_accounts_for_every_completion(spec):
    """One sample per engine task; the columns sum to the run's counters.

    perfbench pins ``len(result.trace.times)`` as ``trace_samples``: this
    is the number a completion count would have to keep.
    """
    res = execute_spec(dataclasses.replace(spec, size="tiny"))
    if spec.impl != "BSP":
        assert len(res.trace.times) == res.extra["total_tasks"]
    assert sum(res.trace.items) == res.items_retired
    assert sum(res.trace.work) == res.work_units


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
