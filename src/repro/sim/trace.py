"""Throughput-versus-time tracing (Figures 1-3 of the paper).

Every simulated run records ``(completion_time, items, work_units)`` samples.
:meth:`ThroughputTrace.series` bins them into a time grid and returns the
throughput curve; dividing by the run's overwork factor yields the
*normalized throughput* the paper plots ("useful" throughput, Section 6.3).

The samples live in three typed :class:`array.array` columns, not Python
lists: a run holds 20 bytes per completion instead of three boxed
objects, and a pickled result (the service's cache entry) stores each
column as one buffer, so unpickling a cached result allocates three
objects rather than one per sample.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = ["ThroughputTrace", "ThroughputSeries"]


@dataclass(frozen=True)
class ThroughputSeries:
    """A binned throughput curve: ``rate[i]`` covers ``[t[i], t[i] + dt)``."""

    times: np.ndarray  # bin start times, ns
    rates: np.ndarray  # items per ns in each bin
    bin_ns: float

    def normalized(self, overwork_factor: float) -> "ThroughputSeries":
        """Scale rates down by the overwork factor (>= 1 means extra work)."""
        if overwork_factor <= 0:
            raise ValueError("overwork_factor must be positive")
        return ThroughputSeries(self.times, self.rates / overwork_factor, self.bin_ns)

    def peak(self) -> float:
        return float(self.rates.max()) if self.rates.size else 0.0

    def mean(self) -> float:
        return float(self.rates.mean()) if self.rates.size else 0.0


@dataclass
class ThroughputTrace:
    """Accumulates completion samples during a simulated run.

    ``times`` and ``work`` are C doubles (``'d'``), ``items`` C ints
    (``'i'``): a completion that retires more items than a C int holds
    raises :class:`OverflowError` on append instead of wrapping.
    """

    times: array = field(default_factory=partial(array, "d"))
    items: array = field(default_factory=partial(array, "i"))
    work: array = field(default_factory=partial(array, "d"))

    def record(self, time: float, items: int, work_units: float) -> None:
        """Log that ``items`` work items retired at ``time``."""
        self.times.append(time)
        self.items.append(items)
        self.work.append(work_units)

    @property
    def total_items(self) -> int:
        return int(sum(self.items))

    @property
    def total_work(self) -> float:
        return float(sum(self.work))

    def end_time(self) -> float:
        return float(np.max(self.times)) if self.times else 0.0

    def series(self, *, bins: int = 60, end_time: float | None = None, use_work: bool = False) -> ThroughputSeries:
        """Bin the samples into ``bins`` equal windows.

        ``use_work=True`` bins work units (edges) instead of items; the
        paper's figures plot vertex-item throughput, which is the default.
        """
        if bins <= 0:
            raise ValueError("bins must be positive")
        end = end_time if end_time is not None else self.end_time()
        if end <= 0 or not self.times:
            return ThroughputSeries(np.zeros(0), np.zeros(0), 0.0)
        t = np.asarray(self.times)
        w = np.asarray(self.work if use_work else self.items, dtype=np.float64)
        bin_ns = end / bins
        idx = np.minimum((t / bin_ns).astype(np.int64), bins - 1)
        totals = np.bincount(idx, weights=w, minlength=bins)
        starts = np.arange(bins, dtype=np.float64) * bin_ns
        return ThroughputSeries(times=starts, rates=totals / bin_ns, bin_ns=bin_ns)
