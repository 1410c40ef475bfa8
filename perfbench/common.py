"""Shared pieces: the run outcome, quantiles, pacing and the pass count."""

from __future__ import annotations

import gc
import heapq
import resource
import statistics
import time
from dataclasses import dataclass, field

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5
#: each service run sends at least this many requests, so p90 has at
#: least ten samples beyond it
MIN_REQUESTS = 100
#: host seconds of one :func:`spin` on the reference machine (a 2-vCPU
#: VM, CPython 3.11); scaled times read as seconds on that machine
SPIN_REF_S = 2.0e-3
#: a spin follows a call once this many seconds of calls have passed since
#: the last spin, so short calls share one (a spin after every ~2 ms
#: service-hit request measured a wider p50 spread, not a narrower one)
SPIN_EVERY_S = 0.02
#: a call is scaled by the median of this many spins on either side of it
SPIN_WINDOW = 2


class RunDiscarded(RuntimeError):
    """A self-check of the traced run failed; nothing may be published."""


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    #: human-readable lines printed above the JSON result
    notes: list[str] = field(default_factory=list)


def quantile(values: list[float], q: float) -> float:
    """Harrell–Davis estimate of the ``q`` quantile of ``values``.

    A mean of every order statistic weighted by the Beta((n+1)q,
    (n+1)(1-q)) distribution's mass over ``[(i-1)/n, i/n]``, so one burst
    of host noise on the sample that happens to sit at rank ``qn`` moves
    it far less than it moves a nearest-rank quantile.  The Beta mass is
    integrated numerically (no SciPy).
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 32
    grid = np.linspace(0.0, 1.0, steps * n + 1)
    inner = grid[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.zeros_like(grid)
    pdf[1:-1] = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


def peak_rss_mb() -> float:
    """Maximum resident set size of this process so far (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Box:
    __slots__ = ("key", "items")

    def __init__(self, key: int, items: list[int]) -> None:
        self.key = key
        self.items = items


def spin() -> float:
    """Host seconds of a fixed mix of interpreter work (no repository code).

    An integer loop, dict inserts and a keyed sort, heap pushes and pops,
    small-object allocation and a few NumPy operations: the kinds of work
    the engine and the service do, so a host slow-down hits the spin the
    way it hits the program.  The cyclic collector is paused so the spin's
    cost does not depend on how many objects the program keeps alive.
    """
    import numpy as np

    arr = np.arange(4096, dtype=np.int64)
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(5000):
            acc += i & 1023
        table = {}
        for i in range(1500):
            table[(i * 7919) % 1511] = (i, i + 1)
        sorted(table.items(), key=lambda kv: kv[1][0])
        heap: list[tuple[int, int]] = []
        for i in range(2000):
            heapq.heappush(heap, ((i * 7919) % 2003, i))
        while heap:
            heapq.heappop(heap)
        boxes = [_Box(i, [i]) for i in range(1500)]
        acc += sum(b.key + len(b.items) for b in boxes)
        for _ in range(5):
            (arr * 2 + 1).sum()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Paced:
    """Times calls with calibration :func:`spin` runs between them.

    The host this runs on changes speed by tens of percent within seconds
    (other tenants).  A spin follows each call, or each group of calls
    lasting ``SPIN_EVERY_S``, and each call's wall time is scaled by
    ``SPIN_REF_S`` over the median of the ``SPIN_WINDOW`` spins before it
    and the ``SPIN_WINDOW`` after it.  That cancels the host's drift while
    leaving any change in the program's own speed intact: the spin runs no
    repository code.  Noise inside one call is left to the quantiles and
    the many calls per run.
    """

    def __init__(self) -> None:
        self.spins = [spin()]
        self.walls: list[float] = []
        #: per call: index of the last spin before it
        self.before: list[int] = []
        self._unspun = 0.0

    def measure(self, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.before.append(len(self.spins) - 1)
        self._unspun += wall
        if self._unspun >= SPIN_EVERY_S:
            self.spins.append(spin())
            self._unspun = 0.0
        return out

    def scale(self, i: int) -> float:
        """Reference-speed factor around call ``i``."""
        b = self.before[i]
        return SPIN_REF_S / statistics.median(
            self.spins[max(0, b - SPIN_WINDOW + 1): b + SPIN_WINDOW + 1]
        )

    def scaled(self) -> list[float]:
        """Every call's wall seconds at reference speed."""
        return [w * self.scale(i) for i, w in enumerate(self.walls)]


def pass_count(seconds: float, pass_seconds: float, pass_items: int, min_items: int) -> int:
    """How many passes a run measures.

    Work is issued in passes over a shuffled deck of cells or jobs, and a
    run measures a whole number of them: ``seconds`` of work at the
    pass's nominal duration on the reference machine, and at least
    ``min_items`` items.  The count depends on the arguments only, never
    on how fast the host happens to be, so every run of a workload
    measures exactly the same cells or jobs.
    """
    return max(round(seconds / pass_seconds), -(-min_items // pass_items), 1)


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0: the value for layers a workload skips."""
    from perfbench.manifest import PER_LAYER

    return {name: 0.0 for name in PER_LAYER}
