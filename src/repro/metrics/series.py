"""Fixed-stride simulated-time series with bounded memory.

:class:`StrideSeries` bins observations onto a fixed simulated-time grid
of at most ``max_bins`` bins.  When an observation lands past the end of
the grid the stride *doubles* and adjacent bins fold pairwise, so a
series covering a nanosecond or an hour of simulated time retains the
same O(max_bins) state — the bounded-memory contract
``tests/test_metrics_stream.py`` asserts.

Two kinds:

* ``"rate"`` — each bin accumulates a count (events, items); the bin's
  rate is ``count / stride``.  Folding sums.
* ``"gauge"`` — each bin keeps the *last* value observed in it (in event
  stream order; queue depth and worker occupancy are step functions, so
  last-in-bin is the value the run held at the bin boundary).  Folding
  keeps the later bin's value; unobserved bins carry the previous value
  forward on export.

Rescaling is deterministic: it depends only on the observation stream,
never on wall clocks, so same-seed runs produce identical series.
"""

from __future__ import annotations

__all__ = ["StrideSeries"]

DEFAULT_MAX_BINS = 256
DEFAULT_STRIDE_NS = 1024.0

#: gauge sentinel for "no observation landed in this bin"
_UNSEEN = None


class StrideSeries:
    """Bounded-memory time series over simulated nanoseconds."""

    __slots__ = ("kind", "stride_ns", "max_bins", "bins", "hi", "rescales")

    def __init__(
        self,
        kind: str = "rate",
        *,
        stride_ns: float = DEFAULT_STRIDE_NS,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> None:
        if kind not in ("rate", "gauge"):
            raise ValueError(f"kind must be 'rate' or 'gauge', got {kind!r}")
        if stride_ns <= 0:
            raise ValueError("stride_ns must be positive")
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        self.kind = kind
        self.stride_ns = float(stride_ns)
        self.max_bins = int(max_bins)
        self.bins: list = [0.0 if kind == "rate" else _UNSEEN] * self.max_bins
        self.hi = -1  # highest bin index observed
        self.rescales = 0

    # ------------------------------------------------------------------
    def _rescale(self) -> None:
        """Double the stride; fold bin pairs (sum rates, keep later gauge)."""
        bins = self.bins
        half = self.max_bins // 2
        if self.kind == "rate":
            folded = [bins[2 * i] + bins[2 * i + 1] for i in range(half)]
            pad = [0.0] * (self.max_bins - half)
        else:
            folded = [
                bins[2 * i + 1] if bins[2 * i + 1] is not _UNSEEN else bins[2 * i]
                for i in range(half)
            ]
            pad = [_UNSEEN] * (self.max_bins - half)
        self.bins = folded + pad
        self.stride_ns *= 2.0
        self.hi = self.hi // 2
        self.rescales += 1

    def _bin(self, t_ns: float) -> int:
        if t_ns < 0.0:
            t_ns = 0.0
        idx = int(t_ns / self.stride_ns)
        while idx >= self.max_bins:
            self._rescale()
            idx = int(t_ns / self.stride_ns)
        if idx > self.hi:
            self.hi = idx
        return idx

    def add(self, t_ns: float, n: float = 1.0) -> None:
        """Rate series: accumulate ``n`` at simulated time ``t_ns``."""
        if self.kind != "rate":
            raise TypeError("add() is for rate series; use observe() on a gauge")
        # bind the index before touching self.bins: _bin() may rescale,
        # replacing the bins list
        idx = self._bin(t_ns)
        self.bins[idx] += n

    def observe(self, t_ns: float, value: float) -> None:
        """Gauge series: record ``value`` at simulated time ``t_ns``."""
        if self.kind != "gauge":
            raise TypeError("observe() is for gauge series; use add() on a rate")
        idx = self._bin(t_ns)
        self.bins[idx] = value

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Retained bin count (the memory bound, not the observed span)."""
        return len(self.bins)

    def total(self) -> float:
        """Rate series: everything added so far (folding keeps the sum)."""
        return float(sum(self.bins[: self.hi + 1]))

    def values(self) -> list[float]:
        """The observed prefix of the grid, gauges carried forward.

        Rates are raw per-bin counts (divide by ``stride_ns`` for a true
        rate); gauge bins with no observation repeat the previous value
        (step-function semantics).  Leading unobserved bins carry the
        *first* observed value back: a gauge is a step function whose
        level is unknown before its first observation, and the first
        observation is a strictly better estimate of that opening level
        than an invented 0.0 (a queue-depth series first observed at
        depth 7 did not start the run empty).
        """
        if self.hi < 0:
            return []
        if self.kind == "rate":
            return [float(v) for v in self.bins[: self.hi + 1]]
        window = self.bins[: self.hi + 1]
        last = 0.0
        for v in window:
            if v is not _UNSEEN:
                last = float(v)
                break
        out: list[float] = []
        for v in window:
            if v is not _UNSEEN:
                last = float(v)
            out.append(last)
        return out

    def to_dict(self) -> dict:
        vals = self.values()
        return {
            "kind": self.kind,
            "stride_ns": self.stride_ns,
            "max_bins": self.max_bins,
            "rescales": self.rescales,
            "values": vals,
            "peak": max(vals, default=0.0),
        }
