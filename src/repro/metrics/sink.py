"""Streaming :class:`MetricsSink` — bounded-memory run telemetry.

The :class:`~repro.obs.collector.Collector` keeps every event; fine for a
trace you will scrub through, wasteful for the always-on telemetry the
paper's time-series arguments (frontier size vs. launch overhead, worker
occupancy, queue depth under stealing) need.  :class:`MetricsSink`
consumes the same :class:`~repro.obs.events.EventSink` stream and retains
only

* **counters** — one integer/float per lifecycle edge (pops, completes,
  retired items, queue operations, steals, launches, …);
* **histograms** (:class:`~repro.metrics.hist.LogHistogram`) — task
  latency (pop→complete), queue-atomic wait, generation span;
* **time series** (:class:`~repro.metrics.series.StrideSeries`) — queue
  depth, in-flight worker slots, retire throughput, steal rate and
  empty-pop rate on a fixed simulated-time grid.

On an edit replay the sink rides every epoch and reads every time
through an :class:`~repro.obs.events.EpochClock`, so the epochs lie end to
end and one summary covers the whole replay.

Retained state is O(histogram buckets + series bins + live workers +
live queues) — independent of event count.  The sink is passive: it
never mutates events and attaching it (alone or composed through
:class:`~repro.obs.events.MultiSink`) leaves the simulation bit-identical,
which ``tests/test_equivalence.py`` pins against the golden digests.
"""

from __future__ import annotations

from repro.metrics.hist import LogHistogram
from repro.metrics.series import DEFAULT_MAX_BINS, DEFAULT_STRIDE_NS, StrideSeries
from repro.obs.events import (
    Barrier,
    EmptyPop,
    EpochClock,
    EpochMark,
    GenerationEnd,
    GenerationStart,
    KernelLaunch,
    PolicySwitch,
    QueuePop,
    QueuePush,
    QueueSteal,
    RemotePush,
    RemoteSteal,
    TaskComplete,
    TaskPop,
    TaskRead,
    TraceEvent,
)

__all__ = [
    "MetricsSink",
    "COUNTER_NAMES",
    "HISTOGRAM_NAMES",
    "SERIES_NAMES",
    "DEVICE_COUNTER_NAMES",
]

COUNTER_NAMES = (
    "task_pops",
    "task_reads",
    "task_completes",
    "task_items",
    "items_retired",
    "items_pushed_by_tasks",
    "work_units",
    "queue_pushes",
    "queue_pops",
    "queue_items_pushed",
    "queue_items_popped",
    "empty_pops",
    "steals",
    "steal_items",
    "kernel_launches",
    "launch_ns",
    "barriers",
    "barrier_ns",
    "policy_switches",
    "generations",
    "max_queue_depth",
    "max_in_flight",
    # multi-device counters: zero on every single-device run (the
    # distributed policy is the only emitter of Remote* events)
    "remote_pushes",
    "remote_items",
    "remote_steals",
    "comm_ns",
)

HISTOGRAM_NAMES = ("task_latency_ns", "queue_wait_ns", "generation_span_ns")

SERIES_NAMES = (
    "queue_depth", "in_flight", "retired", "steals", "empty_pops",
    "remote_items",
)

#: per-device counter keys of :attr:`MetricsSink.device_counters`
DEVICE_COUNTER_NAMES = (
    "queue_pushes",
    "queue_pops",
    "items_pushed",
    "items_popped",
    "max_depth",
    "remote_items_in",
    "remote_steals",
)


class MetricsSink:
    """EventSink deriving counters, histograms and stride series online."""

    def __init__(
        self,
        *,
        stride_ns: float = DEFAULT_STRIDE_NS,
        max_bins: int = DEFAULT_MAX_BINS,
        hist_subbuckets: int = 4,
    ) -> None:
        self.counters: dict[str, float] = {name: 0 for name in COUNTER_NAMES}
        self.counters["work_units"] = 0.0
        self.counters["launch_ns"] = 0.0
        self.counters["barrier_ns"] = 0.0
        self.counters["comm_ns"] = 0.0
        self.histograms: dict[str, LogHistogram] = {
            name: LogHistogram(subbuckets=hist_subbuckets) for name in HISTOGRAM_NAMES
        }
        self.series: dict[str, StrideSeries] = {
            "queue_depth": StrideSeries("gauge", stride_ns=stride_ns, max_bins=max_bins),
            "in_flight": StrideSeries("gauge", stride_ns=stride_ns, max_bins=max_bins),
            "retired": StrideSeries("rate", stride_ns=stride_ns, max_bins=max_bins),
            "steals": StrideSeries("rate", stride_ns=stride_ns, max_bins=max_bins),
            "empty_pops": StrideSeries("rate", stride_ns=stride_ns, max_bins=max_bins),
            "remote_items": StrideSeries("rate", stride_ns=stride_ns, max_bins=max_bins),
        }
        self.events_seen = 0
        self.end_t = 0.0
        self._clock = EpochClock()
        # live (bounded) tracking state: one slot per in-flight worker,
        # one per non-empty physical queue, one open generation bracket
        self._open_pops: dict[int, float] = {}
        self._queue_depths: dict[str, int] = {}
        self._queue_total = 0
        self._in_flight = 0
        self._open_generation: tuple[int, float] | None = None
        #: per-device counters, keyed by the "@dev{i}" queue-name suffix /
        #: the device ids Remote* events carry; empty on single-device runs
        self.device_counters: dict[int, dict[str, float]] = {}

    def _device(self, dev: int) -> dict[str, float]:
        slot = self.device_counters.get(dev)
        if slot is None:
            slot = self.device_counters[dev] = {
                name: 0 for name in DEVICE_COUNTER_NAMES
            }
        return slot

    @staticmethod
    def _device_of(queue: str) -> int | None:
        """Device index from a ``{name}@dev{i}`` queue name, else ``None``."""
        _, sep, tail = queue.rpartition("@dev")
        if sep and tail.isdigit():
            return int(tail)
        return None

    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        self.events_seen += 1
        t = self._clock.at(event)
        c = self.counters
        if isinstance(event, (QueuePush, QueuePop)):
            wait_hist = self.histograms["queue_wait_ns"]
            wait_hist.record(event.wait_ns)
            depths = self._queue_depths
            self._queue_total += event.depth - depths.get(event.queue, 0)
            if event.depth == 0:
                depths.pop(event.queue, None)  # drained: drop the slot
            else:
                depths[event.queue] = event.depth
            total = self._queue_total
            self.series["queue_depth"].observe(t, total)
            if total > c["max_queue_depth"]:
                c["max_queue_depth"] = total
            # one deque per device in the distributed worklist, so the
            # event's own depth IS the device's depth
            dev = self._device_of(event.queue)
            slot = self._device(dev) if dev is not None else None
            if isinstance(event, QueuePush):
                c["queue_pushes"] += 1
                c["queue_items_pushed"] += event.items
                if slot is not None:
                    slot["queue_pushes"] += 1
                    slot["items_pushed"] += event.items
            else:
                c["queue_pops"] += 1
                c["queue_items_popped"] += event.items
                if slot is not None:
                    slot["queue_pops"] += 1
                    slot["items_popped"] += event.items
            if slot is not None and event.depth > slot["max_depth"]:
                slot["max_depth"] = event.depth
        elif isinstance(event, TaskPop):
            c["task_pops"] += 1
            c["task_items"] += event.items
            self._open_pops[event.worker] = t
            self._in_flight += 1
            if self._in_flight > c["max_in_flight"]:
                c["max_in_flight"] = self._in_flight
            self.series["in_flight"].observe(t, self._in_flight)
        elif isinstance(event, TaskRead):
            c["task_reads"] += 1
        elif isinstance(event, TaskComplete):
            c["task_completes"] += 1
            c["items_retired"] += event.retired
            c["items_pushed_by_tasks"] += event.pushed
            c["work_units"] += event.work
            start = self._open_pops.pop(event.worker, None)
            if start is not None:
                self.histograms["task_latency_ns"].record(t - start)
                self._in_flight -= 1
                self.series["in_flight"].observe(t, self._in_flight)
            self.series["retired"].add(t, event.retired)
        elif isinstance(event, EmptyPop):
            c["empty_pops"] += 1
            self.histograms["queue_wait_ns"].record(event.wait_ns)
            self.series["empty_pops"].add(t)
        elif isinstance(event, QueueSteal):
            c["steals"] += 1
            c["steal_items"] += event.items
            self.series["steals"].add(t)
        elif isinstance(event, RemotePush):
            c["remote_pushes"] += 1
            c["remote_items"] += event.items
            c["comm_ns"] += event.transfer_ns
            self.series["remote_items"].add(t, event.items)
            self._device(event.dst)["remote_items_in"] += event.items
        elif isinstance(event, RemoteSteal):
            c["remote_steals"] += 1
            c["comm_ns"] += event.transfer_ns
            self.series["remote_items"].add(t, event.items)
            self._device(event.thief)["remote_steals"] += 1
        elif isinstance(event, KernelLaunch):
            c["kernel_launches"] += 1
            c["launch_ns"] += event.duration_ns
            t += event.duration_ns
        elif isinstance(event, Barrier):
            c["barriers"] += 1
            c["barrier_ns"] += event.duration_ns
            t += event.duration_ns
        elif isinstance(event, GenerationStart):
            self._open_generation = (event.generation, t)
        elif isinstance(event, GenerationEnd):
            open_gen = self._open_generation
            if open_gen is not None and open_gen[0] == event.generation:
                c["generations"] += 1
                self.histograms["generation_span_ns"].record(t - open_gen[1])
            self._open_generation = None
        elif isinstance(event, PolicySwitch):
            c["policy_switches"] += 1
        elif isinstance(event, EpochMark):
            # the next epoch runs on a fresh engine, its queues empty
            self._queue_depths.clear()
            self._queue_total = 0
        if t > self.end_t:
            self.end_t = t

    # ------------------------------------------------------------------
    def retained(self) -> int:
        """Retained-object count — the bounded-memory contract.

        Sums every growable container the sink holds: histogram buckets,
        series bins, live worker slots and live queue slots.  On a run
        with 10× the events this number must not move beyond the bucket /
        stride caps (``tests/test_metrics_stream.py``).
        """
        return (
            sum(len(h) for h in self.histograms.values())
            + sum(len(s) for s in self.series.values())
            + len(self._open_pops)
            + len(self._queue_depths)
            + len(self.counters)
            + sum(len(d) for d in self.device_counters.values())
        )
