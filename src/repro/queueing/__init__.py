"""Simulated concurrent work queues.

Atos's central data structure is a single shared task queue that GPU workers
pop from and push to with atomic counter operations.  :class:`MpmcQueue`
models one such queue: FIFO payload storage plus a serialization point that
charges simulated time for every atomic acquire — the contention model that
lets benchmarks measure when a single shared queue stops being "fast enough
to keep GPU workers occupied" (paper Section 1).

:class:`QueueBroker` is the ``Queues`` object from the paper's Listing 3:
it fans pushes across ``num_queues`` physical queues (round-robin) and lets
workers pop from their home queue first, stealing from siblings when empty.
"""

from repro.queueing.mpmc import MpmcQueue
from repro.queueing.broker import QueueBroker
from repro.queueing.priority import BucketedWorklist
from repro.queueing.protocol import Worklist, WorklistStats
from repro.queueing.stealing import StealingWorklist

__all__ = [
    "MpmcQueue",
    "QueueBroker",
    "BucketedWorklist",
    "StealingWorklist",
    "Worklist",
    "WorklistStats",
]
