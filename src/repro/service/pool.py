"""Warm-Lab management for broker worker threads.

The process-pool sweep machinery (:mod:`repro.perf.parallel`) keeps one
warm :class:`~repro.harness.runner.Lab` per worker *process*; the broker
runs jobs on executor *threads*, so :class:`LabPool` keeps one warm Lab
per (thread, lab-shape) instead — same idea, same payoff: the second job
that touches a (dataset, size) pair skips the graph build, and repeated
static cells are served straight from the Lab's run memo.

The one rule that must never be broken (the bug class pinned by the
regression tests in ``tests/test_perf.py``): **dynamic jobs — anything
with an edit script — never touch a warm Lab.**  The Lab memo is keyed
``(app, dataset, impl, permuted)`` with no edit script in the key, and a
replay mutates kernel state across epochs; running job B's replay on a
Lab warmed by job A's could serve A's memoised results or A's residual
state.  Dynamic jobs get a fresh single-use Lab (graph builds still hit
the process-wide :mod:`repro.perf.buildcache`, so the isolation costs a
dictionary miss, not a rebuild).
"""

from __future__ import annotations

import threading

from repro.apps.common import AppResult
from repro.service.jobs import JobSpec, execute_spec

__all__ = ["LabPool"]


class LabPool:
    """Per-thread warm Labs, keyed by the shape of machine they simulate."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.labs_created = 0
        self.fresh_labs = 0  # single-use Labs built for dynamic jobs

    @staticmethod
    def _key(spec: JobSpec) -> tuple:
        return (spec.size, spec.devices, spec.partition)

    def _warm_lab(self, spec: JobSpec):
        from repro.harness.runner import Lab

        labs = getattr(self._local, "labs", None)
        if labs is None:
            labs = self._local.labs = {}
        key = self._key(spec)
        lab = labs.get(key)
        if lab is None:
            lab = labs[key] = Lab(
                size=spec.size,
                devices=spec.devices,
                partition=spec.partition,
            )
            with self._lock:
                self.labs_created += 1
        return lab

    def run(self, spec: JobSpec, *, sink=None) -> AppResult:
        """Execute ``spec`` on the right kind of Lab for its job class.

        ``sink`` (event capture for traced jobs) passes straight through
        to :func:`~repro.service.jobs.execute_spec`, which guarantees a
        sink always observes a fresh, non-memoised execution.
        """
        if spec.edits is not None:
            # dynamic: fresh single-use Lab, never installed as warm state
            with self._lock:
                self.fresh_labs += 1
            return execute_spec(spec, lab=None, sink=sink)
        return execute_spec(spec, lab=self._warm_lab(spec), sink=sink)

    def thread_lab_count(self) -> int:
        """Warm Labs held by the *calling* thread (test hook)."""
        labs = getattr(self._local, "labs", None)
        return len(labs) if labs else 0
