"""Process-parallel sweep runner for Lab grids.

A Lab sweep is embarrassingly parallel — every (app, dataset, impl) cell
is an independent deterministic simulation — so the only interesting
design points are the ones that go wrong in practice:

* **Deterministic ordering**: results come back in the exact order the
  cells were submitted, regardless of which worker finished first, so a
  parallel sweep is a drop-in replacement for the serial loop
  (``tests/test_perf.py`` asserts serial == parallel, order included).
* **Per-cell isolation**: an exception inside one cell — bad app name,
  diverging kernel, even a worker process dying — surfaces as a
  :class:`CellError` *in that cell's slot*; the other cells still return
  results and the sweep never hangs.
* **Per-process warm state**: each worker process keeps one Lab per
  (size, spec) so graph builds are shared across the cells it executes
  (and, through :mod:`repro.perf.buildcache`, across Labs within the
  process).

Simulation outputs are bit-identical to serial execution by construction:
the engine is deterministic and each cell runs single-threaded in
whichever process it lands on.
"""

from __future__ import annotations

import traceback as _tb
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.apps.common import AppResult
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = ["SweepCell", "CellError", "run_cells", "replay_cell"]


@dataclass(frozen=True)
class SweepCell:
    """One (app, dataset, impl) cell of a sweep grid.

    ``edits`` makes the cell *dynamic*: instead of one static run, the
    cell replays the edit script through the incremental harness
    (:func:`repro.apps.dynamic.replay_app`) and yields the final epoch's
    result.  Dynamic cells are deliberately excluded from every warm-Lab
    memo — the memo key ``(app, dataset, impl, permuted)`` has no edit
    script in it, so two dynamic cells sharing coordinates but differing
    in ``edits`` would otherwise collide (see :func:`replay_cell`).
    """

    app: str
    dataset: str
    impl: str
    permuted: bool = False
    edits: str | None = None


@dataclass(frozen=True)
class CellError:
    """A cell that raised instead of returning a result.

    Carries enough to diagnose without re-running: the cell, the
    exception class name, its message, and the formatted traceback (empty
    when the worker process died and the exception crossed the pool
    boundary as a BrokenProcessPool).
    """

    cell: SweepCell
    kind: str
    message: str
    traceback: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.cell.app}/{self.cell.dataset}/{self.cell.impl}: {self.kind}: {self.message}"


# one warm Lab per worker process, keyed by the sweep parameters
_WORKER_LAB = None
_WORKER_KEY = None


def _worker_lab(
    size: str,
    spec: GpuSpec,
    max_tasks: int,
    validate: bool,
    generation: int,
    devices: int | None,
    partition: str | None,
):
    global _WORKER_LAB, _WORKER_KEY
    key = (size, spec, max_tasks, validate, generation, devices, partition)
    if _WORKER_KEY != key:
        from repro.harness.runner import Lab

        _WORKER_LAB = Lab(
            size=size, spec=spec, max_tasks=max_tasks, validate=validate,
            devices=devices, partition=partition,
        )
        _WORKER_KEY = key
    return _WORKER_LAB


def replay_cell(cell: SweepCell, lab) -> AppResult:
    """Run one dynamic cell: replay its edit script, return the final epoch.

    Replays are never memoised (:meth:`repro.harness.runner.Lab.replay`),
    so running one on a Lab is always safe; what is NOT safe is storing
    the outcome in a Lab's run memo, whose key lacks the edit script.
    Callers that fold sweep results into warm state must skip dynamic
    cells — ``tests/test_perf.py`` pins both directions.
    """
    dres = lab.replay(cell.app, cell.dataset, cell.impl, cell.edits)
    final = dres.final
    final.extra["replay_edits"] = dres.edits
    final.extra["replay_epochs"] = len(dres.epochs)
    final.extra["replay_total_elapsed_ns"] = float(dres.total_elapsed_ns)
    final.extra["replay_total_work_units"] = float(dres.total_work_units)
    return final


def _run_cell(
    cell: SweepCell,
    size: str,
    spec: GpuSpec,
    max_tasks: int,
    validate: bool,
    generation: int,
    devices: int | None = None,
    partition: str | None = None,
    lab=None,
):
    if cell.app == "__kill_worker__":
        # test hook (tests/test_perf.py): simulate a worker process dying
        # mid-cell so the BrokenProcessPool path stays covered.  Only in a
        # pool worker — in-process callers fall through to the normal
        # unknown-app error.
        import multiprocessing
        import os

        if multiprocessing.parent_process() is not None:
            os._exit(1)
    if cell.edits is not None:
        # dynamic cells bypass warm Labs entirely (both the pool worker's
        # `_WORKER_LAB` and the serial path's local Lab): a fresh
        # single-use Lab guarantees no memoised static result is served
        # for the cell's coordinates and no warm state survives the
        # replay.  Graph builds still come from the process-wide build
        # cache, so the isolation costs a dict miss, not a rebuild.
        from repro.harness.runner import Lab

        fresh = Lab(
            size=size, spec=spec, max_tasks=max_tasks, validate=validate,
            devices=devices, partition=partition,
        )
        return replay_cell(cell, fresh)
    if lab is None:
        lab = _worker_lab(
            size, spec, max_tasks, validate, generation, devices, partition
        )
    return lab.run(cell.app, cell.dataset, cell.impl, permuted=cell.permuted)


def _error(cell: SweepCell, exc: BaseException, *, with_tb: bool = True) -> CellError:
    tb = "".join(_tb.format_exception(type(exc), exc, exc.__traceback__)) if with_tb else ""
    return CellError(cell=cell, kind=type(exc).__name__, message=str(exc), traceback=tb)


def run_cells(
    cells: Iterable[SweepCell],
    *,
    size: str = "small",
    spec: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    validate: bool = False,
    workers: int | None = None,
    generation: int = 0,
    devices: int | None = None,
    partition: str | None = None,
) -> list[AppResult | CellError]:
    """Run every cell; return results/errors in submission order.

    ``workers`` of ``None``, 0 or 1 runs serially in-process (no pool
    startup cost; identical semantics).  Larger values fan cells out over
    a :class:`~concurrent.futures.ProcessPoolExecutor`.  ``generation``
    distinguishes benchmark repeats: bumping it retires the warm
    per-process Lab so a repeat re-simulates instead of replaying the
    previous sweep's memoised results.
    """
    cell_list: Sequence[SweepCell] = list(cells)
    if not workers or workers <= 1:
        # A local Lab, not the module-level `_WORKER_LAB` cache: that cache
        # is warm state for *pool worker* processes, and running serially in
        # the caller's process must not install state that outlives this
        # call (a leaked warm Lab would replay memoised results across
        # serial sweeps and tests).  Within the call, Lab.run still memoises
        # duplicate cells.
        from repro.harness.runner import Lab

        local_lab = Lab(
            size=size, spec=spec, max_tasks=max_tasks, validate=validate,
            devices=devices, partition=partition,
        )
        out: list[AppResult | CellError] = []
        for cell in cell_list:
            try:
                out.append(
                    _run_cell(
                        cell, size, spec, max_tasks, validate, generation,
                        devices, partition, lab=local_lab,
                    )
                )
            except Exception as exc:
                out.append(_error(cell, exc))
        return out

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _run_cell, cell, size, spec, max_tasks, validate,
                generation, devices, partition,
            )
            for cell in cell_list
        ]
        out = []
        for cell, fut in zip(cell_list, futures):
            try:
                out.append(fut.result())
            except Exception as exc:
                # includes BrokenProcessPool when a worker died: the error
                # lands in this cell's slot and iteration continues — the
                # sweep degrades per-cell instead of hanging or aborting
                out.append(_error(cell, exc, with_tb=exc.__traceback__ is not None))
        return out
