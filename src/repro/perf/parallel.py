"""Process-parallel sweep runner over :class:`~repro.service.jobs.RunSpec` cells.

A sweep is embarrassingly parallel — every cell is an independent
deterministic simulation — so the only interesting design points are the
ones that go wrong in practice:

* **Deterministic ordering**: results come back in the exact order the
  cells were submitted, regardless of which worker finished first, so a
  parallel sweep is a drop-in replacement for the serial loop
  (``tests/test_perf.py`` asserts serial == parallel, order included).
* **Per-cell isolation**: an exception inside one cell — bad app name,
  diverging kernel, even a worker process dying — surfaces as a
  :class:`CellError` *in that cell's slot*; the other cells still return
  results and the sweep never hangs.
* **No warm state**: every cell, serial or in a worker process, runs
  through :func:`~repro.service.jobs.execute_spec`, which keeps nothing
  between calls except the process-wide graph build cache
  (:mod:`repro.perf.buildcache`).  Memoising results is the caller's
  business (:meth:`repro.harness.runner.Lab.run_cells` keys its memo by
  the spec).

Simulation outputs are bit-identical to serial execution by construction:
the engine is deterministic and each cell runs single-threaded in
whichever process it lands on.
"""

from __future__ import annotations

import traceback as _tb
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable

from repro.apps.common import AppResult
from repro.service.jobs import RunSpec, execute_spec

__all__ = ["CellError", "run_cells"]


@dataclass(frozen=True)
class CellError:
    """A cell that raised instead of returning a result.

    Carries enough to diagnose without re-running: the cell, the
    exception class name, its message, and the formatted traceback (empty
    when the worker process died and the exception crossed the pool
    boundary as a BrokenProcessPool).
    """

    cell: RunSpec
    kind: str
    message: str
    traceback: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.cell.app}/{self.cell.dataset}/{self.cell.impl}: {self.kind}: {self.message}"


def _run_cell(cell: RunSpec, settings: dict) -> AppResult:
    if cell.app == "__kill_worker__":
        # test hook (tests/test_perf.py): simulate a worker process dying
        # mid-cell so the BrokenProcessPool path stays covered.  Only in a
        # pool worker — in-process callers fall through to the normal
        # unknown-app error.
        import multiprocessing
        import os

        if multiprocessing.parent_process() is not None:
            os._exit(1)
    return execute_spec(cell, **settings)


def _error(cell: RunSpec, exc: BaseException, *, with_tb: bool = True) -> CellError:
    tb = "".join(_tb.format_exception(type(exc), exc, exc.__traceback__)) if with_tb else ""
    return CellError(cell=cell, kind=type(exc).__name__, message=str(exc), traceback=tb)


def run_cells(
    cells: Iterable[RunSpec],
    *,
    size: str | None = None,
    workers: int | None = None,
    **settings,
) -> list[AppResult | CellError]:
    """Run every cell; return results/errors in submission order.

    ``size``, when given, runs every cell at that size preset.
    ``workers`` of ``None``, 0 or 1 runs serially in-process (no pool
    startup cost; identical semantics).  Larger values fan cells out over
    a :class:`~concurrent.futures.ProcessPoolExecutor`.  ``settings`` are
    :func:`~repro.service.jobs.execute_spec` keywords (``gpu``,
    ``max_tasks``, ``validate``, ``metrics``) applied to every cell.
    """
    cell_list = [replace(c, size=size) if size else c for c in cells]
    if not workers or workers <= 1:
        out: list[AppResult | CellError] = []
        for cell in cell_list:
            try:
                out.append(_run_cell(cell, settings))
            except Exception as exc:
                out.append(_error(cell, exc))
        return out

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_cell, cell, settings) for cell in cell_list]
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
