"""The two execution backends: serial loop and process pool.

Both implement the :class:`~repro.harness.dist.Backend` interface and
both capture a cell exception as a
:class:`~repro.harness.sweep.CellFailure` *result* instead of letting
it unwind the whole sweep -- in the pool path an uncaught worker
exception would abort ``imap_unordered`` mid-batch, discarding every
other cell's finished work; instead each cell resolves independently
and the runner decides at the end whether captured failures raise or
return (``capture_errors``).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.harness.sweep import CellFailure


def _run_cell(payload):
    """Pool worker entry: run one cell, tagging the result with its
    index and wall time (measured in the worker, so the parent's
    progress report shows real per-cell cost, not queueing delay).
    A cell exception becomes a :class:`CellFailure` result -- it must
    not poison the pool's result stream."""
    index, fn, kwargs = payload
    t0 = time.perf_counter()
    try:
        result = fn(**kwargs)
    except Exception as exc:
        result = CellFailure.from_exception(exc)
    return index, time.perf_counter() - t0, result


class SerialBackend:
    """Plain in-process loop; the fallback of the process pool."""

    name = "serial"

    def __init__(self, initializer: Callable[..., None] | None = None,
                 initargs: tuple = ()) -> None:
        self.initializer = initializer
        self.initargs = initargs

    def submit(self, cells, progress=None) -> dict:
        """Run every cell in order; exceptions become CellFailures."""
        cells = list(cells)
        if self.initializer is not None:
            self.initializer(*self.initargs)
        results: dict = {}
        total = len(cells)
        for done, cell in enumerate(cells, start=1):
            t0 = time.perf_counter()
            try:
                results[cell.key] = cell.fn(**cell.kwargs)
            except Exception as exc:
                results[cell.key] = CellFailure.from_exception(exc)
            if progress is not None:
                progress(done, total, cell.key, time.perf_counter() - t0)
        return results


class ProcessPoolBackend:
    """``multiprocessing`` pool fan-out (one machine, N processes).

    Raises ``OSError``/``ImportError`` when the platform cannot spawn a
    pool at all -- the sweep runner catches those and degrades to
    :class:`SerialBackend`; *cell* failures never surface that way.
    """

    name = "parallel"

    def __init__(self, jobs: int | None = None,
                 start_method: str | None = None,
                 initializer: Callable[..., None] | None = None,
                 initargs: tuple = ()) -> None:
        from repro.harness.sweep import resolve_jobs

        self.jobs = resolve_jobs(jobs)
        self.start_method = start_method
        self.initializer = initializer
        self.initargs = initargs

    def submit(self, cells, progress=None) -> dict:
        """Fan cells over the pool; results keyed in cell order."""
        import multiprocessing

        cells = list(cells)
        if not cells:
            return {}
        payloads = [(i, cell.fn, dict(cell.kwargs))
                    for i, cell in enumerate(cells)]
        context = multiprocessing.get_context(self.start_method)
        total = len(cells)
        done = 0
        results: list = [None] * len(cells)
        filled = [False] * len(cells)
        with context.Pool(
            processes=min(self.jobs, len(cells)),
            initializer=self.initializer,
            initargs=self.initargs,
        ) as pool:
            for index, wall, value in pool.imap_unordered(_run_cell, payloads):
                results[index] = value
                filled[index] = True
                done += 1
                if progress is not None:
                    progress(done, total, cells[index].key, wall)
        if not all(filled):  # pragma: no cover - pool never drops tasks
            raise OSError("process pool dropped sweep cells")
        return {cell.key: results[i] for i, cell in enumerate(cells)}
