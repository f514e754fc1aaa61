"""Parallel sweep execution substrate.

Every paper figure is a sweep over independent simulation cells --
(workload x protocol combo x MCM x seed) -- that share no state: each
cell builds its own :class:`~repro.sim.system.System` from a config and
a seed.  :class:`SweepRunner` runs those cells either in-process or
over a ``multiprocessing`` pool on this machine while keeping the
*results* keyed by cell, so the pooled sweep is bit-identical to the
serial one regardless of completion order.

Design constraints (and how they are met):

- **Spawn safety.**  Cell functions must be module-level callables and
  cell kwargs picklable values; each cell is pickled up front, so a bad
  cell degrades to the serial path instead of wedging the pool's
  task-handler thread (the pool then ships those same bytes).
- **Determinism.**  Results are stored by cell key (never by completion
  order) and every cell carries its own seed, so
  ``SweepRunner(jobs=N).map(cells) == SweepRunner(jobs=1).map(cells)``
  for any ``N``.
- **Per-cell failure isolation.**  A cell exception is captured as a
  :class:`CellFailure` instead of aborting the batch mid-flight; after
  every cell resolved, the runner raises :class:`SweepCellError`
  (listing all failures, completed results attached) unless
  ``capture_errors=True`` asked for the failures in the result dict.
- **Graceful fallback.**  ``jobs=1``, a single cell, an unpicklable
  cell, or an OS that cannot spawn processes all fall back to a plain
  in-process loop.  ``runner.last_mode`` records which path ran.
- **One pool per search.**  A bare :meth:`SweepRunner.map` opens and
  closes its own pool; inside ``with SweepRunner(...) as runner:`` the
  first map that fans out starts the pool and every later map reuses
  it, so a loop of batches (fuzz batches) pays for one pool, not one
  per batch.

Knobs:

- ``REPRO_JOBS`` (or the ``--jobs`` CLI flag / ``jobs=`` keyword):
  worker count, the one knob that picks the path: ``1`` runs the
  in-process loop, ``N > 1`` the pool; defaults to ``os.cpu_count()``.
- ``REPRO_MP_START``: multiprocessing start method (``fork`` /
  ``spawn`` / ``forkserver``); defaults to the platform default.

See ``docs/PERFORMANCE.md`` for measured numbers.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Mapping

JOBS_ENV = "REPRO_JOBS"
START_METHOD_ENV = "REPRO_MP_START"


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    ``fn`` must be a module-level callable (so it pickles by reference
    under the spawn start method) and ``kwargs`` picklable values; the
    runner calls ``fn(**kwargs)`` and files the return value under
    ``key``.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellFailure:
    """The captured outcome of a cell that could not produce a result.

    Exceptions are flattened to strings (type name, message, formatted
    traceback) so a failure crosses the process boundary exactly like a
    result would.
    """

    exc_type: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellFailure":
        """Flatten a live exception into a portable failure record."""
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback_module.format_exception(
                type(exc), exc, exc.__traceback__)),
        )

    def __str__(self) -> str:
        return f"{self.exc_type}: {self.message}"


class SweepCellError(RuntimeError):
    """One or more cells failed after every cell was given its chance.

    ``failures`` maps cell key -> :class:`CellFailure`; ``results``
    holds the successful cells, so a caller that wants partial output
    after a failure can still get it.
    """

    def __init__(self, failures: dict, results: dict) -> None:
        self.failures = failures
        self.results = results
        preview = "; ".join(
            f"{key}: {failure}" for key, failure
            in list(failures.items())[:3])
        more = "" if len(failures) <= 3 else f" (+{len(failures) - 3} more)"
        super().__init__(
            f"{len(failures)} of {len(failures) + len(results)} sweep "
            f"cells failed: {preview}{more}")


@dataclass(frozen=True)
class CellOutput:
    """A sweep-cell return value paired with its per-cell metric rollup.

    Cell functions that gather observability data return one of these;
    :func:`split_metrics` separates the plain values (what the figure
    machinery consumes) from the rollups (what ``--obs`` reports).
    """

    value: Any
    metrics: Any = None


def split_metrics(results: Mapping[Hashable, Any]) -> tuple[dict, dict]:
    """Split a sweep result map into ``(values, rollups)``.

    Plain results pass through unchanged with no rollup entry;
    :class:`CellOutput` results are unpacked.  The values dict always
    has the same keys as the input, so callers are agnostic to whether
    the sweep ran with observability on.
    """
    values: dict = {}
    rollups: dict = {}
    for key, result in results.items():
        if isinstance(result, CellOutput):
            values[key] = result.value
            if result.metrics is not None:
                rollups[key] = result.metrics
        else:
            values[key] = result
    return values, rollups


def _run_cell(fn: Callable[..., Any], kwargs) -> tuple:
    """Run one cell; return ``(wall_seconds, result)``.

    A cell exception becomes a :class:`CellFailure` result: in the pool
    it must not poison the result stream (an uncaught worker exception
    would abort ``imap_unordered`` mid-batch, discarding every other
    cell's finished work).  The wall time is measured where the cell
    ran, so progress reports show real per-cell cost, not queueing.
    """
    t0 = time.perf_counter()
    try:
        result = fn(**kwargs)
    except Exception as exc:
        result = CellFailure.from_exception(exc)
    return time.perf_counter() - t0, result


def _run_pickled(payload: bytes) -> tuple:
    """Pool worker entry: run one preflighted cell, tagged with its
    index; returns ``(index, wall_seconds, result)``."""
    index, fn, kwargs = pickle.loads(payload)
    return (index, *_run_cell(fn, kwargs))


class SweepRunner:
    """Run independent sweep cells in-process or over a process pool.

    Results come back as ``{cell.key: fn(**kwargs)}`` in the order the
    cells were given, independent of which worker finished first -- the
    property that keeps parallel figure regeneration bit-identical to
    the serial path.  Used as a context manager, the runner keeps the
    pool its first fanned-out :meth:`map` starts (sized ``jobs``) and
    reuses it until exit.
    """

    def __init__(
        self,
        jobs: int | None = None,
        start_method: str | None = None,
        progress: Callable[[int, int, Hashable, float], None] | None = None,
        capture_errors: bool = False,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.start_method = (
            start_method
            or os.environ.get(START_METHOD_ENV, "").strip()
            or None
        )
        #: Optional callback ``progress(done, total, key, wall_seconds)``
        #: fired as each cell completes (in completion order).
        self.progress = progress
        #: Return :class:`CellFailure` objects in the result dict
        #: instead of raising :class:`SweepCellError` at the end.
        self.capture_errors = capture_errors
        #: Path taken by the last map() call ("serial" or "parallel").
        self.last_mode: str | None = None
        #: The exception that forced a fallback to serial, if any.
        self.last_fallback: BaseException | None = None
        self._keep_pool = False
        self._pool = None

    def __enter__(self) -> "SweepRunner":
        self._keep_pool = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._keep_pool = False
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()

    # ------------------------------------------------------------------
    def map(self, cells: Iterable[SweepCell]) -> dict:
        """Run every cell; return ``{key: result}`` keyed deterministically."""
        cells = list(cells)
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            seen, dupes = set(), []
            for key in keys:
                if key in seen:
                    dupes.append(key)
                seen.add(key)
            raise ValueError(f"duplicate sweep cell keys: {dupes[:5]}")
        self.last_fallback = None
        if self.jobs <= 1 or len(cells) <= 1:
            return self._finish(self._map_serial(cells))
        payloads = self._preflight(cells)
        if payloads is None:  # spawn-unsafe, go serial
            return self._finish(self._map_serial(cells))
        try:
            results = self._map_parallel(cells, payloads)
        except (OSError, ImportError) as exc:
            # No pool on this platform (sandboxed /dev/shm, missing
            # semaphores, fork failure): degrade, don't die.
            self.last_fallback = exc
            results = self._map_serial(cells)
        return self._finish(results)

    def _finish(self, results: dict) -> dict:
        """Raise on captured failures unless ``capture_errors`` asked
        for them in the result dict."""
        if self.capture_errors:
            return results
        failures = {key: value for key, value in results.items()
                    if isinstance(value, CellFailure)}
        if failures:
            completed = {key: value for key, value in results.items()
                         if not isinstance(value, CellFailure)}
            raise SweepCellError(failures, completed)
        return results

    # ------------------------------------------------------------------
    def _preflight(self, cells) -> list[bytes] | None:
        """Pickle every cell once; None if any cannot cross a process
        boundary."""
        try:
            payloads = [pickle.dumps((i, cell.fn, dict(cell.kwargs)))
                        for i, cell in enumerate(cells)]
        except Exception as exc:  # PicklingError, AttributeError, TypeError
            self.last_fallback = exc
            return None
        return payloads

    def _map_serial(self, cells) -> dict:
        """The in-process loop."""
        self.last_mode = "serial"
        results: dict = {}
        for done, cell in enumerate(cells, start=1):
            wall, results[cell.key] = _run_cell(cell.fn, cell.kwargs)
            if self.progress is not None:
                self.progress(done, len(cells), cell.key, wall)
        return results

    def _map_parallel(self, cells, payloads) -> dict:
        """Fan the preflighted cells over the (kept or fresh) pool."""
        import multiprocessing

        pool = self._pool
        if pool is None:
            pool = multiprocessing.get_context(self.start_method).Pool(
                processes=(self.jobs if self._keep_pool
                           else min(self.jobs, len(cells))),
            )
            if self._keep_pool:
                self._pool = pool
        results: list = [None] * len(cells)
        try:
            for done, (index, wall, value) in enumerate(
                    pool.imap_unordered(_run_pickled, payloads), start=1):
                results[index] = value
                if self.progress is not None:
                    self.progress(done, len(cells), cells[index].key, wall)
        finally:
            if pool is not self._pool:
                pool.terminate()
        self.last_mode = "parallel"
        return {cell.key: results[i] for i, cell in enumerate(cells)}


def run_cells(
    fn: Callable[..., Any],
    keyed_kwargs: Mapping[Hashable, Mapping[str, Any]],
    jobs: int | None = None,
    **runner_kwargs,
) -> dict:
    """Convenience wrapper: sweep one function over ``{key: kwargs}``."""
    runner = SweepRunner(jobs=jobs, **runner_kwargs)
    return runner.map(
        SweepCell(key=key, fn=fn, kwargs=kwargs)
        for key, kwargs in keyed_kwargs.items()
    )
