"""Parallel sweep execution substrate.

Every paper figure is a sweep over independent simulation cells --
(workload x protocol combo x MCM x seed) -- that share no state: each
cell builds its own :class:`~repro.sim.system.System` from a config and
a seed.  :class:`SweepRunner` fans those cells out over an execution
*backend* while keeping the *results* keyed by cell, so any backend's
sweep is bit-identical to the serial one regardless of completion
order.

Backends (see :mod:`repro.harness.dist`), both on this machine:

- the default local process pool (``jobs`` workers),
- ``backend="serial"`` -- the plain in-process loop.

Design constraints (and how they are met):

- **Spawn safety.**  Cell functions must be module-level callables and
  cell kwargs picklable values; both are verified up front with a
  pre-flight ``pickle.dumps`` so a bad cell degrades to the serial path
  instead of wedging the pool's task-handler thread.
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

Knobs:

- ``REPRO_JOBS`` (or the ``--jobs`` CLI flag / ``jobs=`` keyword):
  worker count; defaults to ``os.cpu_count()``; ``1`` forces the
  serial path.
- ``REPRO_BACKEND`` (or ``--backend`` / ``backend=``): execution
  backend spec; see :func:`repro.harness.dist.resolve_backend`.
- ``REPRO_MP_START``: multiprocessing start method (``fork`` /
  ``spawn`` / ``forkserver``); defaults to the platform default.

See ``docs/PERFORMANCE.md`` for measured numbers.
"""

from __future__ import annotations

import os
import pickle
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
    result would.  ``kind`` names the failure path (``"error"``: the
    cell raised) and ``attempts`` counts how many times the cell was
    tried in total.
    """

    exc_type: str
    message: str
    traceback: str = ""
    kind: str = "error"
    attempts: int = 1

    @classmethod
    def from_exception(cls, exc: BaseException, kind: str = "error",
                       attempts: int = 1) -> "CellFailure":
        """Flatten a live exception into a portable failure record."""
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback_module.format_exception(
                type(exc), exc, exc.__traceback__)),
            kind=kind,
            attempts=attempts,
        )

    def __str__(self) -> str:
        return f"[{self.kind}] {self.exc_type}: {self.message}"


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


class SweepRunner:
    """Fan independent sweep cells out over an execution backend.

    Results come back as ``{cell.key: fn(**kwargs)}`` in the order the
    cells were given, independent of which worker finished first -- the
    property that keeps parallel figure regeneration bit-identical to
    the serial path.
    """

    def __init__(
        self,
        jobs: int | None = None,
        start_method: str | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        progress: Callable[[int, int, Hashable, float], None] | None = None,
        backend=None,
        capture_errors: bool = False,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.start_method = (
            start_method
            or os.environ.get(START_METHOD_ENV, "").strip()
            or None
        )
        self.initializer = initializer
        self.initargs = initargs
        #: Optional callback ``progress(done, total, key, wall_seconds)``
        #: fired as each cell completes (in completion order).
        self.progress = progress
        #: Execution backend: None for the built-in local pool, a spec
        #: string (``"serial"`` or ``"local"``, see
        #: :func:`repro.harness.dist.resolve_backend`) or a Backend
        #: instance.  Defaults to the ``REPRO_BACKEND`` env knob.
        if backend is None:
            from repro.harness.dist import BACKEND_ENV

            backend = os.environ.get(BACKEND_ENV, "").strip() or None
        self.backend = backend
        #: Return :class:`CellFailure` objects in the result dict
        #: instead of raising :class:`SweepCellError` at the end.
        self.capture_errors = capture_errors
        #: Backend name after the last map() call ("serial" or
        #: "parallel").
        self.last_mode: str | None = None
        #: The exception that forced a fallback to serial, if any.
        self.last_fallback: BaseException | None = None

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
        backend = self._explicit_backend()
        if backend is not None:
            results = backend.submit(cells, progress=self.progress)
            self.last_mode = backend.name
            return self._finish(results)
        return self._finish(self._map_local(cells))

    # ------------------------------------------------------------------
    def _explicit_backend(self):
        """Resolve the explicit backend, if one was requested.

        ``"local"`` and ``"serial"`` resolve to None here and steer the
        built-in path instead, so they keep its preflight checks and
        pool fallback behaviour.
        """
        spec = self.backend
        if spec is None:
            return None
        if isinstance(spec, str):
            text = spec.strip().lower()
            if text == "local":
                return None
            if text == "serial":
                self.jobs = 1
                return None
        from repro.harness.dist import resolve_backend

        return resolve_backend(spec, jobs=self.jobs,
                               initializer=self.initializer,
                               initargs=self.initargs)

    def _map_local(self, cells) -> dict:
        """The built-in path: process pool with serial fallbacks."""
        if self.jobs <= 1 or len(cells) <= 1:
            return self._map_serial(cells)
        if not self._picklable(cells):  # spawn-unsafe, go serial
            return self._map_serial(cells)
        try:
            return self._map_parallel(cells)
        except (OSError, ImportError) as exc:
            # No pool on this platform (sandboxed /dev/shm, missing
            # semaphores, fork failure): degrade, don't die.
            self.last_fallback = exc
            return self._map_serial(cells)

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
    def _picklable(self, cells) -> bool:
        payloads = [(i, cell.fn, dict(cell.kwargs))
                    for i, cell in enumerate(cells)]
        try:
            pickle.dumps(payloads)
            if self.initializer is not None:
                pickle.dumps((self.initializer, self.initargs))
        except Exception as exc:  # PicklingError, AttributeError, TypeError
            self.last_fallback = exc
            return False
        return True

    def _map_serial(self, cells) -> dict:
        from repro.harness.dist.local import SerialBackend

        self.last_mode = "serial"
        backend = SerialBackend(initializer=self.initializer,
                                initargs=self.initargs)
        return backend.submit(cells, progress=self.progress)

    def _map_parallel(self, cells) -> dict:
        from repro.harness.dist.local import ProcessPoolBackend

        backend = ProcessPoolBackend(
            jobs=self.jobs, start_method=self.start_method,
            initializer=self.initializer, initargs=self.initargs)
        results = backend.submit(cells, progress=self.progress)
        self.last_mode = "parallel"
        return results


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
