"""Execution backends for the sweep harness.

A *backend* is anything that can run a batch of independent
:class:`~repro.harness.sweep.SweepCell` units and return their results
keyed by cell -- the contract :class:`Backend` spells out.  Both
implementations run on one machine:

- :class:`~repro.harness.dist.local.SerialBackend` -- the plain
  in-process loop (always available, the fallback of the pool).
- :class:`~repro.harness.dist.local.ProcessPoolBackend` -- a
  ``multiprocessing`` pool of ``jobs`` worker processes.

``SweepRunner(backend=...)`` (or ``--backend`` / ``REPRO_BACKEND``)
selects one; :func:`resolve_backend` parses the string spellings.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

BACKEND_ENV = "REPRO_BACKEND"


@runtime_checkable
class Backend(Protocol):
    """The execution-backend contract the sweep runner programs against.

    ``submit`` runs every cell and returns ``{cell.key: result}``; a
    cell that raised maps to a
    :class:`~repro.harness.sweep.CellFailure` (the *runner* decides
    whether captured failures are returned or raised).  ``name`` is the
    mode string recorded in ``SweepRunner.last_mode``.
    """

    name: str

    def submit(self, cells, progress=None) -> dict:
        """Run ``cells``; return results keyed by cell, in cell order."""
        ...


def resolve_backend(spec, *, jobs=None, initializer=None, initargs=()):
    """Turn a backend spec into a :class:`Backend` instance.

    Accepted spellings (the ``--backend`` flag / ``REPRO_BACKEND``):

    - ``"serial"`` -- in-process loop, one cell at a time.
    - ``"local"``  -- process pool with ``jobs`` workers.

    A :class:`Backend` instance passes through unchanged.
    """
    if spec is None:
        raise ValueError("backend spec is None; pass a string or Backend")
    if not isinstance(spec, str):
        if isinstance(spec, Backend):
            return spec
        raise TypeError(f"backend must be a str or Backend, got {spec!r}")

    from repro.harness.dist.local import ProcessPoolBackend, SerialBackend

    text = spec.strip().lower()
    if text == "serial":
        return SerialBackend(initializer=initializer, initargs=initargs)
    if text == "local":
        return ProcessPoolBackend(jobs=jobs, initializer=initializer,
                                  initargs=initargs)
    raise ValueError(
        f"unknown backend {spec.strip()!r}; expected serial or local")


__all__ = [
    "BACKEND_ENV",
    "Backend",
    "resolve_backend",
]
