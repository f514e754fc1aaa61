"""Exhaustive model checking with replayable counterexamples.

``repro.verify.mc`` is the repository's one search over network
delivery orders of the implementation, built on the delivery
interception and state walk of :mod:`repro.verify.explorer`:

- :mod:`~repro.verify.mc.fingerprint` -- process-stable canonical state
  fingerprints (BLAKE2b over an injective encoding; identical under any
  ``PYTHONHASHSEED``).
- :mod:`~repro.verify.mc.model` -- :class:`CheckModel`, the picklable
  description from which any state is rebuilt by replaying its
  delivery path.
- :mod:`~repro.verify.mc.engine` -- :func:`explore`, the serial
  depth-first search over one live system, and :func:`check_model`,
  which turns it into a :class:`CheckResult`.
- :mod:`~repro.verify.mc.counterexample` -- deduplicated, shrunk,
  JSON-serializable :class:`Counterexample` traces that replay the
  violation byte-identically.

Entry points: :func:`check_model` / :func:`check_litmus` here, or
``python -m repro check --combo L:G:L`` on the command line.  See
``docs/VERIFY.md`` for the search and trace format.
"""

from repro.verify.mc.counterexample import (
    KIND_CRASH,
    KIND_DEADLOCK,
    KIND_INVARIANT,
    KIND_OUTCOME,
    Counterexample,
    dedup,
)
from repro.verify.mc.engine import (
    CheckResult,
    check_litmus,
    check_model,
    explore,
)
from repro.verify.mc.fingerprint import (
    canonical_bytes,
    canonical_fingerprint,
    fingerprint_parts,
)
from repro.verify.mc.model import CheckModel, litmus_model

__all__ = [
    "KIND_CRASH",
    "KIND_DEADLOCK",
    "KIND_INVARIANT",
    "KIND_OUTCOME",
    "CheckModel",
    "CheckResult",
    "Counterexample",
    "canonical_bytes",
    "canonical_fingerprint",
    "check_litmus",
    "check_model",
    "dedup",
    "explore",
    "fingerprint_parts",
    "litmus_model",
]
