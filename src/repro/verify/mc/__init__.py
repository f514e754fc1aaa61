"""Sharded exhaustive model checking with replayable counterexamples.

``repro.verify.mc`` is the repository's one search over network
delivery orders of the implementation, built on the delivery
interception and state walk of :mod:`repro.verify.explorer`:

- :mod:`~repro.verify.mc.fingerprint` -- process-stable canonical state
  fingerprints (BLAKE2b over an injective encoding; identical under any
  ``PYTHONHASHSEED``).
- :mod:`~repro.verify.mc.model` -- :class:`CheckModel`, the picklable
  description from which any worker reconstructs states by replaying
  delivery paths (stateless model checking).
- :mod:`~repro.verify.mc.engine` -- :class:`ModelChecker`, the
  partition-by-hash frontier engine over one
  :class:`~repro.harness.sweep.SweepRunner`; shard *k* of *n* owns the states
  with ``fingerprint % n == k``.
- :mod:`~repro.verify.mc.counterexample` -- deduplicated, shrunk,
  JSON-serializable :class:`Counterexample` traces that replay the
  violation byte-identically.

Entry points: :func:`check_model` / :func:`check_litmus` here, or
``python -m repro check --combo L:G:L`` on the command line.  See
``docs/VERIFY.md`` for the sharding discipline and trace format.
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
    ModelChecker,
    check_litmus,
    check_model,
    explore_shard,
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
    "ModelChecker",
    "canonical_bytes",
    "canonical_fingerprint",
    "check_litmus",
    "check_model",
    "dedup",
    "explore_shard",
    "fingerprint_parts",
    "litmus_model",
]
