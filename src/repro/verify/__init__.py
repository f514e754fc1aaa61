"""Verification layer.

- :mod:`repro.verify.litmus` -- the classic litmus tests (MP, SB, LB,
  IRIW, 2+2W, R, S, CoRR, WRC, RWC, WRW+2W, WWC) in an abstract,
  fence-annotated form, plus materialization onto concrete MCMs.
- :mod:`repro.verify.armor` -- ArMOR-style fence refinement: drop the
  fences a stronger MCM provides natively.
- :mod:`repro.verify.axiomatic` -- exact allowed-outcome enumeration
  under the compound memory model (the herd7 substitute): per-thread
  ordering from the MCM engines + a single-copy-atomic global memory.
- :mod:`repro.verify.runner` -- randomized litmus execution on the full
  simulator; observed outcomes are checked against the axiomatic set.
- :mod:`repro.verify.invariants` -- SWMR / inclusion / compound-state
  monitors over a live system.
- :mod:`repro.verify.mc` -- the model checker (the Murphi substitute):
  stateless exhaustive search over network delivery orders with
  process-stable canonical fingerprints, partition-by-hash sharding
  over the sweep runner's serial loop or process pool, and deduplicated,
  shrunk, replayable counterexample traces (``python -m repro check``;
  see ``docs/VERIFY.md``).
- :mod:`repro.verify.explorer` -- what the checker builds on: the
  delivery-intercepting network, the wiring of the system under test,
  and the canonical state walk.
- :mod:`repro.verify.litmus_format` -- a herd7-inspired textual litmus
  format (parse/serialize), so new tests need no Python.
"""

from repro.verify.litmus import LITMUS_TESTS, LitmusTest
from repro.verify.axiomatic import enumerate_outcomes
from repro.verify.runner import run_litmus

__all__ = ["LITMUS_TESTS", "LitmusTest", "enumerate_outcomes", "run_litmus"]
