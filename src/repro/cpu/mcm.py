"""Memory-consistency-model engines.

An engine answers two questions for the core model:

- ``can_issue(i, core)`` -- may op ``i`` leave the instruction window now?
- ``fence_done(i, core)`` -- has fence op ``i``'s ordering condition been
  satisfied (a fence completes without touching memory)?

plus two store-buffer parameters (``uses_store_buffer`` and
``sb_parallelism``) and one fact about the model, ``in_order``: SC and
TSO let only the head op (the oldest below ``RETIRED``) issue or
complete a fence, so the core asks them about that op alone.  Op
statuses live on the core: ``PEND`` (0),
``SCHED`` (1, waiting out its compute gap), ``ISSUED`` (2, in the memory
system), ``RETIRED`` (3, a store sitting in the store buffer) and
``DONE`` (4, globally performed).

The engines implement the models the paper simulates with gem5's
``needsTSO`` flag:

``SC``
    every op waits for all program-order predecessors to complete.

``TSO`` (x86)
    loads are performed in program order; stores retire in order into a
    FIFO store buffer that drains one entry at a time, so loads may
    complete ahead of older stores (store-load reordering) with
    store-to-load forwarding from the buffer; MFENCE/RMW drain the
    buffer.

``WEAK`` (Arm)
    ops issue out of order constrained only by data/address
    dependencies, same-address coherence order, fences (full / ld / st)
    and acquire/release semantics; the store buffer drains several
    entries in parallel.

``RCC``
    WEAK ordering; the acquire/release ops additionally trigger
    self-invalidation/write-flush flows in the RCC cache hierarchy
    (handled by the RCC L1 controller, not here).
"""

from __future__ import annotations

from repro.cpu.isa import (
    FENCE,
    FENCE_FULL,
    FENCE_LD,
    FENCE_ST,
    LOAD,
    LOAD_ACQ,
    RMW,
    STORE,
    STORE_REL,
    Op,
)

PEND = 0
SCHED = 1
ISSUED = 2
RETIRED = 3
DONE = 4


class MCMEngine:
    """Base class; subclasses override the ordering predicates."""

    name = "base"
    uses_store_buffer = True
    sb_parallelism = 1
    #: True when no op after the head (the oldest op below RETIRED) can
    #: pass its test -- :meth:`can_issue` for a memory op,
    #: :meth:`fence_done` for a fence -- whatever the statuses: every
    #: rule of the model waits for all earlier ops to be at least
    #: RETIRED.  A fixed fact about the model, not a tuning knob: the
    #: core then asks about the head op alone (``tests/test_cpu.py``
    #: checks the claim on every engine).
    in_order = False

    def can_issue(self, i: int, core) -> bool:
        """May op ``i`` leave the instruction window now?"""
        raise NotImplementedError

    def fence_done(self, i: int, core) -> bool:
        """Has fence ``i``'s ordering condition been satisfied?"""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------
    # The scans below start at the core's monotone base pointers: every
    # op before ``done_base()`` is DONE, and every op before
    # ``retired_base()`` already satisfies "reads DONE, writes at least
    # buffered" (only stores can sit in RETIRED).  Every core passed to
    # an engine provides both pointers: the timing core keeps them
    # monotone, the axiomatic adapter returns 0 (scan from the start).

    @staticmethod
    def _deps_done(op: Op, core) -> bool:
        status = core.status
        for d in op.deps:
            if status[d] != DONE:
                return False
        return True

    @staticmethod
    def _all_prior_done(i: int, core) -> bool:
        start = core.done_base()
        status = core.status
        for j in range(start, i):
            if status[j] != DONE:
                return False
        return True

    @staticmethod
    def _prior_reads_done_writes_retired(i: int, core) -> bool:
        """TSO retire condition: loads performed, stores at least buffered."""
        start = core.retired_base()
        ops = core.ops
        status = core.status
        for j in range(start, i):
            op = ops[j]
            if op.is_write and op.kind != RMW:
                if status[j] < RETIRED:
                    return False
            elif status[j] != DONE:
                return False
        return True


class SCEngine(MCMEngine):
    """Sequential consistency: fully serial, no store buffer."""

    name = "SC"
    uses_store_buffer = False
    in_order = True

    def can_issue(self, i: int, core) -> bool:
        return self._all_prior_done(i, core)

    def fence_done(self, i: int, core) -> bool:
        return self._all_prior_done(i, core)


class TSOEngine(MCMEngine):
    """x86-TSO: in-order loads, FIFO store buffer, store-load reordering."""

    name = "TSO"
    uses_store_buffer = True
    sb_parallelism = 1
    in_order = True

    def can_issue(self, i: int, core) -> bool:
        op = core.ops[i]
        if not self._deps_done(op, core):
            return False
        if op.kind in (LOAD, LOAD_ACQ, STORE, STORE_REL):
            # Loads perform in order; stores retire in order behind them.
            return self._prior_reads_done_writes_retired(i, core)
        if op.kind == RMW:
            # Atomic ops drain the store buffer and serialize.
            return self._all_prior_done(i, core)
        if op.kind == FENCE:
            return True  # fences complete via fence_done
        raise AssertionError(op.kind)

    def fence_done(self, i: int, core) -> bool:
        op = core.ops[i]
        if op.fence_kind == FENCE_FULL:
            # MFENCE: everything performed, store buffer drained.
            return self._all_prior_done(i, core)
        # dmb st / dmb ld are no-ops under TSO: the model already
        # provides those orderings.
        return self._prior_reads_done_writes_retired(i, core)


class WeakEngine(MCMEngine):
    """Arm-style weak ordering with dependencies, fences, acq/rel."""

    name = "WEAK"
    uses_store_buffer = True
    sb_parallelism = 8

    def can_issue(self, i: int, core) -> bool:
        ops = core.ops
        statuses = core.status
        op = ops[i]
        for d in op.deps:
            if statuses[d] != DONE:
                return False
        # Ops before retired_base: fences/acquires/RMWs/reads are DONE
        # and writes >= RETIRED -- every constraint below is satisfied.
        start = core.retired_base()
        op_addr = op.addr
        op_is_write = op.is_write
        for j in range(start, i):
            prior = ops[j]
            status = statuses[j]
            kind = prior.kind
            if kind == FENCE:
                if status != DONE:
                    fk = prior.fence_kind
                    if fk == FENCE_FULL or fk == FENCE_LD:
                        # dmb ld orders prior loads with all later ops.
                        return False
                    if fk == FENCE_ST and op_is_write:
                        return False
            elif (kind == LOAD_ACQ or kind == RMW) and status != DONE:
                # Acquire (and acquire-flavoured atomics): no later op
                # may perform before it.
                return False
            elif prior.addr == op_addr:
                # Same-address (coherence) order: prior reads must be
                # done; prior writes must at least be buffered (loads
                # then forward from the store buffer).
                if prior.is_read and status != DONE:
                    return False
                if prior.is_write and status < RETIRED:
                    return False
        if op.kind == STORE_REL:
            # Release: all prior ops performed.
            return self._all_prior_done(i, core)
        # RMW on weak models is acquire-flavoured (ldaxr/stxr): it needs
        # no drain of prior ops, unlike x86's fully-fencing locked ops.
        return True

    def fence_done(self, i: int, core) -> bool:
        op = core.ops[i]
        if op.fence_kind == FENCE_FULL:
            return self._all_prior_done(i, core)
        start = core.done_base()
        if op.fence_kind == FENCE_ST:
            return all(
                core.status[j] == DONE
                for j in range(start, i)
                if core.ops[j].is_write
            )
        if op.fence_kind == FENCE_LD:
            return all(
                core.status[j] == DONE
                for j in range(start, i)
                if core.ops[j].is_read
            )
        raise AssertionError(op.fence_kind)


class RCCEngine(WeakEngine):
    """Release-consistency cores: WEAK ordering; sync ops hit the RCC cache."""

    name = "RCC"


_ENGINES = {
    "SC": SCEngine,
    "TSO": TSOEngine,
    "WEAK": WeakEngine,
    "RCC": RCCEngine,
}


def make_mcm(name: str) -> MCMEngine:
    """Instantiate the MCM engine for ``name`` (SC/TSO/WEAK/RCC)."""
    try:
        return _ENGINES[name]()
    except KeyError:
        raise ValueError(f"unknown MCM {name!r}") from None
