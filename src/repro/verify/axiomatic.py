"""Exact allowed-outcome enumeration under the compound memory model.

This is the repository's herd7 substitute: an *operational* model whose
per-thread ordering rules are the very same MCM engines the timing
simulator uses (:mod:`repro.cpu.mcm`), composed with a single-copy-
atomic global memory (what the SWMR coherence protocols provide) and
store-buffer forwarding.  Exhaustive exploration of every
nondeterministic choice (which eligible op performs next, which store
buffer entry drains next) yields the exact set of outcomes the compound
model allows.

The litmus runner checks every outcome the simulator produces against
this set, and the control experiments check that outcomes *outside* the
set appear once synchronization is removed.
"""

from __future__ import annotations

from repro.cpu.isa import FENCE, ThreadProgram
from repro.cpu.mcm import DONE, PEND, RETIRED, make_mcm

#: Safety valve for pathological inputs.
MAX_STATES = 2_000_000


class _Adapter:
    """Minimal core stand-in for the MCM engines' predicates."""

    __slots__ = ("ops", "status")

    def __init__(self, ops, status):
        self.ops = ops
        self.status = status

    def retired_base(self) -> int:
        """No monotone pointer here: the engines scan from op 0."""
        return 0

    def done_base(self) -> int:
        """No monotone pointer here: the engines scan from op 0."""
        return 0


def enumerate_outcomes(
    programs: list[ThreadProgram],
    mcms: list[str],
    observed_addrs: tuple[int, ...] = (),
) -> frozenset:
    """All final outcomes of ``programs`` under per-thread ``mcms``.

    An outcome is a canonical tuple of sorted ``(key, value)`` pairs:
    one entry per register plus one ``"[addr]"`` entry per observed
    memory location.
    """
    opss = [tuple(p.ops) for p in programs]
    outcomes = set()
    for state, has_successors in reachable_states(programs, mcms):
        if not has_successors:
            outcomes.add(_outcome(state, opss, observed_addrs))
    return frozenset(outcomes)


def reachable_states(programs: list[ThreadProgram], mcms: list[str]):
    """Yield ``(state, has_successors)`` for every state the enumeration
    reaches, each once.

    A state is ``(statuses, store_buffers, memory, registers)``, with
    one status tuple per thread; every fence whose condition holds is
    already complete.  A state without successors is final.
    """
    engines = [make_mcm(name) for name in mcms]
    opss = [tuple(p.ops) for p in programs]

    init_status = tuple(tuple(PEND for _ in ops) for ops in opss)
    init_sbs = tuple(() for _ in opss)
    init_state = (init_status, init_sbs, (), ())

    visited = set()
    stack = [_fence_closure(init_state, opss, engines)]
    visited.add(stack[0])

    while stack:
        state = stack.pop()
        if len(visited) > MAX_STATES:
            raise RuntimeError("litmus enumeration exceeded state budget")
        successors = list(_successors(state, opss, engines))
        yield state, bool(successors)
        for nxt in successors:
            nxt = _fence_closure(nxt, opss, engines)
            if nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)


def _fence_closure(state, opss, engines):
    """Complete every fence whose condition holds (deterministic)."""
    statuses, sbs, mem, regs = state
    statuses = [list(s) for s in statuses]
    changed = True
    while changed:
        changed = False
        for tid, ops in enumerate(opss):
            adapter = _Adapter(ops, statuses[tid])
            for i, op in enumerate(ops):
                if op.kind == FENCE and statuses[tid][i] == PEND:
                    if engines[tid].fence_done(i, adapter):
                        statuses[tid][i] = DONE
                        changed = True
    return (tuple(tuple(s) for s in statuses), sbs, mem, regs)


def _successors(state, opss, engines):
    statuses, sbs, mem, regs = state
    mem_dict = dict(mem)
    for tid, ops in enumerate(opss):
        adapter = _Adapter(ops, list(statuses[tid]))
        engine = engines[tid]
        # (a) perform a pending op.
        for i, op in enumerate(ops):
            if statuses[tid][i] != PEND or op.kind == FENCE:
                continue
            if not engine.can_issue(i, adapter):
                continue
            yield _perform(state, tid, i, op, engine, mem_dict)
        # (b) drain a store-buffer entry.
        sb = sbs[tid]
        for pos, (op_index, addr, value) in enumerate(sb):
            if engine.sb_parallelism == 1 and pos != 0:
                break  # TSO: strict FIFO
            if any(earlier[1] == addr for earlier in sb[:pos]):
                continue  # per-address FIFO
            yield _drain(state, tid, pos)


def _perform(state, tid, i, op, engine, mem_dict):
    statuses, sbs, mem, regs = state
    new_statuses = [list(s) for s in statuses]
    new_sbs = list(sbs)
    new_regs = dict(regs)
    new_mem = dict(mem)
    if op.is_write:
        if engine.uses_store_buffer:
            new_statuses[tid][i] = RETIRED
            new_sbs[tid] = sbs[tid] + ((i, op.addr, op.value),)
        else:
            new_statuses[tid][i] = DONE
            new_mem[op.addr] = op.value
    else:  # load (or RMW, unused in litmus programs)
        value = _forward(sbs[tid], i, op.addr)
        if value is None:
            value = mem_dict.get(op.addr, 0)
        new_statuses[tid][i] = DONE
        if op.reg is not None:
            new_regs[op.reg] = value
    return (
        tuple(tuple(s) for s in new_statuses),
        tuple(new_sbs),
        tuple(sorted(new_mem.items())),
        tuple(sorted(new_regs.items())),
    )


def _drain(state, tid, pos):
    statuses, sbs, mem, regs = state
    op_index, addr, value = sbs[tid][pos]
    new_statuses = [list(s) for s in statuses]
    new_statuses[tid][op_index] = DONE
    new_sbs = list(sbs)
    new_sbs[tid] = sbs[tid][:pos] + sbs[tid][pos + 1:]
    new_mem = dict(mem)
    new_mem[addr] = value
    return (
        tuple(tuple(s) for s in new_statuses),
        tuple(new_sbs),
        tuple(sorted(new_mem.items())),
        regs,
    )


def _forward(sb, load_index, addr):
    """Youngest older same-address store-buffer entry, if any."""
    for op_index, entry_addr, value in reversed(sb):
        if entry_addr == addr and op_index < load_index:
            return value
    return None


def _outcome(state, opss, observed_addrs):
    statuses, sbs, mem, regs = state
    for tid, ops in enumerate(opss):
        if any(s != DONE for s in statuses[tid]) or sbs[tid]:
            raise RuntimeError(
                f"thread {tid} stuck in litmus enumeration: {statuses[tid]}"
            )
    result = dict(regs)
    mem_dict = dict(mem)
    for addr in observed_addrs:
        result[f"[{addr}]"] = mem_dict.get(addr, 0)
    return tuple(sorted(result.items()))
