"""Windowed core timing model.

A :class:`Core` executes one :class:`~repro.cpu.isa.ThreadProgram`
against an L1 cache controller.  It models the parts of an
out-of-order pipeline that matter for consistency and coherence
behaviour:

- a bounded instruction window (ROB) of in-flight memory ops,
- an MCM engine (:mod:`repro.cpu.mcm`) gating when each op may issue,
- a store buffer with configurable drain parallelism (1 for TSO's FIFO
  buffer, several for weak models) and store-to-load forwarding,
- per-op compute gaps to pace workload traffic.

The L1 interface is a single method::

    l1.core_request(kind, addr, value, callback)  # callback(read_value)

which the L1 answers after the appropriate hit/coherence latency.

The issue scan and the store-buffer drain do only the work an ordering
rule can change.  Three rules, each exact -- every issue decision,
posted event and message is the same as a scan that asked the engine
about every window op until nothing moved:

1. **In-order engines test the head only.**  Under an engine with
   ``in_order`` set (SC, TSO) the scan asks about the head op -- the
   oldest below RETIRED -- alone.  For any later op the head sits
   between it and the retired prefix, so the TSO retire rule, "all
   prior ops DONE" and both fence rules fail; the full window would
   only collect refusals.
2. **No idle rescans.**  A scan goes round again only after a fence
   became DONE, or a gap-0 issue left its op RETIRED or DONE.  The
   engines read a status only as ``>= RETIRED`` or ``== DONE`` (plus
   the head pointer and store-buffer room, which such moves do not
   improve), so a pass that moved ops only to SCHED or ISSUED leaves
   every refused op refused.
3. **FIFO store buffer.**  With ``sb_parallelism == 1`` the drain loop
   runs only when nothing is draining, so its first entry is ``sb[0]``,
   the oldest store; it drains and the loop stops.  No per-entry
   "first undrained" test is needed, and one loop serves FIFO and
   parallel buffers alike.

The weak engines keep the per-op predicate scan over the whole window:
:mod:`repro.verify.axiomatic` enumerates outcomes with the same
predicates, so a one-pass restatement of the weak rules would be a
second implementation of the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cpu.isa import FENCE, LOAD, LOAD_ACQ, RMW, STORE, STORE_REL, ThreadProgram
from repro.cpu.mcm import DONE, ISSUED, PEND, RETIRED, SCHED, make_mcm
from repro.sim.engine import Engine
from repro.sim.snapshot import restore_list, save_list, snapshotted


@snapshotted
@dataclass(slots=True)
class SBEntry:
    """A store sitting in the store buffer."""

    op_index: int
    addr: int
    value: int
    kind: str  # STORE or STORE_REL (RCC release must reach the cache as such)
    draining: bool = False
    prefetched: bool = False


class Core:
    """Drives a thread program; owned by a cluster."""

    def __init__(
        self,
        engine: Engine,
        core_id: str,
        mcm_name: str,
        window: int = 8,
        sb_entries: int = 16,
        cycle: int = 500,
    ) -> None:
        self.engine = engine
        self.core_id = core_id
        self.mcm = make_mcm(mcm_name)
        self.window = window
        self.sb_entries = sb_entries
        self.cycle = cycle
        self.l1 = None  # attached by the cluster builder

        self.ops = []
        self.status: list[int] = []
        self.regs: dict[str, int] = {}
        self.sb: list[SBEntry] = []
        self._prefetched: set[int] = set()
        self._head_ptr = 0
        self._done_ptr = 0
        self._on_done: Callable[[int], None] | None = None
        self._scan_pending = False
        self.finish_time: int | None = None
        self.parked = False  # host left mid-run (repro.scenario churn)

    # ------------------------------------------------------------------
    # Snapshots (repro.sim.system.System.snapshot).
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Program progress: statuses, registers, the store buffer and
        every scan pointer and flag.  :meth:`run_program` rebinds the
        containers, so each is saved by object and by contents; the
        program's ops are shared."""
        return (self.ops, self.status, tuple(self.status), self.regs,
                tuple(self.regs.items()), self.sb,
                save_list(self.sb),
                self._prefetched, tuple(self._prefetched), self._head_ptr,
                self._done_ptr, self._on_done, self._scan_pending,
                self.finish_time, self.parked)

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in the saved containers and
        store-buffer entries."""
        (self.ops, status, saved_status, regs, saved_regs, sb, entries,
         prefetched, saved_prefetched, self._head_ptr, self._done_ptr,
         self._on_done, self._scan_pending, self.finish_time,
         self.parked) = state
        status[:] = saved_status
        self.status = status
        regs.clear()
        regs.update(saved_regs)
        self.regs = regs
        restore_list(sb, entries)
        self.sb = sb
        prefetched.clear()
        prefetched.update(saved_prefetched)
        self._prefetched = prefetched

    # ------------------------------------------------------------------
    # Program control.
    # ------------------------------------------------------------------
    def run_program(self, thread: ThreadProgram,
                    on_done: Callable[[int], None] | None) -> None:
        """Start executing ``thread``; ``on_done(finish_time)`` fires at completion."""
        thread.validate()
        self.ops = thread.ops
        self.status = [PEND] * len(self.ops)
        self.regs = {}
        self.sb = []
        self._prefetched = set()
        self._head_ptr = 0
        self._done_ptr = 0
        self._on_done = on_done
        self.finish_time = None
        self.parked = False
        if not self.ops:
            self.engine.post(0, self._finish)
            return
        self._request_scan()

    def _finish(self) -> None:
        self.finish_time = self.engine.now
        if self._on_done is not None:
            self._on_done(self.engine.now)

    def park(self) -> None:
        """The host thread leaves mid-run (scenario join/leave churn).

        Every op not yet handed to the memory system completes as a
        no-op; in-flight ops (issued requests, scheduled gaps, buffered
        stores) drain through the normal paths so the coherence
        protocol sees a clean departure, after which the regular finish
        condition fires and the thread counts as completed.
        """
        self.parked = True
        status = self.status
        for i, s in enumerate(status):
            if s == PEND:
                status[i] = DONE
        if self.ops and self.finish_time is None:
            self._request_scan()

    # ------------------------------------------------------------------
    # Issue logic.
    # ------------------------------------------------------------------
    def _request_scan(self) -> None:
        if not self._scan_pending:
            self._scan_pending = True
            self.engine.post(0, self._scan)

    def _head(self) -> int:
        # Monotone: statuses only ever increase, so resume the scan.
        i = self._head_ptr
        status = self.status
        n = len(status)
        while i < n and status[i] >= RETIRED:
            i += 1
        self._head_ptr = i
        return i

    # -- ordering-scan bases used by the MCM engines -------------------
    def retired_base(self) -> int:
        """First index not yet >= RETIRED.  Ops before it have all
        loads/fences/RMWs DONE and all stores at least buffered -- the
        exact precondition the TSO retire rule and the WEAK prior-op
        scans check, so the engines may start scanning here."""
        return self._head()

    def done_base(self) -> int:
        """First index not yet DONE (<= retired_base: buffered stores)."""
        i = self._done_ptr
        status = self.status
        n = len(status)
        while i < n and status[i] == DONE:
            i += 1
        self._done_ptr = i
        return i

    def _scan(self) -> None:
        """Issue every window op the MCM lets go, then prefetch and drain.

        The scan asks the engine only what an ordering rule can change
        (rules 1-2 of the module docstring):

        - an in-order engine (``mcm.in_order``) is asked about the head
          op alone, since every later op fails while the head is below
          RETIRED;
        - a pass repeats only after a fence became DONE or a gap-0
          issue left its op RETIRED or DONE.  Every predicate reads a
          status only as ``>= RETIRED`` or ``== DONE`` (and the store
          buffer can only have grown), so a pass that merely moved ops
          to SCHED or ISSUED would be followed by an identical one.

        The drain then follows rule 3: a FIFO buffer sends ``sb[0]``
        from the same loop a parallel buffer uses.
        """
        self._scan_pending = False
        ops = self.ops
        status = self.status
        mcm = self.mcm
        fence_done = mcm.fence_done
        can_issue = mcm.can_issue
        uses_sb = mcm.uses_store_buffer
        sb_entries = self.sb_entries
        window = 1 if mcm.in_order else self.window
        n = len(ops)
        progress = True
        while progress:
            progress = False
            head = self._head()
            if head == n:
                if not self.sb and all(s == DONE for s in status):
                    if self.finish_time is None:
                        self._finish()
                    return
            limit = head + window
            if limit > n:
                limit = n
            for i in range(head, limit):
                if status[i] != PEND:
                    continue
                op = ops[i]
                kind = op.kind
                if kind == FENCE:
                    if fence_done(i, self):
                        status[i] = DONE
                        progress = True
                    continue
                if not can_issue(i, self):
                    continue
                if uses_sb and op.is_write and kind != RMW:
                    if len(self.sb) >= sb_entries:
                        continue
                if op.gap > 0:
                    status[i] = SCHED
                    self.engine.post(op.gap * self.cycle, self._issue, i)
                else:
                    self._issue(i)
                    if status[i] >= RETIRED:
                        progress = True
        self._prefetch_window()
        self._drain_sb()

    def _prefetch_window(self) -> None:
        """Non-binding prefetches for ordering-stalled window ops.

        Models speculative execution and hardware prefetching: the miss
        latency of a load/store that the MCM will not let issue yet is
        overlapped, while its architectural effect still happens in
        order (the later real access re-checks the cache and re-misses
        if the line was stolen in between -- exactly an x86 squash).
        """
        head = self._head()
        ops = self.ops
        status = self.status
        prefetched = self._prefetched
        fifo_sb = self.mcm.sb_parallelism == 1
        l1 = self.l1
        limit = head + self.window
        n = len(ops)
        if limit > n:
            limit = n
        for i in range(head, limit):
            if status[i] != PEND or i in prefetched:
                continue
            op = ops[i]
            if op.kind == FENCE:
                continue
            is_write = op.is_write
            if is_write and fifo_sb:
                # TSO: store-miss overlap is bounded by the FIFO store
                # buffer's own ownership prefetches, not the window.
                continue
            deps_done = True
            for d in op.deps:
                if status[d] != DONE:
                    deps_done = False
                    break
            if not deps_done:
                continue
            prefetched.add(i)
            if l1.would_hit(op.kind, op.addr):
                continue
            l1.core_request("PREFETCH_M" if is_write else "PREFETCH_S",
                            op.addr, 0, lambda _v: None)

    def _issue(self, i: int) -> None:
        op = self.ops[i]
        if op.kind in (STORE, STORE_REL) and self.mcm.uses_store_buffer:
            # Retire into the store buffer; globally performed later.
            self.status[i] = RETIRED
            self.sb.append(SBEntry(i, op.addr, op.value, op.kind))
            self._drain_sb()
            self._request_scan()
            return
        self.status[i] = ISSUED
        if op.kind in (LOAD, LOAD_ACQ):
            forwarded = self._forward_value(i, op.addr)
            if forwarded is not None and op.kind == LOAD:
                self.engine.post(self.cycle, self._complete, i, forwarded)
                return
        self.l1.core_request(op.kind, op.addr, op.value, lambda v, i=i: self._complete(i, v))

    def _forward_value(self, i: int, addr: int) -> int | None:
        """Store-to-load forwarding from the youngest older SB entry."""
        for entry in reversed(self.sb):
            if entry.addr == addr and entry.op_index < i:
                return entry.value
        return None

    def _complete(self, i: int, value) -> None:
        op = self.ops[i]
        if op.reg is not None and value is not None:
            self.regs[op.reg] = value
        self.status[i] = DONE
        self._request_scan()

    # ------------------------------------------------------------------
    # Store buffer drain.
    # ------------------------------------------------------------------
    #: How many younger store-buffer entries get an ownership prefetch
    #: (RFO) while the head drains.  Real TSO cores overlap store-miss
    #: latency this way while still *committing* writes in order.
    PREFETCH_DEPTH = 3

    def _drain_sb(self) -> None:
        sb = self.sb
        inflight = 0
        for e in sb:
            if e.draining:
                inflight += 1
        if inflight == len(sb):
            return  # empty, or every entry drains: nothing to issue or prefetch
        parallelism = self.mcm.sb_parallelism
        l1_request = self.l1.core_request
        if inflight < parallelism:
            # Addresses of entries *before* the current position; an
            # older same-address store must leave the buffer first.
            # With parallelism 1 nothing is draining here, so the first
            # entry is ``sb[0]``: it drains and the loop stops (rule 3).
            prior_addrs: set[int] = set()
            for entry in sb:
                if inflight >= parallelism:
                    break
                addr = entry.addr
                if entry.draining:
                    prior_addrs.add(addr)
                    continue
                if addr in prior_addrs:
                    prior_addrs.add(addr)
                    continue  # per-address FIFO: wait for the older store
                prior_addrs.add(addr)
                self._drain_entry(entry)
                inflight += 1
        # Overlap upcoming store misses: ownership prefetches for the
        # next few distinct lines (no ordering effect -- commits above
        # still happen strictly in drain order).
        prefetched = 0
        seen: set[int] = set()
        for entry in sb:
            if prefetched >= self.PREFETCH_DEPTH:
                break
            if entry.addr in seen:
                continue
            seen.add(entry.addr)
            if entry.draining or entry.prefetched:
                continue
            entry.prefetched = True
            prefetched += 1
            l1_request("PREFETCH_M", entry.addr, 0, lambda _v: None)

    def _drain_entry(self, entry: SBEntry) -> None:
        """Send one buffered store to the L1; it leaves the buffer when
        performed."""
        entry.draining = True
        self.l1.core_request(entry.kind, entry.addr, entry.value,
                             lambda _v, e=entry: self._store_performed(e))

    def _store_performed(self, entry: SBEntry) -> None:
        self.sb.remove(entry)
        self.status[entry.op_index] = DONE
        self._request_scan()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.core_id} mcm={self.mcm.name}>"

