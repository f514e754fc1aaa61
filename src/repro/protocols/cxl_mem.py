"""CXL.mem 3.0 device coherency engine (DCOH).

The DCOH is the global directory at the multi-headed memory device.  It
implements the CXL.mem flows of Table I with the protocol properties the
paper's performance analysis (Sec. VI-C) attributes to CXL:

- **Blocking transient states**: a line stays busy for the *entire*
  transaction, including the nested host writeback sequence, so
  requests to hot lines convoy behind it (the Fig. 11 effect).
- **Directory-mediated transfers**: no peer-to-peer data; a dirty-owner
  transfer costs six message delays (MemRd > BISnpInv > MemWr > Cmp >
  BIRspI > Cmp-M) versus four when the owner is clean.
- **Conflict handshake**: ``BIConflict`` is answered with
  ``BIConflictAck`` *immediately*, even mid-transaction, on the FIFO
  response channel -- that ordering is what lets hosts resolve the
  Fig. 2 races.

Host-side flows live in :class:`repro.core.global_port.CxlPort`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.protocols import messages as m
from repro.protocols.messages import CXL_MESSAGE_EQUIVALENCE  # re-export (Table I)
from repro.sim.engine import Engine
from repro.sim.memctrl import BackingStore, MemoryModel
from repro.sim.network import Network, Node
from repro.sim.snapshot import (
    restore_queues,
    restore_records,
    save_queues,
    save_records,
    snapshotted,
)

__all__ = ["Dcoh", "CXL_MESSAGE_EQUIVALENCE"]


@snapshotted
@dataclass(slots=True)
class HomeLine:
    """DCOH directory entry."""

    state: str = "I"  # I | S | M  (M covers host E: exclusive owner)
    owner: str | None = None
    sharers: set[str] = field(default_factory=set)


@snapshotted
@dataclass(slots=True)
class DcohTxn:
    """One blocking DCOH transaction."""

    kind: str  # "RdA" (MemRd,A) or "RdS" (MemRd,S)
    requester: str
    targets: set[str] = field(default_factory=set)
    started: int = 0


class Dcoh(Node):
    """Blocking CXL.mem directory + memory device."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: str,
        memory: MemoryModel,
        backing: BackingStore,
        latency: int = 0,
    ) -> None:
        super().__init__(engine, network, node_id)
        self.memory = memory
        self.backing = backing
        self.latency = latency  # fixed controller processing delay
        self.lines: dict[int, HomeLine] = {}
        self.busy: dict[int, DcohTxn] = {}
        self.queues: dict[int, deque] = {}
        # Stats for the convoy-effect analysis.
        self.transactions = 0
        self.snoops_sent = 0
        self.conflicts_acked = 0
        self.queued_total = 0
        self.queue_wait_ticks = 0

    def snapshot(self) -> tuple:
        """Directory entries, transactions, queues, counters and the
        DRAM channel (see :meth:`repro.sim.system.System.snapshot`);
        the backing store saves itself."""
        return (save_records(self.lines), save_records(self.busy),
                save_queues(self.queues), self.transactions, self.snoops_sent,
                self.conflicts_acked, self.queued_total, self.queue_wait_ticks,
                self.memory.snapshot())

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in place."""
        (lines, busy, queues, self.transactions, self.snoops_sent,
         self.conflicts_acked, self.queued_total, self.queue_wait_ticks,
         memory) = state
        restore_records(self.lines, lines)
        restore_records(self.busy, busy)
        restore_queues(self.queues, queues)
        self.memory.restore(memory)

    def line(self, addr: int) -> HomeLine:
        """The directory entry for ``addr`` (created on first touch)."""
        entry = self.lines.get(addr)
        if entry is None:
            entry = HomeLine()
            self.lines[addr] = entry
        return entry

    # ------------------------------------------------------------------
    def handle_message(self, msg: m.Message) -> None:
        """Process one incoming CXL.mem request/response (class-level table)."""
        handler = self._dispatch.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.node_id}: unexpected {msg}")
        handler(self, msg)

    def _on_bi_conflict(self, msg: m.Message) -> None:
        # Answered immediately, never queued: the handshake must cut
        # through an in-progress transaction.
        self.conflicts_acked += 1
        self.send(m.Message(m.BI_CONFLICT_ACK, msg.addr, self.node_id, msg.src))

    def _on_mem_rd(self, msg: m.Message) -> None:
        if msg.addr in self.busy:
            self._enqueue(msg)
        else:
            self._start_read(msg)

    def _enqueue(self, msg: m.Message) -> None:
        self.queues.setdefault(msg.addr, deque()).append((msg, self.engine.now))
        self.queued_total += 1

    # ------------------------------------------------------------------
    # Reads (MemRd,A / MemRd,S).
    # ------------------------------------------------------------------
    def _start_read(self, msg: m.Message) -> None:
        addr = msg.addr
        line = self.line(addr)
        txn = DcohTxn(
            kind="RdA" if msg.meta == "A" else "RdS",
            requester=msg.src,
            started=self.engine.now,
        )
        self.busy[addr] = txn
        self.transactions += 1
        if txn.kind == "RdA":
            targets = set(line.sharers) - {msg.src}
            if line.owner is not None and line.owner != msg.src:
                targets.add(line.owner)
        else:
            targets = {line.owner} if line.owner and line.owner != msg.src else set()
        txn.targets = targets
        if not targets:
            self._grant(addr)
            return
        snoop = m.BI_SNP_INV if txn.kind == "RdA" else m.BI_SNP_DATA
        # Sorted: a set's order hangs on its hash-table history, which
        # a snapshot restore does not keep (System.snapshot).
        self.send_many(
            [m.Message(snoop, addr, self.node_id, host)
             for host in sorted(targets)])
        self.snoops_sent += len(targets)

    def _on_snoop_rsp(self, msg: m.Message) -> None:
        txn = self.busy.get(msg.addr)
        if txn is None or msg.src not in txn.targets:
            raise ProtocolError(f"{self.node_id}: stray snoop response {msg}")
        line = self.line(msg.addr)
        txn.targets.discard(msg.src)
        if msg.kind == m.BI_RSP_I:
            line.sharers.discard(msg.src)
            if line.owner == msg.src:
                line.owner = None
        else:  # BIRspS: host retains a shared copy
            if line.owner == msg.src:
                line.owner = None
            line.sharers.add(msg.src)
        if not txn.targets:
            self._grant(msg.addr)

    def _grant(self, addr: int) -> None:
        txn = self.busy[addr]
        line = self.line(addr)
        if txn.kind == "RdA":
            # CXL.mem completions always carry data: hosts may silently
            # drop clean lines, so the directory's sharer list cannot
            # prove the requester still holds a copy.
            include_data = True
            grant_kind = m.CMP_M
            line.owner = txn.requester
            line.sharers = set()
            line.state = "M"
        else:
            include_data = True
            if not line.sharers and line.owner is None:
                grant_kind = m.CMP_E
                line.owner = txn.requester
                line.state = "M"
            else:
                grant_kind = m.CMP_S
                line.sharers.add(txn.requester)
                line.state = "S"
        if include_data:
            done_at = self.memory.access(self.engine.now, is_write=False)
            delay = done_at - self.engine.now + self.latency
            data = self.backing.read(addr)
        else:
            delay = self.latency
            data = None
        self.engine.post(delay, self._send_grant, addr, txn.requester, grant_kind, data)

    def _send_grant(self, addr: int, requester: str, grant_kind: str, data) -> None:
        self.send(m.Message(grant_kind, addr, self.node_id, requester, data=data))
        del self.busy[addr]
        self._drain_queue(addr)

    def _drain_queue(self, addr: int) -> None:
        queue = self.queues.get(addr)
        while queue and addr not in self.busy:
            msg, enqueued_at = queue.popleft()
            self.queue_wait_ticks += self.engine.now - enqueued_at
            self.handle_message(msg)
        if queue is not None and not queue:
            del self.queues[addr]

    # ------------------------------------------------------------------
    # Writebacks (MemWr,I / MemWr,S).
    # ------------------------------------------------------------------
    def _on_mem_wr(self, msg: m.Message) -> None:
        addr = msg.addr
        txn = self.busy.get(addr)
        if txn is not None and msg.src not in txn.targets and msg.src != txn.requester:
            # Unrelated writeback racing a foreign transaction: queue it.
            self._enqueue(msg)
            return
        # Either standalone, or the nested WB of a host we are snooping
        # (the host's BIRsp* arrives after our Cmp): absorb it.
        self.backing.write(addr, msg.data)
        line = self.line(addr)
        if txn is None:
            if msg.meta == "I":
                line.sharers.discard(msg.src)
                if line.owner == msg.src:
                    line.owner = None
            else:  # MemWr,S: retain copy, ownership downgrades to shared
                if line.owner == msg.src:
                    line.owner = None
                    line.sharers.add(msg.src)
            line.state = "M" if line.owner else ("S" if line.sharers else "I")
        done_at = self.memory.access(self.engine.now, is_write=True)
        self.engine.post(
            done_at - self.engine.now + self.latency,
            self.send,
            m.Message(m.CMP, addr, self.node_id, msg.src),
        )

    #: Message kind -> handler function, called as ``handler(self, msg)``.
    #: Class-level, so the home holds no bound methods of itself.
    _dispatch = {
        m.BI_CONFLICT: _on_bi_conflict,
        m.MEM_RD: _on_mem_rd,
        m.MEM_WR: _on_mem_wr,
        m.BI_RSP_I: _on_snoop_rsp,
        m.BI_RSP_S: _on_snoop_rsp,
    }

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No transaction busy and no queued requests."""
        return not self.busy and not any(self.queues.values())

    def sharer_view(self, addr: int) -> tuple[str | None, frozenset]:
        """(owner, sharers) snapshot for verification."""
        line = self.line(addr)
        return line.owner, frozenset(line.sharers)
