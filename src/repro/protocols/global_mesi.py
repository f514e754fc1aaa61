"""Hierarchical global MESI directory (the MESI-MESI-MESI baseline).

Unlike the blocking DCOH, this directory *pipelines*: it updates its
ownership view the moment it forwards a request and can serialize the
next transaction for the same line immediately.  Invalidation acks are
collected by the requester (the directory tells it how many to expect),
and owners transfer data peer-to-peer -- the 3-message-delay remote
store flow the paper contrasts with CXL's 6.

The only occupancy window is ``data_pending``: after a Fwd-GetS the
directory's memory copy is stale until the owner's WBData arrives, so
reads in that window queue briefly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.protocols import messages as m
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


@snapshotted
@dataclass(slots=True)
class GLine:
    state: str = "I"  # I | S | M (M covers exclusive-clean owners)
    owner: str | None = None
    sharers: set[str] = field(default_factory=set)
    data_pending: bool = False


class GlobalMesiDir(Node):
    """Pipelining MESI home directory + memory device."""

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
        self.latency = latency
        self.lines: dict[int, GLine] = {}
        self.queues: dict[int, deque] = {}
        self.transactions = 0
        self.forwards_sent = 0
        self.invs_sent = 0

    def snapshot(self) -> tuple:
        """Directory entries, queues, counters and the DRAM channel, as
        on :meth:`repro.protocols.cxl_mem.Dcoh.snapshot`."""
        return (save_records(self.lines), save_queues(self.queues),
                self.transactions, self.forwards_sent, self.invs_sent,
                self.memory.snapshot())

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in place."""
        (lines, queues, self.transactions, self.forwards_sent, self.invs_sent,
         memory) = state
        restore_records(self.lines, lines)
        restore_queues(self.queues, queues)
        self.memory.restore(memory)

    def line(self, addr: int) -> GLine:
        """The directory entry for ``addr`` (created on first touch)."""
        entry = self.lines.get(addr)
        if entry is None:
            entry = GLine()
            self.lines[addr] = entry
        return entry

    # ------------------------------------------------------------------
    def handle_message(self, msg: m.Message) -> None:
        """Process one incoming request/writeback (class-level table)."""
        handler = self._dispatch.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.node_id}: unexpected {msg}")
        handler(self, msg)

    def _on_get(self, msg: m.Message) -> None:
        line = self.line(msg.addr)
        if line.data_pending:
            self.queues.setdefault(msg.addr, deque()).append(msg)
            return
        self.transactions += 1
        if msg.kind == m.GETS:
            self._on_gets(msg, line)
        else:
            self._on_getm(msg, line)

    def _on_wb_data(self, msg: m.Message) -> None:
        self.backing.write(msg.addr, msg.data)
        line = self.line(msg.addr)
        line.data_pending = False
        self._drain(msg.addr)

    # ------------------------------------------------------------------
    def _on_gets(self, msg: m.Message, line: GLine) -> None:
        addr, requester = msg.addr, msg.src
        if line.owner is not None and line.owner != requester:
            self.send(m.Message(m.FWD_GETS, addr, self.node_id, line.owner,
                                extra={"req": requester}))
            self.forwards_sent += 1
            line.sharers = {line.owner, requester}
            line.owner = None
            line.state = "S"
            line.data_pending = True  # memory stale until WBData
            return
        if line.state == "I" and not line.sharers:
            grant, next_state = "E", "M"
            line.owner = requester
        else:
            grant, next_state = "S", "S"
            line.sharers.add(requester)
        line.state = next_state
        self._grant_with_memory(addr, requester, grant, acks=0)

    def _on_getm(self, msg: m.Message, line: GLine) -> None:
        addr, requester = msg.addr, msg.src
        if line.owner is not None and line.owner != requester:
            # Owner chase: peer-to-peer transfer, nothing else to do here.
            self.send(m.Message(m.FWD_GETM, addr, self.node_id, line.owner,
                                extra={"req": requester}))
            self.forwards_sent += 1
            line.owner = requester
            line.sharers = set()
            line.state = "M"
            return
        targets = line.sharers - {requester}
        if targets:
            # Sorted: a set's order hangs on its hash-table history,
            # which a snapshot restore does not keep (System.snapshot).
            self.send_many([
                m.Message(m.INV, addr, self.node_id, sharer,
                          extra={"req": requester})
                for sharer in sorted(targets)])
            self.invs_sent += len(targets)
        line.owner = requester
        line.sharers = set()
        line.state = "M"
        self._grant_with_memory(addr, requester, "M", acks=len(targets))

    def _grant_with_memory(self, addr, requester, grant, acks) -> None:
        done_at = self.memory.access(self.engine.now, is_write=False)
        data = self.backing.read(addr)
        self.engine.post(
            done_at - self.engine.now + self.latency,
            self.send,
            m.Message(m.DATA, addr, self.node_id, requester,
                      meta=grant, data=data, acks=acks),
        )

    def _on_put(self, msg: m.Message) -> None:
        line = self.line(msg.addr)
        sender = msg.src
        if msg.kind == m.PUTM and line.owner == sender:
            self.backing.write(msg.addr, msg.data)
            self.memory.access(self.engine.now, is_write=True)
            line.owner = None
        elif msg.kind == m.PUTE and line.owner == sender:
            line.owner = None
        else:
            line.sharers.discard(sender)
            if msg.kind == m.PUTM and line.owner != sender:
                pass  # stale writeback: newer owner exists, drop the data
        line.state = "M" if line.owner else ("S" if line.sharers else "I")
        self.engine.post(
            self.latency, self.send,
            m.Message(m.PUT_ACK, msg.addr, self.node_id, sender),
        )

    def _drain(self, addr: int) -> None:
        queue = self.queues.get(addr)
        while queue and not self.line(addr).data_pending:
            self.handle_message(queue.popleft())
        if queue is not None and not queue:
            del self.queues[addr]

    #: Message kind -> handler function, called as ``handler(self, msg)``.
    #: Class-level, so the home holds no bound methods of itself.
    _dispatch = {
        m.GETS: _on_get,
        m.GETM: _on_get,
        m.WB_DATA: _on_wb_data,
        m.PUTS: _on_put,
        m.PUTE: _on_put,
        m.PUTM: _on_put,
    }

    def quiescent(self) -> bool:
        """No data-pending window or queued request outstanding."""
        return not any(self.queues.values()) and not any(
            line.data_pending for line in self.lines.values()
        )
