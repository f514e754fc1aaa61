"""Global-domain client engines for the C3 bridge.

A *port* is the cache-controller half of C3 (Fig. 5): it speaks the
global protocol on behalf of the cluster.  Two implementations:

- :class:`CxlPort` -- CXL.mem 3.0 host flows: MemRd(A/S), the two-phase
  MemWr writeback sequence, BISnp handling with nested local recalls
  (Rule II), and the **BIConflict/BIConflictAck** handshake that
  disambiguates the Fig. 2 races.  Because BIConflictAck travels on the
  FIFO response channel, "did my completion arrive before the ack?" is
  exactly "did the directory serialize my request before the snoop?".
- :class:`MesiPort` -- the hierarchical global-MESI baseline: requester-
  collected invalidation acks and peer-to-peer owner forwarding (3-hop
  flows a pipelining directory can overlap), used for the
  MESI-MESI-MESI configurations of Figs. 10 and 11.

Both ports answer snoops/forwards only after the bridge's local recall
completes -- the Rule-II nesting -- and queue global events that hit a
busy line.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ProtocolError
from repro.protocols import messages as m
from repro.sim.snapshot import (
    restore_queues,
    restore_records,
    save_queues,
    save_records,
    snapshotted,
)


@snapshotted
@dataclass(slots=True)
class PendingReq:
    """An outstanding global request (MemRd / GetS / GetM)."""

    want: str  # "S" or "M"
    on_grant: Callable[[], None]
    grant_seen: bool = False
    grant_state: str | None = None
    data: int | None = None
    acks_needed: int | None = None  # GMESI: unknown until the grant arrives
    acks_got: int = 0


@snapshotted
@dataclass(slots=True)
class PendingWb:
    """An outstanding writeback (MemWr / PutM / PutE)."""

    on_done: Callable[[], None]
    held_snoop: m.Message | None = None
    span: object = None  # repro.obs span handle (None when obs is off)


class GlobalPort:
    """Shared bookkeeping for both global protocol clients."""

    def __init__(self, bridge, home_id: str) -> None:
        # Weak: the bridge owns its port (``bridge.port``).
        self.bridge = weakref.proxy(bridge)
        self.home_id = home_id
        self.engine = bridge.engine
        self.pending: dict[int, PendingReq] = {}
        self.wb: dict[int, PendingWb] = {}
        self.snoop_q: dict[int, deque] = {}
        self.active_snoop: dict[int, m.Message] = {}
        self.snoop_spans: dict[int, object] = {}  # repro.obs handles
        # Stats.
        self.requests = 0
        self.writebacks = 0
        self.snoops = 0
        self.conflicts = 0

    # -- snapshots (repro.sim.system.System.snapshot) ----------------------
    def snapshot(self) -> tuple:
        """Outstanding requests, writebacks and snoops, and counters."""
        return (save_records(self.pending), save_records(self.wb),
                save_queues(self.snoop_q), tuple(self.active_snoop.items()),
                tuple(self.snoop_spans.items()), self.requests, self.writebacks,
                self.snoops, self.conflicts)

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in place."""
        (pending, wb, snoop_q, active, spans, self.requests, self.writebacks,
         self.snoops, self.conflicts) = state
        restore_records(self.pending, pending)
        restore_records(self.wb, wb)
        restore_queues(self.snoop_q, snoop_q)
        self.active_snoop.clear()
        self.active_snoop.update(active)
        self.snoop_spans.clear()
        self.snoop_spans.update(spans)

    # -- shared helpers ---------------------------------------------------
    def blocked(self, addr: int) -> bool:
        """Whether a global request, writeback or snoop pins this line."""
        return addr in self.pending or addr in self.wb or addr in self.active_snoop

    def quiescent(self) -> bool:
        """No global activity outstanding anywhere."""
        return not self.pending and not self.wb and not self.active_snoop and not any(
            self.snoop_q.values()
        )

    def _send(self, kind, addr, dst=None, **kw) -> None:
        self.bridge.send(m.Message(kind, addr, self.bridge.node_id, dst or self.home_id, **kw))

    def _queue_snoop(self, msg: m.Message) -> None:
        self.snoop_q.setdefault(msg.addr, deque()).append(msg)

    def drain_snoops(self, addr: int) -> bool:
        """Process one queued snoop; True if the line became busy again."""
        queue = self.snoop_q.get(addr)
        if not queue:
            return False
        msg = queue.popleft()
        if not queue:
            del self.snoop_q[addr]
        self._process_snoop(msg)
        return True

    def _line(self, addr: int):
        return self.bridge.cache.peek(addr)

    def _open_snoop_span(self, msg: m.Message) -> None:
        # Opened *before* the nested recall starts so the recall span
        # parents under it (the Rule-II nesting the audit checks).
        obs = self.bridge.obs
        if obs is not None:
            span = obs.open_snoop(self.bridge.node_id, msg.addr, msg.kind)
            if span is not None:
                self.snoop_spans[msg.addr] = span

    def _open_wb_span(self, addr: int):
        obs = self.bridge.obs
        if obs is not None:
            return obs.open_wb(self.bridge.node_id, addr)
        return None

    def _snoop_finish(self, addr: int) -> None:
        del self.active_snoop[addr]
        span = self.snoop_spans.pop(addr, None)
        if span is not None:
            self.bridge.obs.close(span)
        self.bridge._drain_pending(addr)

    def _process_snoop(self, msg: m.Message) -> None:
        raise NotImplementedError

    def request(self, addr: int, want: str, on_grant: Callable[[], None]) -> None:
        """Issue a global read ('S') or RFO ('M'); ``on_grant`` fires on completion."""
        raise NotImplementedError

    def writeback(self, addr: int, drop: bool, on_done: Callable[[], None]) -> None:
        """Evict/downgrade a line toward the home; ``on_done`` fires when safe."""
        raise NotImplementedError

    def handle(self, msg: m.Message) -> None:
        """Process one incoming global-domain message."""
        raise NotImplementedError


class CxlPort(GlobalPort):
    """CXL.mem host-side engine (talks to the DCOH)."""

    def __init__(self, bridge, home_id: str) -> None:
        super().__init__(bridge, home_id)
        #: addr -> {"snoop": Message, "granted": bool} while a BIConflict
        #: handshake is outstanding.
        self.conflict_state: dict[int, dict] = {}

    def snapshot(self) -> tuple:
        """:meth:`GlobalPort.snapshot` plus the conflict handshakes."""
        return (super().snapshot(),
                [(addr, entry, tuple(entry.items()))
                 for addr, entry in self.conflict_state.items()])

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in place."""
        base, conflicts = state
        super().restore(base)
        conflict_state = self.conflict_state
        conflict_state.clear()
        for addr, entry, fields in conflicts:
            entry.update(fields)  # fixed keys
            conflict_state[addr] = entry

    # -- requests ----------------------------------------------------------
    def request(self, addr, want, on_grant) -> None:
        self.pending[addr] = PendingReq(want=want, on_grant=on_grant)
        self.requests += 1
        self._send(m.MEM_RD, addr, meta="A" if want == "M" else "S")

    def writeback(self, addr, drop, on_done) -> None:
        line = self._line(addr)
        if line is None or not line.dirty:
            on_done()  # clean: silent drop; DCOH tolerates RspI-on-absent
            return
        self.writebacks += 1
        self.wb[addr] = PendingWb(on_done=on_done, span=self._open_wb_span(addr))
        self._send(m.MEM_WR, addr, meta="I" if drop else "S", data=line.data)

    # -- message handling ---------------------------------------------------
    def handle(self, msg: m.Message) -> None:
        handler = self._dispatch.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.bridge.node_id}: unexpected global {msg}")
        handler(self, msg)

    def _on_grant(self, msg: m.Message) -> None:
        addr = msg.addr
        pending = self.pending.get(addr)
        if pending is None:
            raise ProtocolError(f"{self.bridge.node_id}: grant with no request: {msg}")
        line = self._line(addr)
        line.state = {m.CMP_M: "M", m.CMP_E: "E", m.CMP_S: "S"}[msg.kind]
        if msg.data is not None:
            line.data = msg.data
        line.dirty = False
        if addr in self.conflict_state:
            self.conflict_state[addr]["granted"] = True
        del self.pending[addr]
        pending.on_grant()

    def _on_wb_done(self, msg: m.Message) -> None:
        record = self.wb.pop(msg.addr, None)
        if record is None:
            raise ProtocolError(f"{self.bridge.node_id}: Cmp with no writeback: {msg}")
        if record.span is not None:
            self.bridge.obs.close(record.span)
        record.on_done()
        if record.held_snoop is not None:
            # The WB raced a snoop (Fig. 2 eviction race): the line is
            # gone now, answer from Invalid.
            self._send(m.BI_RSP_I, msg.addr)

    # -- snoops --------------------------------------------------------------
    def _on_snoop(self, msg: m.Message) -> None:
        addr = msg.addr
        self.snoops += 1
        if addr in self.wb:
            self.wb[addr].held_snoop = msg
            return
        if addr in self.pending:
            # The Fig. 2 race: a snoop overtook (or chased) our pending
            # completion.  Start the conflict-resolution handshake.
            self.conflicts += 1
            self.conflict_state[addr] = {"snoop": msg, "granted": False}
            self._send(m.BI_CONFLICT, addr)
            return
        if self.bridge.blocked(addr):
            self._queue_snoop(msg)
            return
        self._process_snoop(msg)

    def _on_conflict_ack(self, msg: m.Message) -> None:
        state = self.conflict_state.pop(msg.addr, None)
        if state is None:
            raise ProtocolError(f"{self.bridge.node_id}: orphan BIConflictAck")
        snoop = state["snoop"]
        if state["granted"]:
            # Completion arrived before the ack on the FIFO response
            # channel => the directory serialized our request first.
            if msg.addr in self.pending:
                # ...but we already issued a *new* request for the line.
                # The snoop belongs to the transaction currently blocking
                # the DCOH, which our new request is queued behind --
                # waiting for our own grant would deadlock.  Re-observe
                # the snoop against the new request: a fresh handshake
                # starts and resolves directory-first.
                self._on_snoop(snoop)
                return
            # Handle the snoop after the nested transaction finishes.
            self._queue_snoop(snoop)
            if not self.bridge.blocked(msg.addr):
                self.drain_snoops(msg.addr)
            return
        # Directory processed the snoop first: invalidate now; our
        # request stays pending and will be granted (with data) later.
        pending = self.pending.get(msg.addr)
        if pending is None:
            raise ProtocolError(
                f"{self.bridge.node_id}: directory-first conflict without "
                f"a pending request (addr=0x{msg.addr:x})"
            )
        if snoop.kind != m.BI_SNP_INV:
            raise ProtocolError(f"{self.bridge.node_id}: unexpected conflict snoop {snoop}")
        self.bridge.recall_local(
            msg.addr, "inv", lambda: self._conflict_invalidated(msg.addr)
        )

    #: Message kind -> handler function, called as ``handler(self, msg)``.
    #: Class-level, so no port holds bound methods of itself.
    _dispatch = {
        m.CMP_M: _on_grant,
        m.CMP_E: _on_grant,
        m.CMP_S: _on_grant,
        m.CMP: _on_wb_done,
        m.BI_SNP_INV: _on_snoop,
        m.BI_SNP_DATA: _on_snoop,
        m.BI_CONFLICT_ACK: _on_conflict_ack,
    }

    def _conflict_invalidated(self, addr: int) -> None:
        line = self._line(addr)
        if line is not None:
            line.state = "I"
            line.data = None
            line.dirty = False
        self._send(m.BI_RSP_I, addr)

    def _process_snoop(self, msg: m.Message) -> None:
        addr = msg.addr
        self.active_snoop[addr] = msg
        self._open_snoop_span(msg)
        mode = "inv" if msg.kind == m.BI_SNP_INV else "data"
        self.bridge.recall_local(addr, mode, lambda: self._snoop_recalled(msg))

    def _snoop_recalled(self, msg: m.Message) -> None:
        addr = msg.addr
        line = self._line(addr)
        if msg.kind == m.BI_SNP_INV:
            if line is not None and line.dirty:
                # Full CXL WB sequence nested inside the snoop (Fig. 2).
                self.wb[addr] = PendingWb(on_done=lambda: self._snoop_inv_done(addr),
                                          span=self._open_wb_span(addr))
                self.writebacks += 1
                self._send(m.MEM_WR, addr, meta="I", data=line.data)
                return
            self._snoop_inv_done(addr)
        else:  # BISnpData
            if line is None:
                self._send(m.BI_RSP_I, addr)
                self._snoop_finish(addr)
            elif line.dirty:
                self.wb[addr] = PendingWb(on_done=lambda: self._snoop_data_done(addr),
                                          span=self._open_wb_span(addr))
                self.writebacks += 1
                self._send(m.MEM_WR, addr, meta="S", data=line.data)
            else:
                self._snoop_data_done(addr)

    def _snoop_inv_done(self, addr: int) -> None:
        if self._line(addr) is not None:
            self.bridge.cache.remove(addr)
        self._send(m.BI_RSP_I, addr)
        self._snoop_finish(addr)

    def _snoop_data_done(self, addr: int) -> None:
        line = self._line(addr)
        if line is not None:
            line.state = "S"
            line.dirty = False
        self._send(m.BI_RSP_S, addr)
        self._snoop_finish(addr)


class MesiPort(GlobalPort):
    """Hierarchical global-MESI client (baseline MESI-MESI-MESI systems)."""

    # -- requests ----------------------------------------------------------
    def request(self, addr, want, on_grant) -> None:
        self.pending[addr] = PendingReq(want=want, on_grant=on_grant)
        self.requests += 1
        self._send(m.GETM if want == "M" else m.GETS, addr)

    def writeback(self, addr, drop, on_done) -> None:
        line = self._line(addr)
        if line is None or line.state == "I":
            on_done()
            return
        # Every drop is announced: precise owner pointers *and* precise
        # sharer lists.  (A silently dropped sharer would deadlock the
        # requester-collected-ack scheme: the directory counts the stale
        # sharer in an ack count the winner then waits on while the
        # stale sharer waits on the winner's data.)
        self.writebacks += 1
        self.wb[addr] = PendingWb(on_done=on_done, span=self._open_wb_span(addr))
        if line.dirty:
            self._send(m.PUTM, addr, data=line.data)
        elif line.state == "E":
            self._send(m.PUTE, addr)
        else:
            self._send(m.PUTS, addr)

    # -- message handling ---------------------------------------------------
    def handle(self, msg: m.Message) -> None:
        handler = self._dispatch.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.bridge.node_id}: unexpected global {msg}")
        handler(self, msg)

    def _on_dir_grant(self, msg: m.Message) -> None:
        pending = self.pending.get(msg.addr)
        if pending is None:
            raise ProtocolError(f"{self.bridge.node_id}: grant with no request: {msg}")
        pending.grant_seen = True
        pending.grant_state = msg.meta
        pending.acks_needed = msg.acks
        if msg.data is not None:
            pending.data = msg.data
        self._maybe_complete(msg.addr)

    def _on_owner_data(self, msg: m.Message) -> None:
        pending = self.pending.get(msg.addr)
        if pending is None:
            raise ProtocolError(f"{self.bridge.node_id}: owner data, no request: {msg}")
        pending.data = msg.data
        pending.grant_seen = True
        pending.grant_state = msg.meta
        pending.acks_needed = pending.acks_needed or 0
        self._maybe_complete(msg.addr)

    def _on_inv_ack(self, msg: m.Message) -> None:
        pending = self.pending.get(msg.addr)
        if pending is None:
            raise ProtocolError(f"{self.bridge.node_id}: stray Inv-Ack: {msg}")
        pending.acks_got += 1
        self._maybe_complete(msg.addr)

    def _maybe_complete(self, addr: int) -> None:
        pending = self.pending[addr]
        if not pending.grant_seen:
            return
        if pending.acks_needed is not None and pending.acks_got < pending.acks_needed:
            return
        line = self._line(addr)
        line.state = pending.grant_state
        if pending.data is not None:
            line.data = pending.data
        line.dirty = False
        del self.pending[addr]
        pending.on_grant()

    # -- snoops/forwards ------------------------------------------------------
    def _on_inv(self, msg: m.Message) -> None:
        addr = msg.addr
        requester = msg.extra["req"]
        self.snoops += 1
        if addr in self.wb:
            # Eviction race: local caches were already recalled when the
            # eviction began, so the ack is immediate.
            self._send(m.INV_ACK, addr, dst=requester)
            line = self._line(addr)
            if line is not None:
                line.state = "II_A"
            return
        pending = self.pending.get(addr)
        if pending is not None:
            line = self._line(addr)
            if pending.want == "M" and (line is None or line.state == "I"):
                # Stale-sharer invalidation while we upgrade from
                # Invalid: nothing is held locally, ack immediately.
                self._send(m.INV_ACK, addr, dst=requester)
                return
            if pending.want == "M" and line is not None and line.state == "S":
                # Upgrade lost the race: recall, ack the winner, then
                # wait for our (data-carrying) grant.  Acking *before*
                # the recall completes would break Rule II.
                self.bridge.recall_local(
                    addr, "inv",
                    lambda: self._lost_upgrade(addr, requester),
                )
                return
            # Read in flight: delay the invalidation until the fill is
            # consumed (the winner's store then waits on our ack).
            self._queue_snoop(msg)
            return
        if self.bridge.blocked(addr):
            self._queue_snoop(msg)
            return
        self._process_snoop(msg)

    def _lost_upgrade(self, addr: int, requester: str) -> None:
        line = self._line(addr)
        if line is not None:
            line.state = "I"
            line.data = None
        self._send(m.INV_ACK, addr, dst=requester)

    def _on_fwd(self, msg: m.Message) -> None:
        addr = msg.addr
        self.snoops += 1
        if addr in self.wb:
            self._serve_fwd(msg)  # local already recalled at eviction start
            return
        if addr in self.pending or self.bridge.blocked(addr):
            self._queue_snoop(msg)
            return
        self._process_snoop(msg)

    def _process_snoop(self, msg: m.Message) -> None:
        addr = msg.addr
        self.active_snoop[addr] = msg
        self._open_snoop_span(msg)
        if msg.kind == m.INV:
            self.bridge.recall_local(addr, "inv", lambda: self._inv_recalled(msg))
        elif msg.kind == m.FWD_GETM:
            self.bridge.recall_local(addr, "inv", lambda: self._fwd_recalled(msg))
        else:  # FWD_GETS
            self.bridge.recall_local(addr, "data", lambda: self._fwd_recalled(msg))

    def _inv_recalled(self, msg: m.Message) -> None:
        addr = msg.addr
        if self._line(addr) is not None:
            self.bridge.cache.remove(addr)
        self._send(m.INV_ACK, addr, dst=msg.extra["req"])
        self._snoop_finish(addr)

    def _fwd_recalled(self, msg: m.Message) -> None:
        self._serve_fwd(msg)
        self._snoop_finish(msg.addr)

    def _serve_fwd(self, msg: m.Message) -> None:
        addr = msg.addr
        requester = msg.extra["req"]
        line = self._line(addr)
        if line is None:
            raise ProtocolError(
                f"{self.bridge.node_id}: forward for absent line 0x{addr:x}"
            )
        if msg.kind == m.FWD_GETM:
            self._send(m.DATA_OWNER, addr, dst=requester, meta="M", data=line.data)
            if addr not in self.wb:
                self.bridge.cache.remove(addr)
            else:
                line.state = "II_A"
        else:
            src = self.bridge.node_id
            self.bridge.send_many((
                m.Message(m.DATA_OWNER, addr, src, requester, meta="S", data=line.data),
                m.Message(m.WB_DATA, addr, src, self.home_id, data=line.data),
            ))
            line.state = "S" if addr not in self.wb else "II_A"
            line.dirty = False

    def _on_put_ack(self, msg: m.Message) -> None:
        record = self.wb.pop(msg.addr, None)
        if record is None:
            raise ProtocolError(f"{self.bridge.node_id}: stray Put-Ack: {msg}")
        if record.span is not None:
            self.bridge.obs.close(record.span)
        record.on_done()

    #: Message kind -> handler function, as on :class:`CxlPort`.
    _dispatch = {
        m.DATA: _on_dir_grant,
        m.DATA_OWNER: _on_owner_data,
        m.INV_ACK: _on_inv_ack,
        m.INV: _on_inv,
        m.FWD_GETS: _on_fwd,
        m.FWD_GETM: _on_fwd,
        m.PUT_ACK: _on_put_ack,
    }
