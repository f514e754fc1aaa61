"""The C3 bridge runtime.

One :class:`C3Bridge` sits at the boundary of each cluster (Fig. 5).
It owns:

- the **CXL cache** -- the cluster-level cache holding copies of remote
  (CXL-mapped) data, kept inclusive of all MESI-family host caches;
- the **local directory** -- the directory side of the cluster's native
  protocol (MESI / MESIF / MOESI dir-collected-ack flows, or the RCC
  read/write-through interface);
- a **global port** (:mod:`repro.core.global_port`) -- the cache-
  controller side of the global protocol (CXL.mem host flows or the
  hierarchical MESI baseline).

The two design rules are structural here:

- *Rule I (flow delegation)* -- every cross-domain decision goes through
  the :class:`~repro.core.policy.BridgePolicy` (``global_access_for`` on
  the way up, ``local_access_for`` on the way down); the bridge merely
  executes the native flow the policy selects.
- *Rule II (atomicity / transaction nesting)* -- a local transaction
  that needs a global access suspends (the line stays busy, later local
  requests queue) until the global port reports completion; a global
  snoop that needs a local recall is answered only after the recall
  finishes.  ``violate_atomicity=True`` flips Rule II off for the Fig. 4
  failure-injection experiments: snoops are acknowledged *before* the
  local recall completes, which the invariant monitors then catch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import InvariantViolation, ProtocolError
from repro.protocols import messages as m
from repro.protocols.variants import ProtocolVariant, WRITE
from repro.core.policy import BridgePolicy, X_STORE
from repro.sim.cache import CacheArray, CacheLine
from repro.sim.engine import Engine
from repro.sim.network import Network, Node
from repro.sim.snapshot import (
    restore_queues,
    restore_records,
    save_queues,
    save_records,
    snapshotted,
)

#: Message kind -> LocalTxn kind, hoisted out of the request hot path.
_TXN_KIND = {m.GETS: "GetS", m.GETM: "GetM",
             m.RCC_READ: "RCC_READ", m.RCC_WRITE: "RCC_WRITE"}
_PUT_KINDS = frozenset((m.PUTS, m.PUTE, m.PUTM, m.PUTO))


@snapshotted
@dataclass(slots=True)
class DirRecord:
    """Local directory view of one line."""

    owner: str | None = None
    owner_kind: str = ""  # "EM" (exclusive/modified) or "O" (MOESI owned)
    sharers: set[str] = field(default_factory=set)
    f_holder: str | None = None  # MESIF forwarder (also listed in sharers)

    def summary(self) -> str:
        """Collapse to the stable-state alphabet the policy reasons over."""
        if self.owner is not None:
            return "O" if self.owner_kind == "O" else "M"
        if self.sharers:
            return "S"
        return "I"

    def clear(self) -> None:
        """Reset to the empty (Invalid) record."""
        self.owner = None
        self.owner_kind = ""
        self.sharers.clear()
        self.f_holder = None


@snapshotted
@dataclass(slots=True)
class LocalTxn:
    """One in-flight local directory transaction."""

    kind: str  # GetS | GetM | RCC_READ | RCC_WRITE
    msg: m.Message
    requester: str
    phase: str = "start"  # start -> (global) -> local -> done
    acks_needed: int = 0
    acks_got: int = 0
    owner_forwarded: bool = False
    was_sharer: bool = False
    span: object = None  # repro.obs span handle (None when obs is off)


@snapshotted
@dataclass(slots=True)
class Recall:
    """A downward (global-to-local) reclaim in progress."""

    mode: str  # "inv" or "data"
    on_done: Callable[[], None]
    acks_needed: int = 0
    acks_got: int = 0
    span: object = None  # repro.obs span handle (None when obs is off)


class C3Bridge(Node):
    """The C3 coherence controller for one cluster."""

    #: Span recorder (repro.obs.spans.SpanRecorder) or None; class-level
    #: default keeps every obs-off hook to a single attribute test.
    obs = None

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: str,
        variant: ProtocolVariant,
        policy: BridgePolicy,
        size_bytes: int,
        assoc: int,
        latency: int,
        stats=None,
        violate_atomicity: bool = False,
        local_base: int | None = None,
        local_backing=None,
        local_mem_latency: int = 0,
    ) -> None:
        super().__init__(engine, network, node_id)
        self.variant = variant
        self.policy = policy
        self.cache = CacheArray(size_bytes, assoc)
        self.latency = latency
        self.stats = stats
        self.violate_atomicity = violate_atomicity
        # Hybrid memory (paper Sec. IV-D4): lines at/above ``local_base``
        # live in this cluster's own DRAM; C3 serves them as the sole
        # home and routes only the rest through the global protocol.
        self.local_base = local_base
        self.local_backing = local_backing
        self.local_mem_latency = local_mem_latency

        self.local_ids: set[str] = set()  # populated by the cluster builder
        self.port = None  # attached by the system builder

        self.busy: dict[int, LocalTxn] = {}
        self.recalls: dict[int, Recall] = {}
        self.evicting: set[int] = set()
        self.pq_local: dict[int, deque] = {}
        self._room_waiters: dict[int, deque] = {}

        # Counters surfaced to the harness.
        self.global_loads = 0
        self.global_stores = 0
        self.recalls_done = 0
        self.local_txns = 0

    # ------------------------------------------------------------------
    # Snapshots (repro.sim.system.System.snapshot).
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Transactions, recalls, queues, counters, the CXL cache and
        the directory record on each of its lines.  The global port
        saves itself."""
        records = []
        for line in self.cache.index.values():
            rec = line.peek_meta("dir")
            if rec is not None:
                records.append((rec, rec.snapshot()))
        return (save_records(self.busy), save_records(self.recalls),
                tuple(self.evicting), save_queues(self.pq_local),
                save_queues(self._room_waiters), self.global_loads,
                self.global_stores, self.recalls_done, self.local_txns,
                self.cache.snapshot(), records)

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in place."""
        (busy, recalls, evicting, pq_local, waiters, self.global_loads,
         self.global_stores, self.recalls_done, self.local_txns, cache,
         records) = state
        restore_records(self.busy, busy)
        restore_records(self.recalls, recalls)
        self.evicting.clear()
        self.evicting.update(evicting)
        restore_queues(self.pq_local, pq_local)
        restore_queues(self._room_waiters, waiters)
        self.cache.restore(cache)
        for rec, fields in records:
            rec.restore(fields)

    # ------------------------------------------------------------------
    # Line helpers.
    # ------------------------------------------------------------------
    def line(self, addr: int) -> CacheLine | None:
        """The CXL-cache line for ``addr``, if present."""
        return self.cache.peek(addr)

    def dir_record(self, line: CacheLine) -> DirRecord:
        """The local directory record stored on a line (created lazily)."""
        rec = line.meta.get("dir")
        if rec is None:
            rec = DirRecord()
            line.meta["dir"] = rec
        return rec

    def is_stale(self, line: CacheLine) -> bool:
        """True when an upper-level owner holds data newer than this copy."""
        return line.meta.get("stale", False)

    def blocked(self, addr: int) -> bool:
        """Whether any transaction currently pins this line."""
        return (
            addr in self.busy
            or addr in self.recalls
            or addr in self.evicting
            or (self.port is not None and self.port.blocked(addr))
        )

    # ------------------------------------------------------------------
    # Message dispatch.
    # ------------------------------------------------------------------
    def handle_message(self, msg: m.Message) -> None:
        """Dispatch local messages to the directory, global ones to the port."""
        if msg.src in self.local_ids:
            self._handle_local(msg)
        else:
            self.port.handle(msg)

    def _handle_local(self, msg: m.Message) -> None:
        handler = self._local_dispatch.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.node_id}: unexpected local {msg}")
        handler(self, msg)

    def _on_local_request(self, msg: m.Message) -> None:
        if self.blocked(msg.addr):
            self.pq_local.setdefault(msg.addr, deque()).append(msg)
            return
        self._process_local_request(msg)

    # ------------------------------------------------------------------
    # Local requests.
    # ------------------------------------------------------------------
    def _process_local_request(self, msg: m.Message) -> None:
        if msg.kind in _PUT_KINDS:
            self._process_put(msg)
            return
        kind = _TXN_KIND[msg.kind]
        txn = LocalTxn(kind=kind, msg=msg, requester=msg.src)
        obs = self.obs
        if obs is not None:
            txn.span = obs.open_txn(self.node_id, msg.addr, kind, msg.src,
                                    self.compound_state(msg.addr))
        self.busy[msg.addr] = txn
        self.local_txns += 1
        self._txn_ensure_line(txn)

    def _txn_ensure_line(self, txn: LocalTxn) -> None:
        addr = txn.msg.addr
        line = self.cache.lookup(addr)
        if line is not None:
            self._txn_check_global(txn, line)
            return
        if not self.cache.has_room(addr):
            victim = self._pick_victim(addr)
            if victim is None:
                set_idx = addr % self.cache.num_sets
                self._room_waiters.setdefault(set_idx, deque()).append(
                    lambda txn=txn: self._txn_ensure_line(txn)
                )
                return
            self._evict(victim, lambda txn=txn: self._txn_ensure_line(txn))
            return
        line = self.cache.insert(addr, state="I")
        self._txn_check_global(txn, line)

    def _pick_victim(self, addr: int) -> CacheLine | None:
        # Oldest (LRU) line in the set that no transaction is pinning.
        for candidate_addr in self._set_addrs(addr % self.cache.num_sets):
            if not self.blocked(candidate_addr):
                return self.cache.peek(candidate_addr)
        return None

    def _set_addrs(self, set_idx: int):
        # CacheArray keeps per-set dicts in LRU order (oldest first).
        return self.cache.set_addrs(set_idx)

    def is_local(self, addr: int) -> bool:
        """Hybrid memory: does this line live in the cluster's own DRAM?"""
        return self.local_base is not None and addr >= self.local_base

    def _txn_check_global(self, txn: LocalTxn, line: CacheLine) -> None:
        if self.is_local(line.addr):
            if line.state == "I":
                # Fill from local DRAM; this cluster is the line's home,
                # so full permission is intrinsic and no CXL flow exists.
                line.state = "E"
                line.data = self.local_backing.read(line.addr)
                line.dirty = False
                self.engine.post(
                    self.local_mem_latency, self._txn_local_phase, txn, line
                )
                return
            self._txn_local_phase(txn, line)
            return
        access = self.policy.global_access_for(txn.kind, line.state)
        if access is None:
            self._txn_local_phase(txn, line)
            return
        txn.phase = "global"
        want = "M" if access == X_STORE else "S"
        if access == X_STORE:
            self.global_stores += 1
        else:
            self.global_loads += 1
        obs = self.obs
        if obs is not None:
            gspan = obs.open_global(self.node_id, line.addr, want, parent=txn.span)

            def _granted(txn=txn, gspan=gspan, obs=obs):
                # Close the crossing span first: the grant marks the end
                # of the global phase, everything after is local again.
                if gspan is not None:
                    obs.close(gspan)
                self._txn_global_done(txn)

            self.port.request(line.addr, want, _granted)
            return
        self.port.request(line.addr, want, lambda txn=txn: self._txn_global_done(txn))

    def _txn_global_done(self, txn: LocalTxn) -> None:
        line = self.cache.peek(txn.msg.addr)
        if line is None:  # pragma: no cover - the port keeps the line alive
            raise ProtocolError(f"{self.node_id}: line vanished during global phase")
        self._txn_local_phase(txn, line)

    # -- local phase -----------------------------------------------------
    def _txn_local_phase(self, txn: LocalTxn, line: CacheLine) -> None:
        txn.phase = "local"
        if txn.kind == "GetS":
            self._local_gets(txn, line)
        elif txn.kind == "GetM":
            self._local_getm(txn, line)
        elif txn.kind == "RCC_READ":
            self.engine.post(
                self.latency, self._finish_rcc_read, txn, line.addr
            )
        elif txn.kind == "RCC_WRITE":
            self.engine.post(
                self.latency, self._finish_rcc_write, txn, line.addr
            )
        else:  # pragma: no cover
            raise ProtocolError(f"unknown txn kind {txn.kind}")

    def _local_gets(self, txn: LocalTxn, line: CacheLine) -> None:
        rec = self.dir_record(line)
        requester = txn.requester
        if rec.owner is not None and rec.owner != requester:
            txn.phase = "fwd"
            txn.owner_forwarded = True
            self.send(m.Message(m.FWD_GETS, line.addr, self.node_id, rec.owner,
                                extra={"req": requester}))
            return
        if self.variant.has_f_state and rec.f_holder and rec.f_holder != requester:
            txn.phase = "fwd"
            txn.owner_forwarded = True
            self.send(m.Message(m.FWD_GETS, line.addr, self.node_id, rec.f_holder,
                                extra={"req": requester}))
            return
        # Serve from the CXL cache.  A local E grant hands out silent-
        # upgrade *write* permission -- a globally visible effect -- so
        # Rule I forbids it unless the global level already holds write
        # permission (otherwise (M, S) compound states become reachable
        # and remote clusters lose updates).
        can_exclusive = self.policy.global_variant.perm(line.state) >= WRITE
        if rec.owner is None and not rec.sharers and can_exclusive:
            grant = "E"
        elif self.variant.has_f_state:
            grant = "F"
        else:
            grant = "S"
        self.engine.post(self.latency, self._grant_gets, txn, line.addr, grant)

    def _grant_gets(self, txn: LocalTxn, addr: int, grant: str) -> None:
        line = self.cache.peek(addr)
        rec = self.dir_record(line)
        self.send(m.Message(m.DATA, addr, self.node_id, txn.requester,
                            meta=grant, data=line.data))
        self._record_gets_holder(rec, txn.requester, grant, line)
        self._finish_txn(addr)

    def _record_gets_holder(self, rec: DirRecord, requester: str, grant: str,
                            line: CacheLine) -> None:
        if grant == "E":
            rec.owner = requester
            rec.owner_kind = "EM"
            line.meta["stale"] = True
        else:
            rec.sharers.add(requester)
            if grant == "F":
                rec.f_holder = requester

    def _local_getm(self, txn: LocalTxn, line: CacheLine) -> None:
        rec = self.dir_record(line)
        requester = txn.requester
        txn.was_sharer = (
            requester in rec.sharers or rec.owner == requester
        )
        out = []
        # Sorted: a set's order hangs on its hash-table history, which
        # a snapshot restore does not keep (System.snapshot).
        for sharer in sorted(rec.sharers):
            if sharer != requester:
                out.append(m.Message(m.INV, line.addr, self.node_id, sharer))
                txn.acks_needed += 1
        if rec.owner is not None and rec.owner != requester:
            out.append(m.Message(m.FWD_GETM, line.addr, self.node_id, rec.owner,
                                 extra={"req": requester}))
            txn.owner_forwarded = True
            txn.acks_needed += 1
        if out:
            self.send_many(out)
        if txn.acks_needed == 0:
            self.engine.post(self.latency, self._grant_getm, txn, line.addr)
        else:
            txn.phase = "acks"

    def _grant_getm(self, txn: LocalTxn, addr: int) -> None:
        line = self.cache.peek(addr)
        rec = self.dir_record(line)
        data = None
        if not txn.was_sharer and not txn.owner_forwarded:
            data = line.data
        self.send(m.Message(m.DATA, addr, self.node_id, txn.requester,
                            meta="M", data=data))
        rec.clear()
        rec.owner = txn.requester
        rec.owner_kind = "EM"
        line.meta["stale"] = True
        # Rule II at the local level: the transaction stays open until
        # the grantee confirms the fill (Unblock), so a queued snoop's
        # recall can never race the in-flight grant.
        txn.phase = "await_unblock"

    def _finish_rcc_read(self, txn: LocalTxn, addr: int) -> None:
        line = self.cache.peek(addr)
        self.send(m.Message(m.RCC_DATA, addr, self.node_id, txn.requester,
                            data=line.data))
        self._finish_txn(addr)

    def _finish_rcc_write(self, txn: LocalTxn, addr: int) -> None:
        line = self.cache.peek(addr)
        old = line.data if line.data is not None else 0
        result = None
        if txn.msg.meta == "RMW":
            line.data = old + txn.msg.data
            result = old
        else:
            line.data = txn.msg.data
        line.dirty = True
        line.meta["stale"] = False
        self.send(m.Message(m.RCC_WRITE_ACK, addr, self.node_id, txn.requester,
                            data=result))
        self._finish_txn(addr)

    def _on_unblock(self, msg: m.Message) -> None:
        """The GetM grantee has filled; the line may unblock (gem5-style)."""
        txn = self.busy.get(msg.addr)
        if txn is None or txn.phase != "await_unblock":
            raise ProtocolError(f"{self.node_id}: stray Unblock: {msg}")
        self._finish_txn(msg.addr)

    # ------------------------------------------------------------------
    # Local responses (acks / data) -- routed to recall or transaction.
    # ------------------------------------------------------------------
    def _on_local_response(self, msg: m.Message) -> None:
        addr = msg.addr
        if addr in self.recalls:
            self._recall_response(msg)
            return
        txn = self.busy.get(addr)
        if txn is None:
            raise ProtocolError(f"{self.node_id}: orphan local response {msg}")
        line = self.cache.peek(addr)
        rec = self.dir_record(line)
        if msg.kind == m.WB_DATA:
            self._apply_wb(line, rec, msg)
            if txn.kind == "GetS":
                self._finish_fwd_gets(txn, line, rec, kept="auto", msg=msg)
                return
            txn.acks_got += 1  # Fwd-GetM recall-style WB during GetM
        elif msg.kind == m.OWNER_ACK:
            kept = msg.extra.get("kept", "S")
            if txn.kind == "GetS":
                self._finish_fwd_gets(txn, line, rec, kept=kept, msg=msg)
                return
            self._apply_owner_departure(rec, msg.src, kept)
            txn.acks_got += 1
        elif msg.kind == m.INV_ACK:
            rec.sharers.discard(msg.src)
            if rec.f_holder == msg.src:
                rec.f_holder = None
            txn.acks_got += 1
        if txn.phase == "acks" and txn.acks_got >= txn.acks_needed:
            self.engine.post(self.latency, self._grant_getm, txn, addr)
            txn.phase = "granting"

    #: Local message kind -> handler function, called as
    #: ``handler(self, msg)``.  Class-level, so no bridge holds bound
    #: methods of itself.
    _local_dispatch = {
        m.GETS: _on_local_request,
        m.GETM: _on_local_request,
        m.RCC_READ: _on_local_request,
        m.RCC_WRITE: _on_local_request,
        m.PUTS: _on_local_request,
        m.PUTE: _on_local_request,
        m.PUTM: _on_local_request,
        m.PUTO: _on_local_request,
        m.UNBLOCK: _on_unblock,
        m.INV_ACK: _on_local_response,
        m.WB_DATA: _on_local_response,
        m.OWNER_ACK: _on_local_response,
    }

    def _apply_wb(self, line: CacheLine, rec: DirRecord, msg: m.Message) -> None:
        if self.policy.global_variant.perm(line.state) >= WRITE:
            line.data = msg.data
            line.dirty = True
        # else: (O, S)-style writeback of data the global level already
        # has -- by the SWMR argument it cannot be newer; drop it.
        line.meta["stale"] = False

    def _finish_fwd_gets(self, txn: LocalTxn, line: CacheLine, rec: DirRecord,
                         kept: str, msg: m.Message) -> None:
        old_owner = msg.src
        if msg.kind == m.WB_DATA:
            # MESI/MESIF owner wrote back and demoted to S.
            if rec.owner == old_owner:
                rec.owner = None
                rec.owner_kind = ""
                rec.sharers.add(old_owner)
        else:
            self._apply_owner_departure(rec, old_owner, kept)
        rec.sharers.add(txn.requester)
        if self.variant.has_f_state:
            rec.f_holder = txn.requester
        self._finish_txn(line.addr)

    def _apply_owner_departure(self, rec: DirRecord, node: str, kept: str) -> None:
        if rec.owner == node:
            if kept == "O":
                rec.owner_kind = "O"
            elif kept == "S":
                rec.owner = None
                rec.owner_kind = ""
                rec.sharers.add(node)
            else:  # "I"
                rec.owner = None
                rec.owner_kind = ""
        elif kept == "I":
            rec.sharers.discard(node)
            if rec.f_holder == node:
                rec.f_holder = None

    # ------------------------------------------------------------------
    # Put* (local evictions into the CXL cache).
    # ------------------------------------------------------------------
    def _process_put(self, msg: m.Message) -> None:
        line = self.cache.peek(msg.addr)
        if line is None:
            # The line was globally invalidated while the Put was queued.
            self.send(m.Message(m.PUT_ACK, msg.addr, self.node_id, msg.src))
            return
        rec = self.dir_record(line)
        sender = msg.src
        if msg.kind in (m.PUTM, m.PUTO) and rec.owner == sender:
            self._apply_wb(line, rec, msg)
            rec.owner = None
            rec.owner_kind = ""
        elif msg.kind == m.PUTE and rec.owner == sender:
            rec.owner = None
            rec.owner_kind = ""
            line.meta["stale"] = False
        else:
            rec.sharers.discard(sender)
            if rec.f_holder == sender:
                rec.f_holder = None
        self.send(m.Message(m.PUT_ACK, msg.addr, self.node_id, sender))

    # ------------------------------------------------------------------
    # Recalls (global snoops reaching into the local domain).
    # ------------------------------------------------------------------
    def recall_local(self, addr: int, mode: str, on_done: Callable[[], None]) -> None:
        """Rule-I downward delegation with Rule-II nesting.

        ``mode`` is "inv" (conceptual store: revoke everything) or
        "data" (conceptual load: fetch the current value).  ``on_done``
        fires only after every local effect completed -- unless
        ``violate_atomicity`` is set, in which case it fires immediately
        (the Fig. 4 experiment).
        """
        line = self.cache.peek(addr)
        if line is None:
            on_done()
            return
        rec = self.dir_record(line)
        access = self.policy.local_access_for(
            "inv" if mode == "inv" else "data", rec.summary(), self.is_stale(line)
        )
        if access is None:
            if mode == "inv":
                rec.clear()
            on_done()
            return
        if self.violate_atomicity:
            self._start_recall_flows(addr, line, rec, mode, on_done=lambda: None)
            on_done()  # acknowledge before local effects complete: Rule II broken
            return
        self._start_recall_flows(addr, line, rec, mode, on_done)

    def _start_recall_flows(self, addr, line, rec, mode, on_done) -> None:
        recall = Recall(mode=mode, on_done=on_done)
        if mode == "inv":
            out = []
            for sharer in sorted(rec.sharers):  # see _local_getm
                out.append(m.Message(m.INV, addr, self.node_id, sharer))
                recall.acks_needed += 1
            if rec.owner is not None:
                out.append(m.Message(m.FWD_GETM, addr, self.node_id, rec.owner,
                                     extra={"req": self.node_id}))
                recall.acks_needed += 1
            if out:
                self.send_many(out)
        else:
            assert rec.owner is not None
            self.send(m.Message(m.FWD_GETS, addr, self.node_id, rec.owner,
                                extra={"req": self.node_id}))
            recall.acks_needed = 1
        obs = self.obs
        if obs is not None:
            recall.span = obs.open_recall(self, addr, mode)
        self.recalls[addr] = recall

    def _recall_response(self, msg: m.Message) -> None:
        recall = self.recalls[msg.addr]
        line = self.cache.peek(msg.addr)
        if line is None:
            # Reachable only when Rule II is broken (violate_atomicity):
            # the snoop was acknowledged before the recall finished, so
            # the global side tore the line down while recall responses
            # were still in flight.
            raise InvariantViolation(
                f"{self.node_id}: {msg.kind} recall response for line "
                f"0x{msg.addr:x} that was torn down mid-recall "
                f"(Rule II atomicity broken)", addr=msg.addr)
        rec = self.dir_record(line)
        if msg.kind == m.WB_DATA:
            self._apply_wb(line, rec, msg)
            if msg.extra.get("inv"):
                if rec.owner == msg.src:
                    rec.owner = None
                    rec.owner_kind = ""
            else:
                # Recall-data: the owner kept its protocol-native state:
                # a dirty MOESI owner stays O; a clean (E) owner and any
                # MESI/MESIF owner demote to plain sharer.
                if rec.owner == msg.src:
                    if self.variant.has_o_state and msg.extra.get("dirty"):
                        rec.owner_kind = "O"
                    else:
                        rec.owner = None
                        rec.owner_kind = ""
                        rec.sharers.add(msg.src)
        elif msg.kind == m.INV_ACK:
            rec.sharers.discard(msg.src)
            if rec.f_holder == msg.src:
                rec.f_holder = None
        elif msg.kind == m.OWNER_ACK:
            self._apply_owner_departure(rec, msg.src, msg.extra.get("kept", "I"))
        recall.acks_got += 1
        if recall.acks_got >= recall.acks_needed:
            del self.recalls[msg.addr]
            if recall.mode == "inv":
                rec.clear()
            self.recalls_done += 1
            if recall.span is not None:
                # Close before on_done: the messages the continuation
                # sends upward are legitimate post-recall effects.
                self.obs.close(recall.span)
            recall.on_done()
            self._drain_pending(msg.addr)

    # ------------------------------------------------------------------
    # CXL cache evictions (Fig. 7).
    # ------------------------------------------------------------------
    def _evict(self, line: CacheLine, on_done: Callable[[], None]) -> None:
        addr = line.addr
        self.evicting.add(addr)
        self.recall_local(addr, "inv", lambda: self._evict_wb(addr, on_done))

    def _evict_wb(self, addr: int, on_done: Callable[[], None]) -> None:
        if self.is_local(addr):
            line = self.cache.peek(addr)
            if line is not None and line.dirty:
                self.local_backing.write(addr, line.data)
            self.engine.post(
                self.local_mem_latency if line is not None and line.dirty else 0,
                self._evict_done, addr, on_done,
            )
            return
        # The port decides whether the drop needs a writeback sequence
        # (dirty), an ownership-release notification (clean exclusive,
        # hierarchical MESI), or nothing (clean shared: silent drop).
        self.port.writeback(addr, drop=True,
                            on_done=lambda: self._evict_done(addr, on_done))

    def _evict_done(self, addr: int, on_done: Callable[[], None]) -> None:
        if self.cache.peek(addr) is not None:
            self.cache.remove(addr)
        self.evicting.discard(addr)
        self._notify_room(addr % self.cache.num_sets)
        on_done()
        self._drain_pending(addr)

    def _notify_room(self, set_idx: int) -> None:
        waiters = self._room_waiters.pop(set_idx, None)
        if waiters:
            for resume in waiters:
                resume()

    # ------------------------------------------------------------------
    # Transaction completion and queue draining.
    # ------------------------------------------------------------------
    def _finish_txn(self, addr: int) -> None:
        txn = self.busy.pop(addr)
        if txn.span is not None:
            self.obs.close(txn.span, states=self.compound_state(addr))
        self._drain_pending(addr)

    def _drain_pending(self, addr: int) -> None:
        if self.blocked(addr):
            return
        if self.port is not None and self.port.drain_snoops(addr):
            return
        queue = self.pq_local.get(addr)
        while queue and not self.blocked(addr):
            msg = queue.popleft()
            self._process_local_request(msg)
        if queue is not None and not queue:
            del self.pq_local[addr]
        # The line just became unblocked: transactions waiting for an
        # evictable way in this set may be able to proceed now.
        self._notify_room(addr % self.cache.num_sets)

    # ------------------------------------------------------------------
    # Introspection for verification.
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No transaction, recall, eviction or queue outstanding."""
        return (
            not self.busy
            and not self.recalls
            and not self.evicting
            and not self.pq_local
            and (self.port is None or self.port.quiescent())
        )

    def compound_state(self, addr: int) -> tuple[str, str]:
        """(local summary, global state) -- the paper's compound state."""
        line = self.cache.peek(addr)
        if line is None:
            return ("I", "I")
        return (self.dir_record(line).summary(), line.state)
