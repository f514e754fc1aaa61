"""Private L1 cache controllers.

Two controllers live here:

- :class:`L1Controller` -- the MESI-family (MESI / MESIF / MOESI)
  write-back controller.  It talks to its cluster's directory (inside
  the C3 bridge) with GetS/GetM/Put* requests, services directory
  forwards (Fwd-GetS / Fwd-GetM / Inv) including the eviction races, and
  supplies data cache-to-cache to peers.
- :class:`RccL1` -- the release-consistency (GPU-style) controller:
  valid/invalid lines, write-through stores, self-invalidation on
  acquire.  The cluster cache inside C3 is the local coherence point, so
  no sharer tracking or invalidation forwarding exists at this level.

Directory-side behaviour lives in :mod:`repro.core.bridge`; the message
vocabulary in :mod:`repro.protocols.messages`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ProtocolError
from repro.protocols import messages as m
from repro.protocols.variants import ProtocolVariant
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

#: Transient states; lines in these states are pinned (not evictable).
TRANSIENTS = {"IS_D", "IM_D", "SM_A", "MI_A", "EI_A", "OI_A", "SI_A", "FI_A", "II_A"}
#: States from which the holder can satisfy a read.
READABLE = {"S", "E", "M", "O", "F"}
#: States from which the holder can satisfy a write (E upgrades silently).
WRITABLE = {"E", "M"}
#: Owner-ish states that must answer directory forwards.
FORWARDABLE = {"E", "M", "O", "F", "MI_A", "EI_A", "OI_A", "FI_A"}

#: Hot-path op-kind sets (precomputed: the request path used to pay
#: repeated tuple-membership string compares per op).
READ_KINDS = frozenset(("LOAD", "LOAD_ACQ"))
WRITE_KINDS = frozenset(("STORE", "STORE_REL", "RMW", "PREFETCH_M"))
STORE_KINDS = frozenset(("STORE", "STORE_REL"))
#: States a Fwd-GetS / Fwd-GetM can legally land in.
FWD_GETS_OK = FORWARDABLE | {"S", "SM_A"}
FWD_GETM_OK = FORWARDABLE | {"SM_A"}


@snapshotted
@dataclass(slots=True)
class Mshr:
    """Miss-status holding register: one outstanding transaction per line."""

    addr: int
    txn: str  # "GetS" or "GetM"
    ops: deque = field(default_factory=deque)  # queued (kind, value, cb, t0)
    have_data: bool = False
    data: int | None = None
    have_grant: bool = False
    grant_state: str | None = None
    #: Forwards/invalidations that overtook our grant on the forward
    #: virtual network; they are serialized *after* our transaction, so
    #: they are replayed once the fill arrives.
    pending_fwds: list = field(default_factory=list)
    #: An Inv raced our GetS: use the fill once, do not keep the line.
    invalidate_on_fill: bool = False


class L1Controller(Node):
    """MESI-family private cache controller for one core."""

    #: Span recorder (repro.obs.spans.SpanRecorder) or None; class-level
    #: default keeps the obs-off hot path to a single attribute test.
    obs = None

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: str,
        dir_id: str,
        variant: ProtocolVariant,
        size_bytes: int,
        assoc: int,
        hit_latency: int,
        stats=None,
    ) -> None:
        super().__init__(engine, network, node_id)
        self.dir_id = dir_id
        self.variant = variant
        self.cache = CacheArray(size_bytes, assoc)
        self.hit_latency = hit_latency
        self.stats = stats
        self.mshrs: dict[int, Mshr] = {}
        self._room_waiters: dict[int, deque] = {}
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> tuple:
        """MSHRs, room waiters, counters, cache and op stats (see
        :meth:`repro.sim.system.System.snapshot`)."""
        stats = self.stats
        return (save_records(self.mshrs), save_queues(self._room_waiters),
                self.hits, self.misses, self.cache.snapshot(),
                None if stats is None else stats.snapshot())

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in place."""
        mshrs, waiters, self.hits, self.misses, cache, stats = state
        restore_records(self.mshrs, mshrs)
        restore_queues(self._room_waiters, waiters)
        self.cache.restore(cache)
        if stats is not None:
            self.stats.restore(stats)

    # ------------------------------------------------------------------
    # Core-facing interface.
    # ------------------------------------------------------------------
    def core_request(self, kind: str, addr: int, value: int, callback: Callable) -> None:
        """Core-facing entry: perform ``kind`` on ``addr``; answers via ``callback(value)``."""
        self.engine.post(self.hit_latency, self._start, kind, addr, value,
                             callback, self.engine.now)

    def _start(self, kind, addr, value, callback, t0) -> None:
        obs = self.obs
        if (obs is not None and not kind.startswith("PREFETCH")
                and not getattr(callback, "_obs_close", False)):
            # Wrap once: room-waiter retries re-enter _start with the
            # already-wrapped callback (tagged _obs_close).
            callback = obs.op_wrapper(self.node_id, kind, addr, callback, t0)
        if addr in self.mshrs:
            self.mshrs[addr].ops.append((kind, value, callback, t0))
            return
        line = self.cache.lookup(addr)
        state = line.state if line else "I"
        if state in TRANSIENTS:
            # Line is being evicted; wait until it is gone, then retry.
            self._wait_for_room(addr, kind, value, callback, t0)
            return
        if self._try_hit(kind, line, state, value, callback, t0):
            return
        self._miss(kind, addr, value, callback, t0, line)

    def _try_hit(self, kind, line: CacheLine | None, state: str, value, callback, t0,
                 hit: bool = True) -> bool:
        if line is None:
            return False
        if kind in READ_KINDS and state in READABLE:
            self._complete_op(kind, line.data, callback, t0, hit=hit)
            return True
        if kind in STORE_KINDS and state in WRITABLE:
            line.state = "M"
            line.data = value
            line.dirty = True
            self._complete_op(kind, None, callback, t0, hit=hit)
            return True
        if kind == "RMW" and state in WRITABLE:
            old = line.data
            line.state = "M"
            line.data = old + value
            line.dirty = True
            self._complete_op(kind, old, callback, t0, hit=hit)
            return True
        if kind == "PREFETCH_M" and state in WRITABLE:
            # Ownership prefetch: permission acquired, nothing written.
            self._complete_op(kind, None, callback, t0, hit=hit)
            return True
        if kind == "PREFETCH_S" and state in READABLE:
            self._complete_op(kind, None, callback, t0, hit=hit)
            return True
        return False

    def would_hit(self, kind: str, addr: int) -> bool:
        """Non-binding permission probe used by the prefetcher."""
        if addr in self.mshrs:
            return True  # a transaction is already fetching the line
        line = self.cache.peek(addr)
        if line is None:
            return False
        return line.state in (WRITABLE if kind in WRITE_KINDS else READABLE)

    def _complete_op(self, kind, result, callback, t0, hit: bool) -> None:
        if kind.startswith("PREFETCH"):
            callback(result)  # not an instruction: invisible to stats
            return
        if hit:
            self.hits += 1
        if self.stats is not None:
            self.stats.record_op(kind, self.engine.now - t0, hit)
        callback(result)

    # ------------------------------------------------------------------
    # Miss handling.
    # ------------------------------------------------------------------
    def _miss(self, kind, addr, value, callback, t0, line: CacheLine | None) -> None:
        if not kind.startswith("PREFETCH"):
            self.misses += 1
        want_m = kind in WRITE_KINDS
        if line is not None and line.state in ("S", "F", "O"):
            # Upgrade in place: we hold data, need write permission.
            assert want_m, f"read should have hit in {line.state}"
            mshr = Mshr(addr, "GetM", have_data=True, data=line.data)
            mshr.ops.append((kind, value, callback, t0))
            self.mshrs[addr] = mshr
            line.state = "SM_A"
            self.send(m.Message(m.GETM, addr, self.node_id, self.dir_id))
            return
        # Cold miss: we need a way in the set first.
        if not self.cache.has_room(addr):
            victim = self.cache.victim_for(addr, pinned=TRANSIENTS)
            if victim is None:
                self._wait_for_room(addr, kind, value, callback, t0)
                return
            self._start_eviction(victim)
            self._wait_for_room(addr, kind, value, callback, t0)
            return
        mshr = Mshr(addr, "GetM" if want_m else "GetS")
        mshr.ops.append((kind, value, callback, t0))
        self.mshrs[addr] = mshr
        self.cache.insert(addr, state="IM_D" if want_m else "IS_D")
        self.send(m.Message(m.GETM if want_m else m.GETS, addr, self.node_id, self.dir_id))

    def _wait_for_room(self, addr, kind, value, callback, t0) -> None:
        set_idx = addr % self.cache.num_sets
        self._room_waiters.setdefault(set_idx, deque()).append((kind, addr, value, callback, t0))

    def _room_available(self, set_idx: int) -> None:
        waiters = self._room_waiters.pop(set_idx, None)
        if not waiters:
            return
        # Re-run each waiter once; _start re-queues into a fresh deque if
        # the set is still full (popping the dict entry above avoids an
        # infinite requeue loop).
        for kind, addr, value, callback, t0 in waiters:
            self._start(kind, addr, value, callback, t0)

    # ------------------------------------------------------------------
    # Evictions.
    # ------------------------------------------------------------------
    def _start_eviction(self, line: CacheLine) -> None:
        state = line.state
        if state == "S":
            line.state = "SI_A"
            self.send(m.Message(m.PUTS, line.addr, self.node_id, self.dir_id))
        elif state == "F":
            line.state = "FI_A"
            self.send(m.Message(m.PUTS, line.addr, self.node_id, self.dir_id, meta="F"))
        elif state == "E":
            line.state = "EI_A"
            self.send(m.Message(m.PUTE, line.addr, self.node_id, self.dir_id))
        elif state == "M":
            line.state = "MI_A"
            self.send(m.Message(m.PUTM, line.addr, self.node_id, self.dir_id, data=line.data))
        elif state == "O":
            line.state = "OI_A"
            self.send(m.Message(m.PUTO, line.addr, self.node_id, self.dir_id, data=line.data))
        else:  # pragma: no cover - guarded by pinned victim selection
            raise ProtocolError(f"{self.node_id}: cannot evict line in {state}")

    # ------------------------------------------------------------------
    # Network-facing handlers.
    # ------------------------------------------------------------------
    def handle_message(self, msg: m.Message) -> None:
        """Dispatch one incoming coherence message (class-level table)."""
        handler = self._dispatch.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.node_id}: unexpected {msg}")
        handler(self, msg)

    def _on_grant(self, msg: m.Message) -> None:
        """Grant from the directory (completes GetM; or dir-sourced GetS data)."""
        mshr = self.mshrs.get(msg.addr)
        if mshr is None:
            raise ProtocolError(f"{self.node_id}: grant with no MSHR: {msg}")
        mshr.have_grant = True
        mshr.grant_state = msg.meta
        if msg.data is not None:
            mshr.have_data = True
            mshr.data = msg.data
        self._maybe_fill(mshr)

    def _on_peer_data(self, msg: m.Message) -> None:
        """Cache-to-cache data from an owner/forwarder."""
        mshr = self.mshrs.get(msg.addr)
        if mshr is None:
            raise ProtocolError(f"{self.node_id}: peer data with no MSHR: {msg}")
        mshr.have_data = True
        mshr.data = msg.data
        if mshr.txn == "GetS":
            # GetS completes on data alone; the peer's meta is the state.
            mshr.have_grant = True
            mshr.grant_state = msg.meta
        self._maybe_fill(mshr)

    def _maybe_fill(self, mshr: Mshr) -> None:
        if not (mshr.have_grant and mshr.have_data):
            return
        line = self.cache.lookup(mshr.addr)
        if line is None:  # pragma: no cover - MSHR implies a reserved way
            raise ProtocolError(f"{self.node_id}: fill without reserved line")
        line.state = mshr.grant_state
        line.data = mshr.data
        line.dirty = mshr.grant_state in ("M", "O")
        del self.mshrs[mshr.addr]
        if mshr.txn == "GetM":
            # Confirm the fill so the directory can unblock the line:
            # recalls issued after our grant must find us stably M.
            self.send(m.Message(m.UNBLOCK, mshr.addr, self.node_id, self.dir_id))
        self._drain_ops(line, mshr.ops)
        if mshr.invalidate_on_fill:
            # An Inv was acknowledged while the grant was in flight: the
            # fill may be consumed by the ops above (it is serialized at
            # our GetS), but the line must not stay installed.
            self._discard_filled_line(mshr.addr)
        # Replay forwards that raced ahead of the grant: they belong to
        # transactions serialized after ours at the directory.
        for fwd in mshr.pending_fwds:
            self.handle_message(fwd)

    def _discard_filled_line(self, addr: int) -> None:
        line = self.cache.peek(addr)
        if line is None:
            return
        if line.state in ("S", "F", "E", "M", "O"):
            self.cache.remove(addr)
            self._room_available(addr % self.cache.num_sets)
        elif line.state == "SM_A":
            # An upgrade already restarted on the poisoned data; fall
            # back to a full-data grant.
            line.state = "IM_D"
            line.data = None
            mshr = self.mshrs[addr]
            mshr.have_data = False
            mshr.data = None

    def _drain_ops(self, line: CacheLine, ops: deque) -> None:
        first = True
        while ops:
            kind, value, callback, t0 = ops.popleft()
            # The op that triggered the fill was a miss; ops queued behind
            # it are effectively hits on the freshly filled line.
            if self._try_hit(kind, line, line.state, value, callback, t0, hit=not first):
                first = False
                continue
            # Needs an upgrade (e.g. queued store behind a GetS fill).
            self._miss(kind, line.addr, value, callback, t0, line)
            mshr = self.mshrs.get(line.addr)
            if mshr is not None:
                while ops:
                    mshr.ops.append(ops.popleft())
            return

    def _on_fwd_gets(self, msg: m.Message) -> None:
        requester = msg.extra["req"]
        line = self.cache.lookup(msg.addr)
        if line is not None and line.state in ("IS_D", "IM_D"):
            self.mshrs[msg.addr].pending_fwds.append(msg)
            return
        if line is None or line.state not in FWD_GETS_OK:
            raise ProtocolError(f"{self.node_id}: Fwd-GetS in bad state: {msg}")
        if line.state == "SM_A":
            # An O/F holder whose own upgrade is queued behind this
            # transaction: serve the data, stay in SM_A (data intact).
            out = []
            if requester != self.dir_id:
                grant = "F" if self.variant.has_f_state else "S"
                out.append(m.Message(m.DATA_OWNER, msg.addr, self.node_id, requester,
                                     meta=grant, data=line.data))
            if line.dirty:
                # Dirty O-owner demoting to sharer: the data must reach
                # the directory or the cluster cache stays stale while
                # no owner exists to recall it from.
                out.append(m.Message(m.WB_DATA, msg.addr, self.node_id, self.dir_id,
                                     data=line.data, extra={"dirty": True}))
            elif requester == self.dir_id:
                out.append(m.Message(m.WB_DATA, msg.addr, self.node_id, self.dir_id,
                                     data=line.data, extra={"dirty": False}))
            else:
                out.append(m.Message(m.OWNER_ACK, msg.addr, self.node_id, self.dir_id,
                                     extra={"kept": "S", "dirty": False}))
            self.send_many(out)
            return
        data = line.data
        dirty = line.dirty
        if requester == self.dir_id:
            # Recall: C3 needs the data (conceptual load from below).
            self.send(m.Message(m.WB_DATA, msg.addr, self.node_id, self.dir_id, data=data,
                                extra={"dirty": dirty}))
            self._downgrade_after_fwd_gets(line)
            return
        grant = "F" if self.variant.has_f_state else "S"
        first = m.Message(m.DATA_OWNER, msg.addr, self.node_id, requester, meta=grant, data=data)
        if line.state in ("MI_A", "EI_A", "OI_A", "FI_A"):
            # Eviction race: hand the data to the directory too, so the
            # cluster cache is current regardless of what happens to the
            # (now stale) Put* in flight.
            second = m.Message(m.WB_DATA, msg.addr, self.node_id, self.dir_id, data=data,
                               extra={"dirty": dirty})
        elif line.state == "M" and not self.variant.has_o_state:
            # MESI/MESIF: dirty data also goes back to the directory.
            second = m.Message(m.WB_DATA, msg.addr, self.node_id, self.dir_id, data=data,
                               extra={"dirty": True})
        else:
            kept = self._kept_after_fwd_gets(line)
            second = m.Message(m.OWNER_ACK, msg.addr, self.node_id, self.dir_id,
                               extra={"kept": kept, "dirty": dirty})
        self.send_many((first, second))
        self._downgrade_after_fwd_gets(line)

    def _kept_after_fwd_gets(self, line: CacheLine) -> str:
        if line.state in ("MI_A", "EI_A", "OI_A", "FI_A"):
            return "I"
        if self.variant.has_o_state and line.state in ("M", "O"):
            return "O"
        return "S"

    def _downgrade_after_fwd_gets(self, line: CacheLine) -> None:
        if line.state in ("MI_A", "EI_A", "OI_A", "FI_A"):
            line.state = "II_A"
            line.dirty = False
            return
        if self.variant.has_o_state and line.state in ("M", "O"):
            line.state = "O"
            return
        line.state = "S"
        line.dirty = False

    def _on_fwd_getm(self, msg: m.Message) -> None:
        requester = msg.extra["req"]
        line = self.cache.lookup(msg.addr)
        if line is not None and line.state in ("IS_D", "IM_D"):
            self.mshrs[msg.addr].pending_fwds.append(msg)
            return
        if line is None or line.state not in FWD_GETM_OK:
            raise ProtocolError(f"{self.node_id}: Fwd-GetM in bad state: {msg}")
        if line.state == "SM_A":
            # An O/F holder losing the race while its own upgrade is
            # queued: hand over the data and fall back to IM_D (the
            # eventual grant will carry fresh data).
            if requester == self.dir_id:
                self.send(m.Message(m.WB_DATA, msg.addr, self.node_id, self.dir_id,
                                    data=line.data, extra={"dirty": line.dirty, "inv": True}))
            else:
                self.send_many((
                    m.Message(m.DATA_OWNER, msg.addr, self.node_id, requester,
                              meta="M", data=line.data),
                    m.Message(m.OWNER_ACK, msg.addr, self.node_id, self.dir_id,
                              extra={"kept": "I", "dirty": line.dirty}),
                ))
            line.state = "IM_D"
            line.data = None
            line.dirty = False
            mshr = self.mshrs[msg.addr]
            mshr.have_data = False
            mshr.data = None
            return
        data = line.data
        dirty = line.dirty
        if requester == self.dir_id:
            # Recall-invalidate (conceptual store from below).
            self.send(m.Message(m.WB_DATA, msg.addr, self.node_id, self.dir_id, data=data,
                                extra={"dirty": dirty, "inv": True}))
        else:
            self.send_many((
                m.Message(m.DATA_OWNER, msg.addr, self.node_id, requester,
                          meta="M", data=data),
                m.Message(m.OWNER_ACK, msg.addr, self.node_id, self.dir_id,
                          extra={"kept": "I", "dirty": dirty}),
            ))
        if line.state in ("MI_A", "EI_A", "OI_A"):
            line.state = "II_A"
        else:
            self.cache.remove(msg.addr)
            self._room_available(msg.addr % self.cache.num_sets)

    def _on_inv(self, msg: m.Message) -> None:
        line = self.cache.lookup(msg.addr)
        self.send(m.Message(m.INV_ACK, msg.addr, self.node_id, self.dir_id))
        if line is None:
            return
        if line.state == "IS_D":
            # The Inv raced our in-flight GetS grant: consume the fill
            # once, then drop it (the Primer's use-once rule).
            self.mshrs[msg.addr].invalidate_on_fill = True
            return
        if line.state == "SM_A":
            # Lost the race: our upgrade will be granted with fresh data.
            line.state = "IM_D"
            line.data = None
            mshr = self.mshrs[msg.addr]
            mshr.have_data = False
            mshr.data = None
        elif line.state in ("SI_A", "FI_A", "MI_A", "EI_A", "OI_A"):
            line.state = "II_A"
        elif line.state in ("S", "F", "E", "M", "O"):
            self.cache.remove(msg.addr)
            self._room_available(msg.addr % self.cache.num_sets)
        # IS_D / IM_D / II_A: nothing held; the ack above suffices.

    def _on_put_ack(self, msg: m.Message) -> None:
        line = self.cache.lookup(msg.addr)
        if line is None:
            raise ProtocolError(f"{self.node_id}: Put-Ack with no line: {msg}")
        if line.state not in ("MI_A", "EI_A", "OI_A", "SI_A", "FI_A", "II_A"):
            raise ProtocolError(f"{self.node_id}: Put-Ack in {line.state}")
        self.cache.remove(msg.addr)
        self._room_available(msg.addr % self.cache.num_sets)

    #: Message kind -> handler function, called as ``handler(self, msg)``.
    #: Class-level, so no instance holds bound methods of itself.
    _dispatch = {
        m.DATA: _on_grant,
        m.DATA_OWNER: _on_peer_data,
        m.FWD_GETS: _on_fwd_gets,
        m.FWD_GETM: _on_fwd_getm,
        m.INV: _on_inv,
        m.PUT_ACK: _on_put_ack,
    }

    # ------------------------------------------------------------------
    # Introspection helpers used by the verification layer.
    # ------------------------------------------------------------------
    def line_state(self, addr: int) -> str:
        """Protocol state of ``addr`` (I when absent)."""
        line = self.cache.peek(addr)
        return line.state if line else "I"

    def quiescent(self) -> bool:
        """No MSHR, room waiter or transient line outstanding."""
        return not self.mshrs and not self._room_waiters and all(
            line.state not in TRANSIENTS for line in self.cache.index.values()
        )


class RccL1(Node):
    """Release-consistency L1: valid/invalid lines, write-through stores,
    self-invalidation on acquire.  The C3 cluster cache is the local
    coherence point."""

    #: Span recorder (repro.obs.spans.SpanRecorder) or None, as on
    #: :class:`L1Controller`.
    obs = None

    def __init__(
        self,
        engine: Engine,
        network: Network,
        node_id: str,
        dir_id: str,
        size_bytes: int,
        assoc: int,
        hit_latency: int,
        stats=None,
    ) -> None:
        super().__init__(engine, network, node_id)
        self.dir_id = dir_id
        self.cache = CacheArray(size_bytes, assoc)
        self.hit_latency = hit_latency
        self.stats = stats
        self._pending: dict[int, deque] = {}  # addr -> queued read callbacks
        self._write_cbs: dict[int, deque] = {}  # addr -> write-ack callbacks
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> tuple:
        """Queued callbacks, counters, cache and op stats, as on
        :meth:`L1Controller.snapshot`."""
        stats = self.stats
        return (save_queues(self._pending), save_queues(self._write_cbs),
                self.hits, self.misses, self.cache.snapshot(),
                None if stats is None else stats.snapshot())

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in place."""
        pending, write_cbs, self.hits, self.misses, cache, stats = state
        restore_queues(self._pending, pending)
        restore_queues(self._write_cbs, write_cbs)
        self.cache.restore(cache)
        if stats is not None:
            self.stats.restore(stats)

    def core_request(self, kind, addr, value, callback) -> None:
        """Core-facing entry for the RCC cache; answers via ``callback``."""
        self.engine.post(self.hit_latency, self._start, kind, addr, value,
                             callback, self.engine.now)

    def _start(self, kind, addr, value, callback, t0) -> None:
        if kind.startswith("PREFETCH"):
            callback(None)  # write-through cache: prefetch is moot
            return
        obs = self.obs
        if obs is not None and not getattr(callback, "_obs_close", False):
            callback = obs.op_wrapper(self.node_id, kind, addr, callback, t0)
        if kind == "LOAD_ACQ":
            self.cache.clear()  # self-invalidate
            kind = "LOAD"
        if kind == "LOAD":
            line = self.cache.lookup(addr)
            if line is not None and line.state == "V":
                self.hits += 1
                self._record(kind, t0, hit=True)
                callback(line.data)
                return
            self.misses += 1
            queue = self._pending.setdefault(addr, deque())
            queue.append((callback, t0))
            if len(queue) == 1:
                self.send(m.Message(m.RCC_READ, addr, self.node_id, self.dir_id))
            return
        if kind in ("STORE", "STORE_REL", "RMW"):
            line = self.cache.lookup(addr)
            if line is not None and kind != "RMW":
                line.data = value
            meta = {"STORE": None, "STORE_REL": "REL", "RMW": "RMW"}[kind]
            self._write_cbs.setdefault(addr, deque()).append((callback, t0, kind))
            self.send(m.Message(m.RCC_WRITE, addr, self.node_id, self.dir_id,
                                meta=meta, data=value))
            return
        raise ProtocolError(f"{self.node_id}: unknown core request {kind}")

    def would_hit(self, kind: str, addr: int) -> bool:
        """Prefetch probe: always True (write-through has no RFO)."""
        return True

    def _record(self, kind, t0, hit) -> None:
        if self.stats is not None:
            self.stats.record_op(kind, self.engine.now - t0, hit)

    def handle_message(self, msg: m.Message) -> None:
        handler = self._dispatch.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.node_id}: unexpected {msg}")
        handler(self, msg)

    def _on_rcc_data(self, msg: m.Message) -> None:
        queue = self._pending.pop(msg.addr, deque())
        if not self.cache.peek(msg.addr):
            if not self.cache.has_room(msg.addr):
                victim = self.cache.victim_for(msg.addr)
                if victim is not None:
                    self.cache.remove(victim.addr)  # clean: silent drop
            if self.cache.has_room(msg.addr):
                self.cache.insert(msg.addr, state="V", data=msg.data)
        else:
            self.cache.lookup(msg.addr).data = msg.data
        for callback, t0 in queue:
            self._record("LOAD", t0, hit=False)
            callback(msg.data)

    def _on_rcc_write_ack(self, msg: m.Message) -> None:
        callback, t0, kind = self._write_cbs[msg.addr].popleft()
        if not self._write_cbs[msg.addr]:
            del self._write_cbs[msg.addr]
        self._record(kind, t0, hit=False)
        callback(msg.data)  # RMW old value rides back; None otherwise

    def _on_inv(self, msg: m.Message) -> None:
        # RCC L1s are not tracked; a defensive ack keeps interop simple.
        self.send(m.Message(m.INV_ACK, msg.addr, self.node_id, self.dir_id))

    #: Message kind -> handler function, as on :class:`L1Controller`.
    _dispatch = {
        m.RCC_DATA: _on_rcc_data,
        m.RCC_WRITE_ACK: _on_rcc_write_ack,
        m.INV: _on_inv,
    }

    def line_state(self, addr: int) -> str:
        """Validity state of ``addr`` (V or I)."""
        line = self.cache.peek(addr)
        return line.state if line else "I"

    def quiescent(self) -> bool:
        """No read fill or write-through acknowledgement outstanding."""
        return not self._pending and not self._write_cbs
