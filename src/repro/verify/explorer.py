"""Delivery interception and state digests for the model checker.

The model checker (:mod:`repro.verify.mc`) checks the *actual
implementation*, not a re-model of it.  This module holds the three
pieces it builds on:

- :class:`InterceptNetwork` parks every sent message in an outbox
  instead of scheduling it, so the checker chooses delivery orders
  explicitly (respecting per-channel FIFO, exactly like the real fabric),
  and saves that outbox, with each parked message's encoded flight
  entry, for :meth:`repro.sim.system.System.snapshot`;
- :func:`system_config` and :func:`build_intercepted` construct the
  two-cluster system under test on that network;
- :func:`state_parts` flattens one (system, outbox) state into the
  canonical tuple the fingerprints are derived from.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import Any

from repro.protocols.messages import Message
from repro.sim.config import ClusterConfig, SystemConfig
from repro.sim.network import Network
from repro.sim.system import build_system


class InterceptNetwork(Network):
    """Network that parks sent messages for explicit delivery choices.

    ``entries`` runs beside ``outbox``: for each parked message, its
    channel and flight entry as a fingerprint encoded them
    (:func:`repro.verify.mc.fingerprint.canonical_fingerprint`), or None
    until one has.  A parked message never changes, so it is encoded
    once, and the snapshot saves the encodings with the outbox.
    """

    def __init__(self, engine, seed=1):
        super().__init__(engine, seed)
        self.outbox: list[Message] = []
        self.entries: list[tuple | None] = []

    def send(self, msg: Message) -> None:
        """Count ``msg``, show it to the observers (delay 0: it has no
        arrival until a delivery is chosen) and park it."""
        self.stats.record(msg)
        for observer in self.observers:
            observer.on_message(msg, 0)
        self.outbox.append(msg)
        self.entries.append(None)

    def deliverable(self) -> list[int]:
        """Outbox indices eligible for delivery: per-(src, dst, vnet)
        channels are FIFO, so only the oldest message of each channel
        may be delivered."""
        seen_channels = set()
        eligible = []
        for index, msg in enumerate(self.outbox):
            channel = (msg.src, msg.dst, msg.vnet)
            if channel in seen_channels:
                continue
            seen_channels.add(channel)
            eligible.append(index)
        return eligible

    def deliver(self, index: int) -> None:
        """Deliver (and remove) the outbox message at ``index``."""
        msg = self.outbox.pop(index)
        del self.entries[index]
        self.nodes[msg.dst].handle_message(msg)

    def snapshot(self) -> tuple:
        """The outbox (messages are shared, never copied), its encoded
        entries and the traffic counters.  Sends never reach the wires
        here, so there is no wire or jitter state to save."""
        return list(self.outbox), list(self.entries), self.stats.snapshot()

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in the same outbox list."""
        outbox, entries, stats = state
        self.outbox[:] = outbox
        self.entries[:] = entries
        self.stats.restore(stats)


def system_config(combo: tuple[str, str, str], mcms: tuple[str, str],
                  threads: int) -> SystemConfig:
    """Two clusters of ``ceil(threads / 2)`` cores each, no fabric jitter."""
    local_a, global_protocol, local_b = combo
    cores = max(1, (threads + 1) // 2)
    return SystemConfig(
        clusters=(
            ClusterConfig(cores=cores, protocol=local_a, mcm=mcms[0]),
            ClusterConfig(cores=cores, protocol=local_b, mcm=mcms[1]),
        ),
        global_protocol=global_protocol,
        cross_jitter_ns=0.0,
    )


def build_intercepted(config: SystemConfig, violate_atomicity: bool):
    """Build ``config`` on an :class:`InterceptNetwork`.

    Returns ``(system, network)`` with no program started, so a caller
    may attach observers (e.g. a message tracer) before the first send.
    """
    system = build_system(config, violate_atomicity=violate_atomicity,
                          network_cls=InterceptNetwork)
    return system, system.network


# ---------------------------------------------------------------------------
# State digests.
# ---------------------------------------------------------------------------

#: The digest of a line with no directory record: that of an empty one.
_EMPTY_REC = (None, "", (), None)
#: What a message without protocol extras reads as.
_NO_EXTRA: Mapping[str, Any] = MappingProxyType({})


def _rec_fp(rec):
    if rec is None:
        return _EMPTY_REC
    sharers = rec.sharers
    return (rec.owner, rec.owner_kind,
            tuple(sorted(sharers)) if sharers else (), rec.f_holder)


def _l1_part(l1) -> tuple:
    """An L1's lines and MSHRs."""
    lines = sorted([(line.addr, line.state, line.data, line.dirty)
                    for line in l1.cache.index.values()])
    mshrs = getattr(l1, "mshrs", None)
    mshrs = tuple(sorted([
        (addr, mshr.txn, mshr.have_data, mshr.have_grant,
         mshr.grant_state, mshr.data, len(mshr.ops))
        for addr, mshr in mshrs.items()])) if mshrs else ()
    return (l1.node_id, tuple(lines), mshrs)


def _bridge_part(bridge) -> tuple:
    """A bridge's lines, transactions and queues, its global port's
    pending sets, and a hybrid bridge's local DRAM store."""
    # Read-only: ``peek_meta`` creates neither a meta dict nor a
    # directory record on the lines it reads.
    lines = sorted([
        (line.addr, line.state, line.data, line.dirty,
         line.peek_meta("stale", False), _rec_fp(line.peek_meta("dir")))
        for line in bridge.cache.index.values()])
    busy = bridge.busy
    busy = tuple(sorted([
        (addr, txn.kind, txn.requester, txn.phase, txn.acks_needed,
         txn.acks_got, txn.owner_forwarded, txn.was_sharer)
        for addr, txn in busy.items()])) if busy else ()
    recalls = bridge.recalls
    recalls = tuple(sorted([
        (addr, recall.mode, recall.acks_needed, recall.acks_got)
        for addr, recall in recalls.items()])) if recalls else ()
    pq = bridge.pq_local
    pq = tuple(sorted([
        (addr, tuple([m.kind for m in queue]))
        for addr, queue in pq.items()])) if pq else ()
    evicting = bridge.evicting
    evicting = tuple(sorted(evicting)) if evicting else ()
    port = bridge.port
    pending = port.pending
    pending = tuple(sorted([
        (addr, p.want, p.grant_seen, p.grant_state, p.data,
         p.acks_needed, p.acks_got)
        for addr, p in pending.items()])) if pending else ()
    wbs = port.wb
    wbs = tuple(sorted([
        (addr, w.held_snoop.kind if w.held_snoop else None)
        for addr, w in wbs.items()])) if wbs else ()
    snoops = port.snoop_q
    snoops = tuple(sorted([
        (addr, tuple([m.kind for m in queue]))
        for addr, queue in snoops.items()])) if snoops else ()
    active = port.active_snoop
    active = tuple(sorted([
        (addr, msg.kind) for addr, msg in active.items()])) if active else ()
    conflict = getattr(port, "conflict_state", None)
    conflict = tuple(sorted([
        (addr, state["snoop"].kind, state["granted"])
        for addr, state in conflict.items()])) if conflict else ()
    part = (bridge.node_id, tuple(lines), busy, recalls, pq,
            evicting, pending, wbs, snoops, active, conflict)
    local = bridge.local_backing
    if local is not None:  # hybrid memory: the bridge's own DRAM
        part += (tuple(sorted(local.snapshot().items())),)
    return part


def _home_part(home) -> tuple:
    """The home directory's lines, transactions and queues, and its
    backing store."""
    home_lines = tuple(sorted([
        (addr, line.state, line.owner, tuple(sorted(line.sharers)),
         getattr(line, "data_pending", False))
        for addr, line in home.lines.items()]))
    home_busy = getattr(home, "busy", None)
    home_busy = tuple(sorted([
        (addr, txn.kind, txn.requester, tuple(sorted(txn.targets)))
        for addr, txn in home_busy.items()])) if home_busy else ()
    home_queue = home.queues
    home_queue = tuple(sorted([
        (addr, tuple([entry[0].kind if isinstance(entry, tuple) else entry.kind
                      for entry in queue]))
        for addr, queue in home_queue.items()])) if home_queue else ()
    backing = home.backing.snapshot()
    backing = tuple(sorted(backing.items())) if backing else ()
    return ("home", home_lines, home_busy, home_queue, backing)


def _core_part(core) -> tuple:
    """A core's op statuses, store buffer and registers."""
    return (core.core_id, tuple(core.status),
            tuple([(e.op_index, e.addr, e.value, e.draining)
                   for e in core.sb]),
            tuple(sorted(core.regs.items())))


def component_parts(system) -> list[tuple]:
    """``(encode, component)`` for each component part of
    :func:`state_parts`, in its order: each cluster's L1s and bridge,
    the home, then every core.  ``encode(component)`` is the part."""
    layout = []
    for cluster in system.clusters:
        layout += [(_l1_part, l1) for l1 in cluster.l1s]
        layout.append((_bridge_part, cluster.bridge))
    layout.append((_home_part, system.home))
    layout += [(_core_part, core) for core in system.cores]
    return layout


def flight_entry(msg) -> tuple:
    """One in-flight message's entry in :func:`flight_part`."""
    # ``_extra``, not ``extra``: the property would give every message
    # without one a new dict, and messages are shared with the search's
    # snapshots.
    extra = msg._extra or _NO_EXTRA
    return (msg.kind, msg.addr, msg.meta, msg.data, msg.acks,
            extra.get("req"), extra.get("inv", False),
            extra.get("kept"), extra.get("dirty", False))


def flight_part(network) -> tuple:
    """The last part of :func:`state_parts`: the in-flight messages,
    grouped per ``(src, dst, vnet)`` FIFO channel *preserving order*
    within the channel (order across channels is immaterial)."""
    channels: dict = {}
    for msg in network.outbox:
        entry = flight_entry(msg)
        key = (msg.src, msg.dst, msg.vnet)
        queue = channels.get(key)
        if queue is None:
            channels[key] = [entry]
        else:
            queue.append(entry)
    return tuple(sorted([
        (key, tuple(entries)) for key, entries in channels.items()]))


def state_parts(system, network) -> tuple:
    """Canonical nested-tuple digest of one (system, outbox) state.

    Everything observable that distinguishes two protocol states is
    flattened to primitives (ints, strings, bools, None) in a fixed
    order: cache lines, MSHRs, bridge transactions, port pending sets,
    a hybrid bridge's local DRAM store, home directory, core
    registers/store buffers (one part per component,
    :func:`component_parts`), and the in-flight messages grouped per
    FIFO channel *preserving order* within the channel, as the last
    part (:func:`flight_part`).  The model checker's process-stable
    fingerprint (:mod:`repro.verify.mc.fingerprint`) is derived from
    these parts.  The walk only reads: it changes no line's meta.
    """
    parts = [encode(component)
             for encode, component in component_parts(system)]
    parts.append(flight_part(network))
    return tuple(parts)
