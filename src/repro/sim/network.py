"""Interconnect model (the Garnet substitute).

The network delivers :class:`~repro.protocols.messages.Message` objects
between registered :class:`Node` endpoints over directed :class:`Link`
channels.  Three properties matter for protocol fidelity:

1. **Per-channel FIFO** -- messages on the same ``(src, dst, vnet)``
   channel never reorder.  This is what lets ``BIConflictAck`` act as a
   fence relative to ``Cmp*`` messages (both ride the response network).
2. **Cross-channel reordering** -- messages on different virtual
   networks have independent queues and (on the CXL fabric) independent
   random jitter, so a completion on the response network can overtake
   or be overtaken by a snoop on the forward network: the Fig. 2 races.
3. **Latency composition** -- arrival time is
   ``now + router + link latency + serialization + jitter`` where
   serialization charges one link cycle per flit.

All three live in one place, :meth:`Network.send`: ``send_many`` is a
loop over it, fault actions apply inside it, and it reaches the engine
only through ``post_at``/``post_many``, so the event queue's layout is
private to :mod:`repro.sim.engine`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.protocols.messages import Message, VNET_NAMES
from repro.sim.engine import Engine


@dataclass(frozen=True)
class Link:
    """A directed channel between two nodes.

    ``latency`` covers propagation (router + wire) in ticks;
    ``flit_bytes`` and ``flit_cycle`` model serialization;
    ``jitter`` is the maximum uniform random extra delay in ticks.
    """

    latency: int
    flit_bytes: int = 72
    flit_cycle: int = 500
    jitter: int = 0


class Node:
    """Base class for every message-handling component."""

    def __init__(self, engine: Engine, network: "Network", node_id: str) -> None:
        self.engine = engine
        self.network = network
        self.node_id = node_id
        network.register(self)

    def send(self, msg: Message) -> None:
        """Hand a message to the interconnect."""
        self.network.send(msg)

    def send_many(self, msgs) -> None:
        """Hand a batch of messages to the interconnect, in order."""
        self.network.send_many(msgs)

    def handle_message(self, msg: Message) -> None:
        """Process one delivered message (subclass hook)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.node_id}>"


class NetworkStats:
    """Aggregate traffic counters."""

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.per_vnet: dict[str, int] = {name: 0 for name in VNET_NAMES.values()}
        self.per_kind: dict[str, int] = {}

    def record(self, msg: Message) -> None:
        """Count one sent message."""
        self.messages += 1
        self.bytes += msg.size
        self.per_vnet[VNET_NAMES[msg.vnet]] += 1
        self.per_kind[msg.kind] = self.per_kind.get(msg.kind, 0) + 1


class Network:
    """Message router with per-channel FIFO delivery."""

    def __init__(self, engine: Engine, seed: int = 1) -> None:
        self.engine = engine
        #: Jitter draw stream, seeded with ``seed`` when the first link
        #: with jitter is connected: a jitter-free fabric never draws.
        self.rng: random.Random | None = None
        self._seed = seed
        self.nodes: dict[str, Node] = {}
        #: ``node_id -> bound handle_message``: the delivery table, so
        #: a send binds no method.
        self._handlers: dict[str, Any] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self._last_arrival: dict[tuple[str, str, int], int] = {}
        self._link_busy_until: dict[tuple[str, str], int] = {}
        self.stats = NetworkStats()
        # Span recorder (repro.obs) or None; send() pays one test.
        self.obs = None
        # Fault plan (repro.scenario.faults.FaultPlan) or None; like
        # obs, the fault-free path pays exactly one is-None test.
        self.faults = None

    def register(self, node: Node) -> None:
        """Register an endpoint (called by Node.__init__)."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self._handlers[node.node_id] = node.handle_message

    def connect(self, src: str, dst: str, link: Link, bidirectional: bool = True) -> None:
        """Install a link between two endpoints."""
        if link.jitter and self.rng is None:
            self.rng = random.Random(self._seed)
        self.links[(src, dst)] = link
        if bidirectional:
            self.links[(dst, src)] = link

    def send(self, msg: Message) -> None:
        """Schedule delivery of ``msg`` respecting per-channel FIFO order
        and per-link bandwidth (serialization occupies the wire).

        The one message path: every send, batched or not, faulted or
        not, on any engine, computes its arrival here.  A message the
        fault plan selects leaves through :meth:`_faulted_deliveries`;
        every other one is counted in place and posted at its arrival.
        """
        src, dst = msg.src, msg.dst
        wire = (src, dst)
        link = self.links.get(wire)
        if link is None:
            raise KeyError(f"no link {src} -> {dst}")
        engine = self.engine
        now = engine.now
        flit_bytes = link.flit_bytes
        serialization = (
            (msg.size + flit_bytes - 1) // flit_bytes) * link.flit_cycle
        busy_until = self._link_busy_until
        start = busy_until.get(wire, 0)
        if start < now:
            start = now
        busy_until[wire] = start + serialization
        arrival = start + serialization + link.latency
        jitter = link.jitter
        if jitter:
            # rng.randrange(jitter + 1) inlined as its exact getrandbits
            # rejection loop: the same draw stream without the call.
            span = jitter + 1
            bits = span.bit_length()
            getrandbits = self.rng.getrandbits  # type: ignore[union-attr]
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            arrival += r
        faults = self.faults
        if faults is not None:
            action = faults.action_for(msg)
            if action is not None:
                engine.post_many(
                    self._faulted_deliveries(msg, action, arrival, now))
                return
        vnet = msg.vnet
        channel = (src, dst, vnet)
        last_arrival = self._last_arrival
        floor = last_arrival.get(channel, -1) + 1
        if arrival < floor:
            arrival = floor
        last_arrival[channel] = arrival
        # stats.record(msg), inlined.
        stats = self.stats
        stats.messages += 1
        stats.bytes += msg.size
        stats.per_vnet[VNET_NAMES[vnet]] += 1
        per_kind = stats.per_kind
        kind = msg.kind
        per_kind[kind] = per_kind.get(kind, 0) + 1
        obs = self.obs
        if obs is not None:
            obs.on_message(msg, arrival - now)
        engine.post_at(arrival, self._handlers[dst], msg)

    def send_many(self, msgs) -> None:
        """Send a batch of messages: one :meth:`send` per message, in order.

        The fan-out spelling used by the L1 forward handlers, the
        bridge invalidation loops and the Dcoh snoop sweep.  It goes
        through ``self.send``, so an interposer on ``send`` (the
        :class:`repro.sim.trace.MessageTracer` wrap, the model checker's
        :class:`~repro.verify.explorer.InterceptNetwork`) sees every
        message, and a missing link raises after the earlier messages
        of the batch were delivered and counted.
        """
        send = self.send
        for msg in msgs:
            send(msg)

    def _faulted_deliveries(self, msg: Message, action, arrival: int,
                            now: int) -> tuple:
        """Deliveries for a message selected by the fault plan.

        ``action`` is ``(verb, extra_ticks)`` from
        :meth:`repro.scenario.faults.FaultPlan.action_for`.  Drops are
        counted but never scheduled; delays stretch the arrival but
        keep per-channel FIFO; reorders stretch the arrival *and*
        bypass the FIFO floor (the one legal-fabric property faults are
        allowed to break); duplicates deliver a fresh-uid copy one tick
        after the original.  Returns ``(time, handler, args)`` items
        for :meth:`~repro.sim.engine.BatchedEngine.post_many`.
        """
        verb, extra = action
        stats = self.stats
        obs = self.obs
        if verb == "drop":
            stats.record(msg)
            if obs is not None:
                obs.on_message(msg, 0)
            return ()
        channel = (msg.src, msg.dst, msg.vnet)
        last_arrival = self._last_arrival
        if verb == "reorder":
            arrival += extra
        else:
            if verb == "delay":
                arrival += extra
            floor = last_arrival.get(channel, -1) + 1
            if arrival < floor:
                arrival = floor
            last_arrival[channel] = arrival
        stats.record(msg)
        if obs is not None:
            obs.on_message(msg, arrival - now)
        handler = self._handlers[msg.dst]
        if verb != "duplicate":
            return ((arrival, handler, (msg,)),)
        from repro.scenario.faults import clone_message

        copy = clone_message(msg)
        copy_arrival = arrival + 1
        last_arrival[channel] = copy_arrival
        stats.record(copy)
        if obs is not None:
            obs.on_message(copy, copy_arrival - now)
        return ((arrival, handler, (msg,)),
                (copy_arrival, handler, (copy,)))
